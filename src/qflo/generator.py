"""Spectral analysis of the qDRIFT channel E_t: logarithm existence, the
effective generator G(s) with E_s = exp(-i s T G(s)), its convergence to
ad_H, and finite-difference probes of the series coefficients.

Everything here works in the normalized Pauli basis, where E_t is the real
matrix I + Delta of ``channel.channel_delta``.  Delta,
and ad_H with it, is block diagonal over the symmetry sectors of
``channel.pauli_sectors``: the cosets of the GF(2) span of the term masks,
each split into the joint eigenspaces of left multiplication by the
radical, the Paulis of that span that commute with every term, of the
qubit-permutation involutions that map H to itself, and of a single-qubit
Clifford on every qubit that maps H to itself.  On the 4-qubit Heisenberg
chain the radical is {I, XXXX}, and the 2 cosets of 128 become 4 sectors of
64: two real, and a complex-conjugate pair of which only one is solved.
The chain's reflection i <-> 3 - i splits each of the 3 solved sectors in
two, into 40 and 24, 32 and 32, and a paired 32 and 32; its rotation
X -> X, Y -> Z, Z -> -Y, whose square is XXXX's conjugation, splits each
of those in two again, into 24 and 16, 16 and 8, and 16 and 16 for the
rest, the paired ones into their +i and -i eigenspaces.  Neither the
sectors nor ad_H depends on s, so each Hamiltonian's sectors, grouped by
block shape and dtype, are built once, on its first probe, and kept
read-only while it lives, with three stacks of blocks on each group:
ad_H, K = ad_H / (2 i lam) and the diagonal D of the channel's damping
(``HamiltonianDecomposition.derived``).  At step angle theta = lam t,
Delta = -2 sin^2(theta) D + sin(2 theta) K, so a probe forms each group's
Delta blocks from those two stacks, with no d^2 x d^2 Delta, and takes one
``eig`` per group, on their stack (on the chain 4 groups: 24 real, 6 of 16
real, 8 real, 4 of 16 complex): the eigenvalues of E_s are 1 + mu, and the
minimum eigenvalue modulus, the logarithm, the eigenvector conditioning
guard and the deviation from ad_H are all taken sector by sector.  A probe
on the chain makes 12 LAPACK calls: 4 stacked ``eig``, 4 ``inv`` of the
eigenvectors, which the logarithm and the guard's Frobenius bound share,
and 4 SVDs for the sectors' spectral norms; the guard takes SVDs of its own
only when that bound exceeds sqrt(LOG_COND_CAP) (``linalg._log_from_eig``).
A stacked LAPACK call solves each block as a call of its own would.
The deviation is taken in split form (``generator_probe``),
[log(I + Delta) - Delta] / (-i t) from the eigenpairs, with log1p(mu) - mu
summed as its series where mu is small, plus Delta / (-i t) - ad_H in
closed form from D and K, so that nothing of the size of ad_H cancels: on
the 4-qubit chain at s = 2^-12 the deviation's relative error against a
40-digit reference is 1.2e-16, where log(I + Delta) / (-i t) - ad_H gave
1.7e-14, and over 40 s in [5e-5, 2e-3] on the lambda = 1 chain it is at
most 1.1e-15, where that form lost up to 1.6e-12.  The sector bases are
orthonormal, so spectral norms, and with them the deviation, are those of
the vec-basis superoperators.  G(s) is kept only as
``GeneratorProbe.blocks``, G(s) - ad_H on each sector; a paired sector's
conjugate has the same singular values, so no norm needs the whole matrix.
``channel_superoperator`` (the vec-basis form of E_t) stays exported here
for callers that want it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    _pauli_action, _step_angle, channel_superoperator, pauli_sectors, pauli_term_matrix,
)
from .hamiltonian import HamiltonianDecomposition
from .linalg import LOG_EIG_TOL, _log1pmx, _log_from_eig, spectral_norm

__all__ = [
    "ConditioningError", "GeneratorProbe", "SeriesProbeResult", "channel_superoperator",
    "ek_bound_probe", "generator_probe", "log_existence_check", "pauli_adjoint",
    "series_probe",
]


_SERIES_COND_CAP = 1e12


class ConditioningError(ArithmeticError):
    """Divided-difference table too cancellation-dominated to trust."""


@dataclass(frozen=True)
class GeneratorProbe:
    s: float
    t: float
    blocks: tuple  # G(s) - ad_H on each ``pauli_sectors`` sector, in order
    deviation: float  # spectral norm of G(s) - ad_H, the largest block's
    min_eig_modulus: float  # smallest eigenvalue modulus of E_s


@dataclass(frozen=True)
class SeriesProbeResult:
    orders: tuple
    coefficients: np.ndarray
    fit_residual: float
    condition_number: float


def pauli_adjoint(H: HamiltonianDecomposition) -> np.ndarray:
    """ad_H : B -> [H, B] in the normalized Pauli basis: [h_j s_j P_j, sigma_q]
    is 2i h_j times -i s_j P_j sigma_q where they anticommute, 0 elsewhere."""
    return 1j * pauli_term_matrix(H, np.zeros(len(H)), 2.0 * H.weights)


class _SectorStructure(NamedTuple):
    sectors: tuple    # ``pauli_sectors(H)``
    groups: tuple     # the sector indices of each block shape and dtype, as first met
    ad_stacks: tuple  # ad_H's blocks on each group's sectors, stacked
    k_stacks: tuple   # K = ad_H / (2 i lam) on the same, real for real groups
    d_stacks: tuple   # the diagonal D of Delta's -2 sin^2(theta) D, (k, m) per group


def _sector_structure(H: HamiltonianDecomposition) -> _SectorStructure:
    """H's symmetry sectors, grouped by block shape and dtype so that a
    probe takes one LAPACK call per group, and three stacks of blocks on
    each group: ad_H, K = ad_H / (2 i lam) and the diagonal D, with
    D_q = sum_j p_j over the terms P_j that anticommute with sigma_q, so
    that Delta = -2 sin^2(theta) D + sin(2 theta) K at every step angle
    theta.  D is constant over each sector column's Paulis, which differ by
    radical Paulis and by symmetries of H, so its block is its value at the
    representatives.  None of these depends on the step time: it is read
    through ``H.derived``, so built on H's first probe and shared, read-only,
    by every later one."""
    sectors = tuple(pauli_sectors(H))
    groups = {}
    for i, sector in enumerate(sectors):
        groups.setdefault((sector.pos.shape[1], sector.phase.dtype.kind), []).append(i)
    groups = tuple(tuple(group) for group in groups.values())
    ad_H = pauli_adjoint(H)
    ad_stacks = tuple(np.stack([sectors[i].block(ad_H) for i in group]) for group in groups)
    k_stacks = tuple(stack / (2j * H.lam) for stack in ad_stacks)
    k_stacks = tuple(K if sectors[group[0]].paired else K.real
                     for group, K in zip(groups, k_stacks))
    D = H.weights @ np.abs(H.derived(_pauli_action)) / H.lam
    d_stacks = tuple(D[np.stack([sectors[i].pos[0] for i in group])] for group in groups)
    return _SectorStructure(sectors, groups, ad_stacks, k_stacks, d_stacks)


def _diagonal_plus_k(structure: _SectorStructure, diag, off) -> list:
    """diag times the diagonal D plus off times K on each group's sectors,
    stacked: the form of Delta, and of Delta / (-i t) - ad_H, with no
    d^2 x d^2 matrix."""
    stacks = []
    for K, D in zip(structure.k_stacks, structure.d_stacks):
        stack = off * K
        diagonal = np.arange(D.shape[-1])
        stack[:, diagonal, diagonal] += diag * D
        stacks.append(stack)
    return stacks


def _delta_stacks(structure: _SectorStructure, theta: float) -> list:
    """Delta's sector blocks at step angle theta, stacked by group."""
    return _diagonal_plus_k(structure, -2.0 * math.sin(theta) ** 2, math.sin(2.0 * theta))


def _channel_spectrum(H: HamiltonianDecomposition, theta: float):
    """H's kept ``_sector_structure``, the eigenpairs (mu, V) of the sector
    blocks of Delta = E_t - I at step angle theta = lam t, stacked by group,
    from one ``eig`` per group, and E_t's minimum eigenvalue modulus.  A
    paired sector's conjugate has the conjugate eigenpairs, so it takes no
    eigensolve of its own."""
    structure = H.derived(_sector_structure)
    spectra = [np.linalg.eig(delta) for delta in _delta_stacks(structure, theta)]
    min_mod = min(float(np.abs(1.0 + mu).min()) for mu, _ in spectra)
    return structure, spectra, min_mod


def log_existence_check(H: HamiltonianDecomposition, t: float) -> dict:
    """Minimum eigenvalue modulus of the channel E_t.

    Reports rather than throws; existence holds whenever the smallest
    modulus stays above the logarithm tolerance.  For t < 1/(2 lambda)
    existence is guaranteed.
    """
    _, _, min_mod = _channel_spectrum(H, float(_step_angle(H, t)))
    return {"min_eig_modulus": min_mod, "exists": min_mod > LOG_EIG_TOL}


def _sin_minus_identity(x: float) -> float:
    """sin(x) - x, to full relative precision: as its series
    -x^3/3! + x^5/5! - ... where |x| <= 1, directly past that, where the
    difference loses at most 3 bits."""
    if abs(x) > 1.0:
        return math.sin(x) - x
    term, total, k = x, 0.0, 1
    while True:
        term *= -x * x / ((k + 1) * (k + 2))
        k += 2
        total += term
        if abs(term) <= 2.0 ** -53 * abs(total):
            return total


def generator_probe(H: HamiltonianDecomposition, s: float, T: float) -> GeneratorProbe:
    """G(s) - ad_H, G(s) = log(E_s) / (-i s T), sector by sector in the
    Pauli basis, and its spectral norm, the largest over the sectors; raises
    LogarithmError, carrying E_s's ``min_eig_modulus``, when no logarithm
    exists, ArithmeticError when the step time s T is below the normal
    range, where 1 / t overflows, and G(s) with it, and OverflowError where
    the step angle 2 lam t is not finite.

    The deviation is taken in split form, so that no O(||ad_H||) term
    cancels: with Delta = E_t - I = -2 sin^2(theta) D + sin(2 theta) K and
    ad_H = (2 theta / t) i K,
    G(s) - ad_H = [log(I + Delta) - Delta] / (-i t) + Delta / (-i t) - ad_H
                = V diag(log1p(mu) - mu) V^-1 / (-i t)
                  - (2 i sin^2(theta) / t) D + i (sin(2 theta) - 2 theta) / t K,
    each term of the size of the deviation, and each small difference
    summed as its series (``linalg._log1pmx``, ``_sin_minus_identity``)."""
    if not 0 < T < math.inf:
        raise ValueError(f"total time T must be positive and finite, got {T!r}")
    if not 0 < s < math.inf:
        raise ValueError(f"inverse step count s must be positive and finite, got {s!r}")
    t = s * T
    if t < np.finfo(float).tiny:
        raise ArithmeticError(
            f"step time t = s T = {t!r} is subnormal or 0 at s = {s!r}, T = {T!r}")
    theta = float(_step_angle(H, t))
    structure, spectra, min_mod = _channel_spectrum(H, theta)
    closed = _diagonal_plus_k(structure, -2j * math.sin(theta) ** 2 / t,
                              1j * _sin_minus_identity(2.0 * theta) / t)
    stacks = [F / (-1j * t) + C for F, C in zip(_log_from_eig(spectra, _log1pmx), closed)]
    blocks = [None] * len(structure.sectors)
    for group, stack in zip(structure.groups, stacks):
        for i, block in zip(group, stack):
            blocks[i] = block
    deviation = max(spectral_norm(stack) for stack in stacks)
    return GeneratorProbe(s=s, t=t, blocks=tuple(blocks), deviation=deviation,
                          min_eig_modulus=min_mod)


def series_probe(s_values, f_values, f_zero: float, max_order: int) -> SeriesProbeResult:
    """Least-squares fit of f(s) - f_zero against powers s^1..s^max_order.

    ``f_zero`` is the zero-step-size limit from the exact-evolution oracle.
    Refuses fits whose design-matrix condition number exceeds ``_SERIES_COND_CAP``.
    """
    s = np.asarray(s_values, dtype=float)
    f = np.asarray(f_values, dtype=float)
    if s.size != f.size:
        raise ValueError("s_values and f_values lengths differ")
    if s.size < max_order + 1:
        raise ValueError(
            f"need at least {max_order + 1} nodes for a degree-{max_order} fit, got {s.size}"
        )
    if np.unique(s).size != s.size:
        raise ValueError("series probe nodes must be distinct")
    design = np.vander(s, max_order + 1, increasing=True)[:, 1:]
    cond = float(np.linalg.cond(design))
    if cond > _SERIES_COND_CAP:
        raise ConditioningError(
            f"series fit refused: design condition number {cond:.3e} > {_SERIES_COND_CAP:.1e}"
        )
    coeffs, residuals, _, _ = np.linalg.lstsq(design, f - f_zero, rcond=None)
    if residuals.size:
        residual = float(np.sqrt(residuals[0]))
    else:
        residual = float(np.linalg.norm(design @ coeffs - (f - f_zero)))
    return SeriesProbeResult(
        orders=tuple(range(1, max_order + 1)),
        coefficients=coeffs,
        fit_residual=residual,
        condition_number=cond,
    )


def _divided_difference(nodes, matrices) -> np.ndarray:
    """Top entry of the Newton divided-difference table over matrix values."""
    table = [np.array(M, copy=True) for M in matrices]
    n = len(table)
    for level in range(1, n):
        for i in range(n - level):
            table[i] = (table[i + 1] - table[i]) / (nodes[i + level] - nodes[i])
    return table[0]


def ek_bound_probe(H: HamiltonianDecomposition, T: float, k: int) -> dict:
    """Estimate the k-th generator-series coefficient norm against (4 lambda)^k.

    G(s) = ad_H + sum_{j>=1} E_{j+1} (sT)^j, so the coefficient of s^(k-1)
    in G(s) - ad_H is E_k T^(k-1).  A (k-1)-th divided difference over nodes
    s = h, 2h, ..., kh recovers it up to O(h); h = 0.1 / (T lambda 2^k)
    balances truncation against cancellation.  The difference is linear, so
    it is taken on each sector's block and its norm is the largest block's.
    """
    if k not in (2, 3, 4):
        raise ValueError(f"probe supports k in {{2, 3, 4}}, got {k}")
    if not 0 < T < math.inf:
        raise ValueError(f"total time T must be positive and finite, got {T!r}")
    h = 0.1 / (T * H.lam * 2 ** k)
    nodes = np.array([i * h for i in range(1, k + 1)])
    probes = [generator_probe(H, s, T) for s in nodes]
    estimate = max(spectral_norm(_divided_difference(nodes, blocks))
                   for blocks in zip(*(p.blocks for p in probes))) / T ** (k - 1)
    bound = (4.0 * H.lam) ** k
    # Rounding in the matrix log is amplified by h^-(k-1) in the difference
    # table.  The split form leaves each node's rounding near u ||G - ad_H||,
    # under the 1e-13 ||ad_H|| taken here; the floor is left as it was, so
    # that the probe refuses the same inputs.
    ad_stacks = H.derived(_sector_structure).ad_stacks
    input_scale = max(max(p.deviation for p in probes),
                      max(spectral_norm(stack) for stack in ad_stacks))
    noise_floor = 1e-13 * input_scale / (h ** (k - 1) * math.factorial(k - 1)) / T ** (k - 1)
    if noise_floor > max(estimate, 0.05 * bound):
        raise ConditioningError(
            f"divided-difference probe unreliable: noise floor {noise_floor:.3e} "
            f"exceeds estimate {estimate:.3e}"
        )
    return {"estimate": estimate, "bound": bound, "noise_floor": noise_floor}
