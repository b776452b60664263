"""The randomized-compilation channel: its exact transfer matrix, iterated
powers, seeded measurement shots of sampled trajectories, and projective
measurement.

In the normalized Pauli basis sigma_q / sqrt(d), q = x d + z for the (x, z)
masks of ``PauliString.masks``, one qDRIFT step of time t is a real
d^2 x d^2 matrix R = I + Delta (``channel_delta``).  A term s_j P_j fixes
every Pauli it commutes with and sends each Pauli it anticommutes with to
cos(2 theta) sigma_q + sin(2 theta) (-i s_j P_j sigma_q), theta = lam t, so
Delta is filled from the masks in O(L d^2), with no dense Kronecker product.
The diagonal is stored as -2 sin^2(theta), not as cos(2 theta) - 1, which
would round to 0 for theta below about 1e-8.  The vec-basis superoperator,
``channel_superoperator``, is B (I + Delta) B^dag with B = ``pauli_basis``.

Delta is block diagonal over the cosets of the GF(2) span of the term masks
(``pauli_cosets``; 2 blocks of 128 on the 4-qubit Heisenberg chain), and
within each coset over the symmetry sectors of ``pauli_sectors``: the joint
eigenspaces of left multiplication by the radical, the Paulis of that span
that commute with every term (4 sectors of 64 on the chain, split by XXXX).
The generator analysis eigensolves per sector; the powering below stays on
the cosets.

Exact node values tr[A E^N(rho0)] (``node_values_exact``, one call for all
nodes of a run) are a . v for real Pauli vectors from the O(d^3) transform
``_pauli_coefficients``.  Up to SUPEROP_QUBIT_CAP qubits v = R^N v0 comes
from one square-and-multiply, Delta <- 2 Delta + Delta^2, over the stacked
(node x coset) blocks, at O(L d^2 + (d^6 / C^2) log N) per node for C
cosets; above it each node steps v N times with no matrix, at O(N L d^2).
On the two-qubit benchmark the powered values agree with 40-digit
references to 2e-16 at N = 806 and N = 105345.

A shot is one qDRIFT run followed by one measurement, and ``sample_shots``
is the only shot sampler: the CLI's ``qdrift`` shots are the pipeline's
node-0 shots for the same seed and step count.  Its trajectories run on one
engine, ``evolve_indexed_batch``: a batch of states, each under its own
sequence of term indices, advanced by O(d) Pauli gates (a gather and an axpy
per step) whatever the number of terms.  Where the term count and dimension
are small (``_auto_group``), runs of consecutive steps are first folded into
a table of dense step products.  The gates, the table and the measurement
eigenbasis are built once per call.  Measured on a shared 2-core x86-64 host
with one BLAS thread, batches of 176 and 4096 states and 4-17 terms, in
ns/gate:

    d          4        8        16        32          64
    table   15-49   37-129   168-493   676-3729   3625-16846
    Pauli   24-96    55-90   129-171    190-292      379-566

Randomness is organized as counter-based substreams: every (seed, path)
pair maps to an independent PCG64 stream through numpy's SeedSequence
spawn keys.  Shot k of node j draws from substream(seed, j, k) alone, so a
shot's outcome does not depend on the order or batching of the others.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .hamiltonian import DimensionCapError, HamiltonianDecomposition, PauliRotations, popcount
from .linalg import check_density_matrix, hermitian_eig, require_hermitian, unitary_exp

UNIT_NORM_TOL = 1e-10
SHOT_CHUNK = 4096
CHUNK_INDEX_BYTES = 2 ** 27
DEGENERACY_TOL = 1e-9
IMAG_RESIDUE_TOL = 1e-10
SUPEROP_QUBIT_CAP = 4


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path) via SeedSequence spawn keys."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


def _term_masks(H: HamiltonianDecomposition) -> np.ndarray:
    """(L,) Pauli indices p_j = x_j d + z_j of the terms' masks."""
    return np.array([x * H.dim + z for x, z, _ in (t.pauli.masks() for t in H.terms)])


def _product_phase(a, q, n: int) -> np.ndarray:
    """e in 0..3 with sigma_a sigma_q = i^e sigma_{a ^ q} for Pauli indices
    a, q = x d + z (broadcast); e is odd exactly where they anticommute.

    From sigma_{x,z} = i^(x.z) X^x Z^z,
    e = a_x.a_z + x.z - (a_x ^ x).(a_z ^ z) + 2 a_z.x.
    """
    low = (1 << n) - 1
    ax, az, x, z = a >> n, a & low, q >> n, q & low
    return (popcount(ax & az, n) + popcount(x & z, n)
            - popcount((ax ^ x) & (az ^ z), n) + 2 * popcount(az & x, n)) % 4


def _pauli_action(H: HamiltonianDecomposition):
    """(target, sign), each (L, d^2), over Paulis q = x d + z.

    Where term j anticommutes with sigma_q, -i s_j P_j sigma_q = sign[j, q]
    sigma_{target[j, q]} with sign +-1 and target q ^ p_j; where they
    commute, sign is 0.
    """
    p = _term_masks(H)[:, None]
    q = np.arange(H.dim ** 2)
    e = _product_phase(p, q, H.n_qubits)
    # -i i^e for odd e; even e (commuting) gives no action
    sign = np.array([0, 1, 0, -1])[e] * np.array([t.sign for t in H.terms])[:, None]
    return p ^ q, sign


def pauli_term_matrix(H: HamiltonianDecomposition, diag, off) -> np.ndarray:
    """Real d^2 x d^2 matrix in the normalized Pauli basis: for each term j
    and each Pauli q that anticommutes with P_j, diag[j] at (q, q) and
    off[j] times the sign of -i s_j P_j sigma_q at (q ^ p_j, q).  O(L d^2).

    diag and off may carry leading axes, (..., L), for a stack of matrices
    of shape (..., d^2, d^2)."""
    if H.n_qubits > SUPEROP_QUBIT_CAP:
        raise DimensionCapError(
            f"superoperator construction capped at {SUPEROP_QUBIT_CAP} qubits, got {H.n_qubits}"
        )
    target, sign = _pauli_action(H)
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    d2 = H.dim ** 2
    cols = np.arange(d2)
    M = np.zeros(diag.shape[:-1] + (d2, d2))
    M[..., cols, cols] = diag @ np.abs(sign)
    for j in range(len(H)):
        M[..., target[j], cols] += off[..., j, None] * sign[j]
    return M


def _gf2_basis(vectors) -> list:
    """Echelon basis of the GF(2) span of the integers ``vectors``: distinct
    leading bits, in descending order."""
    basis = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis = sorted(basis + [int(v)], reverse=True)
    return basis


def _reduce(labels, basis: list):
    """Each label's representative modulo the span of the echelon ``basis``:
    the one element of its coset with every leading bit of the basis clear."""
    for b in basis:
        labels = np.minimum(labels, labels ^ b)
    return labels


def pauli_cosets(H: HamiltonianDecomposition) -> np.ndarray:
    """(C, 2^r) Pauli indices q = x d + z: row c holds, ascending, the c-th
    coset of the GF(2) span, of rank r, of the term masks p_j = x_j d + z_j.
    Every matrix ``pauli_term_matrix`` builds is block diagonal over them."""
    basis = _gf2_basis(_term_masks(H))
    labels = _reduce(np.arange(H.dim ** 2), basis)
    return np.argsort(labels, kind="stable").reshape(-1, 1 << len(basis))


class PauliSector(NamedTuple):
    """An orthonormal basis V of one symmetry sector of the Pauli basis:
    column a of V holds phase[g, a] / 2^(k/2) at Pauli pos[g, a], for the
    2^k elements g of the radical, with pos[0] the orbit representatives.
    phase is +-1 where the sector is its own complex conjugate and +-1, +-i
    where it is ``paired``: then conj(V) spans a further sector, which is
    not listed."""

    pos: np.ndarray
    phase: np.ndarray
    paired: bool

    def block(self, M) -> np.ndarray:
        """V^dag M V for a d^2 x d^2 matrix M that commutes with the
        radical's left multiplications, as every ``pauli_term_matrix`` does:
        M V lies in the sector, so its coefficients are read off at the
        representatives, (M V)[pos[0]] 2^(k/2)."""
        return sum(M[np.ix_(self.pos[0], self.pos[h])] * self.phase[h]
                   for h in range(len(self.pos)))


def pauli_sectors(H: HamiltonianDecomposition) -> list:
    """Each ``pauli_cosets`` block split into symmetry sectors, as a list of
    ``PauliSector``; every matrix ``pauli_term_matrix`` builds is block
    diagonal over them.

    The radical is the part of the span of the term masks that commutes with
    every term, with echelon generators s_1..s_k (XXXX on the 4-qubit
    Heisenberg chain).  Left multiplication M_i by sigma_{s_i} commutes with
    each term's action and keeps each coset, and the M_i commute and square
    to I.  Their joint eigenspace of signs eps in a coset has the basis
    vectors 2^(-k/2) sum_g eps^g M^g e_q over the orbits q ^ radical, with q
    the orbit's ``_reduce`` representative.  M_i e_q = i^e e_{q ^ s_i}, with
    i^e = +-1 where sigma_q commutes with sigma_{s_i} and +-i where it
    anticommutes.  So a coset that commutes with the whole radical has 2^k
    real sectors; any other coset's sectors come in complex-conjugate pairs,
    eps and eps flipped on the anticommuting generators, and only the first
    of each pair is listed.  With a trivial radical the sectors are the
    cosets, with phase 1.
    """
    n = H.n_qubits
    cosets = pauli_cosets(H)
    span = cosets[0]   # the coset of 0
    central = (_product_phase(_term_masks(H)[:, None], span, n) & 1 == 0).all(axis=0)
    radical = _gf2_basis(span[central])
    pos = cosets[_reduce(cosets, radical) == cosets].reshape(len(cosets), 1, -1)
    phase = np.ones(pos.shape, dtype=complex)
    signs = np.ones((1, 1))   # eps^g over sector labels eps and elements g
    anti = np.zeros(len(cosets), dtype=int)   # bit i: the coset anticommutes with s_i
    for i, s in enumerate(radical):   # g's bit i is the new leading bit
        i_power = np.array([1, 1j, -1, -1j])[_product_phase(s, pos, n)]
        phase = np.concatenate([phase, phase * i_power], axis=1)
        pos = np.concatenate([pos, pos ^ s], axis=1)
        signs = np.kron([[1, 1], [1, -1]], signs)
        anti |= (_product_phase(s, cosets[:, 0], n) & 1) << i
    labels = np.arange(len(signs))
    sectors = []
    for c in range(len(cosets)):
        for eps in labels[labels <= labels ^ anti[c]]:
            v = signs[eps][:, None] * phase[c]
            sectors.append(PauliSector(pos[c], v if anti[c] else v.real, bool(anti[c])))
    return sectors


def _step_angle(H: HamiltonianDecomposition, t) -> np.ndarray:
    """theta = lam t; raises OverflowError where 2 theta is not finite, as sin would be NaN."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        bad = t[~np.isfinite(2.0 * (H.lam * t))]
    if bad.size:
        raise OverflowError(f"step angle 2 lam t is not finite at t = {float(bad[0])!r}")
    return H.lam * t


def _step_weights(H: HamiltonianDecomposition, t):
    """(diag, off), each (..., L), of ``pauli_term_matrix`` for Delta at step
    time t: -2 p_j sin^2(theta) and p_j sin(2 theta)."""
    p = H.probabilities
    theta = _step_angle(H, t)[..., None]
    return -2.0 * p * np.sin(theta) ** 2, p * np.sin(2.0 * theta)


def channel_delta(H: HamiltonianDecomposition, t) -> np.ndarray:
    """Delta = R - I, with R the Pauli transfer matrix of one step of time t;
    an array of step times gives the stack of their Deltas.

    exp(-i theta s P) sigma_q exp(i theta s P) is sigma_q where P commutes
    with sigma_q, and cos(2 theta) sigma_q + sin(2 theta) (-i s P sigma_q)
    where it anticommutes; theta = lam t.  Delta holds cos(2 theta) - 1 as
    -2 sin^2(theta), which keeps its digits where cos(2 theta) rounds to 1.
    """
    return pauli_term_matrix(H, *_step_weights(H, t))


def _pauli_table(n: int):
    """sigma_q |s> = i^(x.z) (-1)^(s.z) |s ^ x> for q = x d + z, as the
    (d, d) tables s ^ x over [x, s], (-1)^(s.z) / sqrt(d) over [s, z] and
    i^(x.z) over [x, z]."""
    s = np.arange(1 << n)
    dots = popcount(s[:, None] & s, n)
    sign = (1 - 2 * (dots & 1)) / np.sqrt(1 << n)
    return s ^ s[:, None], sign, np.array([1, 1j, -1, -1j])[dots % 4]


def _pauli_coefficients(M) -> np.ndarray:
    """tr(sigma_q M) / sqrt(d) over q = x d + z, (..., d^2), of a d x d matrix
    or a stack (..., d, d): sum_s M[s, s ^ x] (-1)^(s.z), times i^(x.z).
    O(d^3), with no d^2 x d^2 basis."""
    flip, sign, phase = _pauli_table(M.shape[-1].bit_length() - 1)
    c = phase * (M[..., np.arange(len(flip)), flip] @ sign)
    return c.reshape(M.shape[:-2] + (-1,))


def _pauli_operator(c) -> np.ndarray:
    """sum_q c_q sigma_q / sqrt(d) for coefficients (..., d^2): the inverse
    of ``_pauli_coefficients``, filling M[s ^ x, s] for each x."""
    flip, sign, phase = _pauli_table((c.shape[-1].bit_length() - 1) // 2)
    M = np.zeros(c.shape[:-1] + flip.shape, dtype=complex)
    M[..., flip, np.arange(len(flip))] = (c.reshape(M.shape) * phase) @ sign
    return M


def pauli_basis(n_qubits: int) -> np.ndarray:
    """B whose column q = x d + z is vec(sigma_q) / sqrt(d); B is unitary,
    and B^dag S B is real for every Hermiticity-preserving S."""
    sigma = _pauli_operator(np.eye(4 ** n_qubits))
    return sigma.transpose(0, 2, 1).reshape(len(sigma), -1).T


def channel_superoperator(H: HamiltonianDecomposition, t: float) -> np.ndarray:
    """sum_j p_j conj(U_j) (x) U_j with U_j = exp(-i lam t H_j), as
    B (I + Delta) B^dag."""
    R = channel_delta(H, t)
    R[np.diag_indices_from(R)] += 1.0
    B = pauli_basis(H.n_qubits)
    return B @ R @ B.conj().T


def _pauli_powers(H: HamiltonianDecomposition, v0, T: float, counts: list) -> np.ndarray:
    """The rows (I + Delta_N)^N v0, Delta_N = ``channel_delta(H, T/N)``, for
    each N of ``counts`` (which must not increase), v0 a real Pauli vector.

    Up to SUPEROP_QUBIT_CAP qubits one square-and-multiply runs over the
    (node x coset) stack of ``pauli_cosets`` blocks: R^(2^k) = I + Delta_k,
    so each squaring is Delta <- 2 Delta + Delta^2 and each set bit of N one
    v <- v + Delta v; the nodes with bits left stay a prefix of the stack,
    which is cut to them before each squaring.  Above the cap each node
    steps N times with no matrix, v <- v + dv v + sum_j w_j v[target_j] over
    ``_pauli_action``, with dv = diag @ |sign| and w_j = -off_j sign_j.
    """
    if v0.size != H.dim ** 2:
        raise ValueError(f"state has {v0.size} Pauli coefficients, H has {H.dim ** 2}")
    if H.n_qubits > SUPEROP_QUBIT_CAP:
        target, sign = _pauli_action(H)
        out = np.repeat(v0[None], len(counts), axis=0)
        for v, N in zip(out, counts):
            diag, off = _step_weights(H, T / N)
            dv, w = diag @ np.abs(sign), -off[:, None] * sign
            for _ in range(N):
                v += dv * v + np.einsum("jq,jq->q", w, v[target])
        return out
    cosets = pauli_cosets(H)
    delta = channel_delta(H, np.array([T / N for N in counts]))
    delta = delta[:, cosets[:, :, None], cosets[:, None, :]]
    v = np.repeat(v0[cosets][None], len(counts), axis=0)
    n = list(counts)
    while True:
        bit = np.array([N & 1 for N in n], dtype=float)[:, None, None]
        v[:len(n)] += bit * np.matmul(delta, v[:len(n), ..., None])[..., 0]
        n = [N >> 1 for N in n if N > 1]
        if not n:
            break
        delta = delta[:len(n)]
        delta = 2.0 * delta + np.matmul(delta, delta)
    out = np.empty((len(counts), v0.size))
    out[:, cosets] = v
    return out


def channel_iterate_exact(H: HamiltonianDecomposition, rho0, T: float, N: int) -> np.ndarray:
    """N exact channel applications with step time T/N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    v0 = _pauli_coefficients(check_density_matrix(rho0)).real
    return _pauli_operator(_pauli_powers(H, v0, T, [N])[0])


def node_values_exact(H: HamiltonianDecomposition, A, rho0, T: float, step_counts) -> np.ndarray:
    """Noiseless f_A(1/N) = tr[A E^N(rho0)] with step time T/N for each N of
    ``step_counts``, in the order given; a repeated N is evaluated once.

    All nodes share one ``_pauli_powers`` call, and each value is a . v with
    a_q = tr(A sigma_q) / sqrt(d).
    """
    A = require_hermitian(A)
    counts = [int(N) for N in step_counts]
    if not counts or min(counts) < 1:
        raise ValueError(f"N must be >= 1, got {counts}")
    v0, a = _pauli_coefficients(np.stack([check_density_matrix(rho0), A]))
    distinct = sorted(set(counts), reverse=True)
    values = _pauli_powers(H, v0.real, T, distinct) @ a
    bad = np.abs(values.imag) > IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(values))
    if bad.any():
        raise ArithmeticError(f"expectation has imaginary residue {values.imag[bad][0]:.3e}")
    position = {N: k for k, N in enumerate(distinct)}
    return values.real[[position[N] for N in counts]]


def expectation_exact(H: HamiltonianDecomposition, A, rho0, T: float, N: int) -> float:
    """Noiseless f_A(1/N) = tr[A E^N(rho0)] with step time T/N."""
    return float(node_values_exact(H, A, rho0, T, [N])[0])


def exact_expectation(H: HamiltonianDecomposition, A, rho0, T: float) -> float:
    """Zero-step-size limit tr[A e^{-iHT} rho0 e^{iHT}] via eigendecomposition."""
    A = require_hermitian(A)
    rho0 = check_density_matrix(rho0)
    U = unitary_exp(H.dense(), T)
    val = complex(np.trace(A @ U @ rho0 @ U.conj().T))
    return val.real


def unit_state(psi0) -> np.ndarray:
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if abs(np.linalg.norm(psi) - 1.0) > UNIT_NORM_TOL:
        raise ValueError("initial state is not unit norm")
    return psi


_GROUP_TABLE_CAP = 4096


def grouped_step_unitaries(unitaries, group: int) -> np.ndarray:
    """Products of ``group`` consecutive step unitaries for every index tuple.

    Entry ``code`` holds U[i_{g-1}] @ ... @ U[i_0] where
    code = i_0 + L i_1 + ... + L^(g-1) i_{g-1} (first-applied term least
    significant).
    """
    table = unitaries
    for _ in range(group - 1):
        # new[j, c] = U[j] @ table[c]; flattening keeps j most significant
        table = np.matmul(unitaries[:, None, :, :], table[None, :, :, :])
        table = table.reshape(-1, *unitaries.shape[1:])
    return table


def _auto_group(L: int, d: int, N: int) -> int:
    """Steps folded into one table product; 1 means Pauli gates only.

    A table product costs O(d^2) per group of steps and a Pauli gate O(d)
    per step, so the table is kept only while d <= 2 * group: at d = 4 with
    up to 64 terms and at d = 8 with up to 8.  Beyond that the Pauli gates
    measured faster, 1.2-3.8x at d = 16 and 3.5-13x at d = 32.
    """
    group = 1
    while (
        group < 6
        and L ** (group + 1) <= _GROUP_TABLE_CAP
        and N >= 4 * (group + 1)
    ):
        group += 1
    return group if d <= 2 * group else 1


def _group_codes(indices, L: int, group: int, n_groups: int) -> np.ndarray:
    """(B, n_groups) table codes of the first n_groups * group steps, in the
    smallest integer type that holds L^group, read straight from ``indices``."""
    codes = np.zeros((indices.shape[0], n_groups), dtype=np.min_scalar_type(L ** group - 1))
    stop = n_groups * group
    for k in range(group - 1, -1, -1):
        codes *= L
        np.add(codes, indices[:, k:stop:group], out=codes, casting="unsafe")
    return codes


def evolve_indexed_batch(psis, gates: PauliRotations, indices) -> np.ndarray:
    """Evolve a batch of states, each under its own index sequence.

    psis: (B, d), gates: the step's Pauli rotations over L terms, indices:
    (B, N) in [0, L).  Each step is one batched gather plus an axpy.  When
    the term count and dimension are small, consecutive steps are first
    folded into a precomputed product table; the grouping is fixed by
    (L, d, N), so results stay deterministic for given indices.
    """
    out = np.array(psis, dtype=complex, copy=True)
    L, d = gates.perm.shape
    B, N = indices.shape
    if indices.size and not 0 <= indices.min() <= indices.max() < L:
        raise ValueError(f"term indices must lie in [0, {L})")
    group = _auto_group(L, d, N)
    start = 0
    if group > 1:
        table = grouped_step_unitaries(gates.dense(), group)
        n_groups = N // group
        start = n_groups * group
        codes = _group_codes(indices, L, group, n_groups)
        for i in range(n_groups):
            out = np.einsum("bij,bj->bi", table[codes[:, i]], out)
    if start == N:
        return out
    offsets = np.arange(0, B * d, d)[:, None]
    src = np.empty((B, d), dtype=np.intp)
    gathered = np.empty_like(out)
    coef = np.empty_like(out)
    # Indices are range-checked above, so "clip" only skips take's bounds
    # buffering.
    for i in range(start, N):
        col = indices[:, i]
        np.take(gates.perm, col, axis=0, out=src, mode="clip")
        src += offsets
        np.take(out, src, out=gathered, mode="clip")
        np.take(gates.coef, col, axis=0, out=coef, mode="clip")
        gathered *= coef
        out *= gates.cos
        out += gathered
    return out


class ObservableMeasurer:
    """Projective sampling in the eigenbasis of a Hermitian observable.

    Eigenvalues within DEGENERACY_TOL of each other are merged into a single
    projector so degenerate outcomes are never split.
    """

    def __init__(self, A):
        w, V = hermitian_eig(A)
        splits = np.nonzero(np.diff(w) > DEGENERACY_TOL)[0] + 1
        groups = np.split(np.arange(w.size), splits)
        self.values = np.array([w[g].mean() for g in groups])
        self._blocks = [np.ascontiguousarray(V[:, g]) for g in groups]
        self.norm = float(np.abs(w).max())

    def sample_batch(self, psis, uniforms) -> np.ndarray:
        """One outcome per row of psis, driven by one uniform per row."""
        psis = np.asarray(psis, dtype=complex)
        probs = np.stack(
            [np.sum(np.abs(psis @ block.conj()) ** 2, axis=1) for block in self._blocks],
            axis=1,
        )
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        idx = np.sum(cum <= uniforms[:, None], axis=1)
        idx = np.minimum(idx, self.values.size - 1)
        return self.values[idx]


def index_dtype(L: int):
    """Narrowest type ``sample_shots`` stores term indices in."""
    return np.uint8 if L < 256 else np.int64


def shot_chunk(L: int, N: int) -> int:
    """Shots evolved as one batch: at most SHOT_CHUNK, and few enough that
    their (B, N) term indices fit in CHUNK_INDEX_BYTES."""
    row_bytes = N * np.dtype(index_dtype(L)).itemsize
    return max(1, min(SHOT_CHUNK, CHUNK_INDEX_BYTES // max(row_bytes, 1)))


def sample_shots(H: HamiltonianDecomposition, A, initial_state, T: float, N: int,
                 shots: int, seed: int, node: int = 0) -> np.ndarray:
    """One measured outcome of A for each of ``shots`` qDRIFT runs of N steps
    of time T/N from ``initial_state`` (a unit vector or a density matrix).
    A is a Hermitian matrix or its ``ObservableMeasurer``.

    Shot k draws from substream(seed, node, k) in a fixed order: the
    measurement uniform, the initial-state uniform (used for mixed states
    only), then the N term uniforms.  The pipeline's node j is ``node=j``;
    the CLI's ``qdrift`` is node 0.  Shots are evolved in chunks of
    ``shot_chunk(L, N)``, which does not change any outcome.
    """
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    gates = H.pauli_rotations(float(_step_angle(H, T / N)))
    measurer = A if isinstance(A, ObservableMeasurer) else ObservableMeasurer(A)
    mixed = np.ndim(initial_state) == 2
    if mixed:
        rho0 = check_density_matrix(initial_state)
        evals, evecs = np.linalg.eigh((rho0 + rho0.conj().T) / 2.0)
        keep = evals > 1e-12
        pops = evals[keep] / evals[keep].sum()
        pop_cdf = np.cumsum(pops)
        pop_cdf[-1] = 1.0
        basis = evecs[:, keep]
    else:
        psi0 = unit_state(initial_state)
    values = np.empty(shots)
    idx_dtype = index_dtype(len(H))
    chunk = shot_chunk(len(H), N)
    for start in range(0, shots, chunk):
        stop = min(start + chunk, shots)
        B = stop - start
        indices = np.empty((B, N), dtype=idx_dtype)
        u_meas = np.empty(B)
        u_init = np.empty(B)
        for b in range(B):
            rng = substream(seed, node, start + b)
            u_meas[b] = rng.random()
            u_init[b] = rng.random()
            indices[b] = H.sample_terms(rng, N)
        if mixed:
            choice = np.minimum(
                np.sum(pop_cdf[None, :] <= u_init[:, None], axis=1), pops.size - 1
            )
            psis = basis.T[choice]
        else:
            psis = np.broadcast_to(psi0, (B, psi0.size))
        finals = evolve_indexed_batch(psis, gates, indices)
        values[start:stop] = measurer.sample_batch(finals, u_meas)
    return values
