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
that commute with every term (4 sectors of 64 on the chain, split by XXXX),
and of the relabellings by the qubit involutions that map H to itself (the
chain's reflection splits them into blocks of 40, 24 and 32).  The
generator analysis eigensolves per sector, 6 blocks of at most 40 on the
chain; the powering below stays on the cosets.  None of these tables
depends on the step time: each Hamiltonian builds its term action
(``_pauli_action``), its cosets and its gate gathers once, on first use,
and keeps them read-only while it lives
(``HamiltonianDecomposition.derived``).  The term action, (L, d^2) int8
signs, is the largest: 17 KB at 5 qubits, 1.9 MB at 8 and 39 MB at 10 on
the Heisenberg chain.  It is built in chunks of terms whose int64 phases
number at most TILE_AMPLITUDES, so its build peaks at 5.8 MiB at 8 qubits.

Exact node values tr[A E^N(rho0)] (``node_values_exact``, one call for all
nodes of a run) are a . v for real Pauli vectors from the O(d^3) transform
``_pauli_coefficients``.  Up to SUPEROP_QUBIT_CAP qubits v = R^N v0 comes
from one square-and-multiply, Delta <- 2 Delta + Delta^2, over the stacked
(node x coset) blocks, at O(L d^2 + (d^6 / C^2) log N) per node for C
cosets; above it each node sums a binomial series, at O(lam T L d^2).
On the two-qubit benchmark the powered values agree with 40-digit
references to 2e-16 at N = 806 and N = 105345.

A shot is one qDRIFT run followed by one measurement, and ``sample_shots``
is the only shot sampler, one call for all nodes: the CLI's ``qdrift``
shots are its row 0, the pipeline's node 0.  Its trajectories run on one
engine, ``evolve_indexed_batch``: a batch of states, each under its own
sequence of term indices, advanced by O(d) Pauli gates (a gather and an axpy
per step) whatever the number of terms.  Each gate is written
cos (I + (coef / cos) P_j), so a step adds the tan-scaled gather to the
state, and the factor cos goes back in as cos^k once at the end, or once
per stride of k steps where |cos|^-N would pass 2^64.  At d <= 4
(``_auto_group``) runs of consecutive steps are first folded into a table
of dense step products, built once per engine call, so once per tile:
``sample_shots`` builds the gates once per node and passes the engine
tiles of at most 2^14 / d states, so that a step's arrays stay in cache.
Measured on a shared 2-core x86-64 host with one BLAS thread, on one tile
of states copied from one broadcast vector in C order, with 4-8 terms at
d <= 8 (N = 300 and 3000) and 17 at d >= 16 (there also on 176 states),
in ns/gate, interleaved medians of 7; the table at d = 8 is no longer
built, and the table row dates from before cos was folded out of the
Pauli steps:

    d          4        8        16        32         64
    table    21-32    67-91        -         -          -
    Pauli    22-35    45-46     69-83    121-136    231-252

Randomness is organized as counter-based substreams: every (seed, path)
pair maps to an independent PCG64 stream through numpy's SeedSequence
spawn keys.  Node j draws from the one stream substream(seed, j), and its
shot k reads uniforms [k (N + 2), (k + 1) (N + 2)) of it, so a shot's
outcome does not depend on how the others are tiled or drawn.  PCG64 jumps
ahead in O(log n) (O'Neill, HMC-CS-2014-0905; ``PCG64.advance``), so a
fresh stream advanced by k (N + 2) replays shot k alone.  The sampler
draws each tile's rows as slabs of at most TILE_AMPLITUDES uniforms, 128
KiB, and looks up a whole slab's terms in one call; a row longer than that
is drawn alone.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from typing import NamedTuple

import numpy as np

from .hamiltonian import DimensionCapError, HamiltonianDecomposition, PauliRotations, popcount
from .linalg import check_density_matrix, hermitian_eig, require_hermitian, unitary_exp

UNIT_NORM_TOL = 1e-10
TILE_AMPLITUDES = 2 ** 14
CHUNK_INDEX_BYTES = 2 ** 27
DEGENERACY_TOL = 1e-9
IMAG_RESIDUE_TOL = 1e-10
SUPEROP_QUBIT_CAP = 4
_GROUP_TABLE_CAP = 4096


def substream(seed: int, *path: int) -> np.random.Generator:
    """Independent generator for (seed, path) via SeedSequence spawn keys:
    substream(seed, j) is the stream of node j of ``sample_shots``."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=path))


def _term_masks(H: HamiltonianDecomposition) -> np.ndarray:
    """(L,) Pauli indices p_j = x_j d + z_j of the terms' masks."""
    return H.x_masks * H.dim + H.z_masks


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


def _pauli_action(H: HamiltonianDecomposition) -> np.ndarray:
    """(L, d^2) int8 signs over Paulis q = x d + z: where term j
    anticommutes with sigma_q, -i s_j P_j sigma_q = sign[j, q] sigma_{q ^ p_j}
    with sign +-1; where they commute, sign is 0.  Built in chunks of terms
    whose phases number at most TILE_AMPLITUDES, so that the int64
    temporaries stay small next to the signs kept."""
    masks, q = _term_masks(H), np.arange(H.dim ** 2)
    # -i i^e for odd e; even e (commuting) gives no action
    action = np.array([0, 1, 0, -1], dtype=np.int8)
    sign = np.empty((len(H), q.size), dtype=np.int8)
    rows = max(1, TILE_AMPLITUDES // q.size)
    for start in range(0, len(H), rows):
        chunk = slice(start, start + rows)
        e = _product_phase(masks[chunk, None], q, H.n_qubits)
        sign[chunk] = action[e] * H.signs[chunk, None]
    return sign


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
    sign = H.derived(_pauli_action)
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    d2 = H.dim ** 2
    cols = np.arange(d2)
    target = _term_masks(H)[:, None] ^ cols
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
    column a of V is sum_g phase[g, a] e_{pos[g, a]}, divided by the square
    root of the number of its nonzero phases, with pos[0] the orbit
    representatives, where phase is 1.  The columns cover disjoint Paulis;
    where a column covers fewer than the widest, phase 0 pads it, at its
    representative.  phase is +-1 where the sector is its own complex
    conjugate and +-1, +-i where it is ``paired``: then conj(V) spans a
    further sector, which is not listed."""

    pos: np.ndarray
    phase: np.ndarray
    paired: bool

    def block(self, M) -> np.ndarray:
        """V^dag M V for a d^2 x d^2 matrix M that keeps the sector, as every
        ``pauli_term_matrix`` does: M V lies in the sector, so its
        coefficients are read off at the representatives, as (M V)[pos[0]]
        times each row's column norm.  One gather for all rows of pos."""
        B = sum(M[self.pos[0][:, None], self.pos[:, None, :]] * self.phase[:, None, :])
        width = np.count_nonzero(self.phase, axis=0)
        if width.min() < width.max():   # the column norms differ
            B = B * np.sqrt(width[:, None] / width)
        return B


def _radical(H: HamiltonianDecomposition) -> list:
    """Echelon generators of the radical: the Paulis of the span of the term
    masks that commute with every term."""
    span = H.derived(pauli_cosets)[0]   # the coset of 0
    central = (_product_phase(_term_masks(H)[:, None], span, H.n_qubits) & 1 == 0).all(axis=0)
    return _gf2_basis(span[central])


def _permute_qubits(q, perm, n: int):
    """The Pauli indices q = x d + z with qubit i's letter moved to qubit
    perm[i]; a relabelling of qubits maps sigma_q to that Pauli with no
    phase."""
    out = q & 0
    for i, j in enumerate(perm):
        for shift in (n, 0):
            out |= ((q >> (shift + n - 1 - i)) & 1) << (shift + n - 1 - j)
    return out


def _compose(p, q) -> tuple:
    return tuple(p[i] for i in q)


def _qubit_involutions(H: HamiltonianDecomposition) -> tuple:
    """The qubit involutions that split ``pauli_sectors``, as permutation
    tuples: a maximal commuting set, chosen greedily in lexicographic order
    among the involutions pi that map H to itself, each term to a term with
    a bit-identical signed coefficient (as multisets, so duplicate terms
    count), that keep every coset of ``pauli_cosets`` and fix every radical
    Pauli, and that are not products of those already chosen.  Symmetries
    that are not involutions, such as 3-cycles and ring translations, are
    not used: their characters are not real."""
    n = H.n_qubits
    masks = _term_masks(H)
    coefficients = list(zip(H.weights.tolist(), H.signs.tolist()))
    terms = sorted(zip(masks.tolist(), coefficients))
    basis = _gf2_basis(masks)
    q = np.arange(H.dim ** 2)
    labels = _reduce(q, basis)
    radical = _radical(H)
    identity = tuple(range(n))
    chosen, group = [], {identity}
    for perm in itertools.permutations(range(n)):
        if (perm in group or _compose(perm, perm) != identity
                or any(_compose(perm, p) != _compose(p, perm) for p in chosen)):
            continue
        image = _permute_qubits(masks, perm, n).tolist()
        if (sorted(zip(image, coefficients)) == terms
                and np.array_equal(_reduce(_permute_qubits(q, perm, n), basis), labels)
                and all(_permute_qubits(s, perm, n) == s for s in radical)):
            chosen.append(perm)
            group |= {_compose(g, perm) for g in group}
    return tuple(chosen)


def _split(sector: PauliSector, perm, n: int) -> list:
    """The +1 and -1 eigenspaces, those not empty, of the relabelling S of
    the qubit involution ``perm`` in ``sector``, as ``PauliSector`` s.  S
    keeps the sector and maps its column v_a to c v_b, |c| = 1, with b the
    column that holds pi(pos[0, a]): a pair of columns a < b becomes
    (v_a +- S v_a) / sqrt(2), and a column with b = a stays in the
    eigenspace of c = +-1, its phase at pi(pos[0, a])."""
    pos, phase = sector.pos, sector.phase
    cols = np.arange(pos.shape[1])
    filled = phase != 0
    owner = np.zeros(1 << 2 * n, dtype=int)
    owner[pos[filled]] = np.broadcast_to(cols, pos.shape)[filled]
    image = _permute_qubits(pos, perm, n)
    partner = owner[image[0]]
    pair = partner > cols
    c = phase[((pos == image[0]) & filled).argmax(axis=0), cols].real
    both = np.concatenate([pos, np.where(pair, image, pos[0])])
    sectors = []
    for eps in (1, -1):
        keep = pair | ((partner == cols) & (eps * c > 0))
        v = np.concatenate([phase, np.where(pair, eps * phase, 0)])[:, keep]
        rows = (v != 0).any(axis=1)
        if keep.any():
            p = both[rows][:, keep]
            sectors.append(PauliSector(np.where(v[rows] != 0, p, p[0]), v[rows], sector.paired))
    return sectors


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

    Each sector is then split, in turn, into the +1 and -1 eigenspaces of
    the relabelling S of each of H's ``_qubit_involutions``: S maps H to
    itself, so it commutes with ad_H and every Delta, and it fixes the
    radical, so it keeps each sector.  Its characters are real, so real
    sectors stay real and a paired sector's split pairs with its
    conjugate's.  The 4-qubit chain's reflection i <-> 3 - i splits its
    three sectors of 64 into 40 + 24, 32 + 32 and a pair of 32 + 32.  With
    no such involution the sectors are the radical's alone.
    """
    n = H.n_qubits
    if n > SUPEROP_QUBIT_CAP:
        raise DimensionCapError(
            f"symmetry sectors capped at {SUPEROP_QUBIT_CAP} qubits, got {n}")
    cosets = H.derived(pauli_cosets)
    radical = _radical(H)
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
    for perm in _qubit_involutions(H):
        sectors = [part for sector in sectors for part in _split(sector, perm, n)]
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
    takes pieces of n steps, v <- sum_{k <= 27} C(n, k) Delta^k v: with n b
    <= 2, b the largest row sum of |Delta|, term k is below 2^k / k!, so the
    tail is below 2^-64 (none for n <= 27), and a node takes about lam T
    pieces.  u[q ^ p_j] in Delta u is a flip of u, (2,) * 2n, over p_j's bits.
    """
    if H.n_qubits > SUPEROP_QUBIT_CAP:
        m = 2 * H.n_qubits
        sign = H.derived(_pauli_action).reshape((len(H),) + (2,) * m)
        flips = [tuple(k for k in range(m) if p >> (m - 1 - k) & 1) for p in _term_masks(H)]
        out = []
        for N in counts:
            diag, off = _step_weights(H, T / N)
            b = np.abs(off).sum() - diag.sum()   # sum_j p_j (2 sin^2 theta + |sin 2 theta|)
            n = N if b * N <= 2.0 else max(1, int(2.0 / b))
            dv = sum(d_j * (s != 0) for d_j, s in zip(diag, sign))
            v = v0.reshape(sign.shape[1:])
            for first in range(0, N, n):
                piece = min(n, N - first)
                term, v = v, v.copy()
                for k in range(1, min(27, piece) + 1):
                    term = dv * term - sum(w * s * np.flip(term, axes)
                                           for w, s, axes in zip(off, sign, flips))
                    term *= (piece - k + 1) / k
                    v += term
            out.append(v.reshape(-1))
        return np.array(out)
    cosets = H.derived(pauli_cosets)
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


def unit_state(psi0) -> np.ndarray:
    psi = np.asarray(psi0, dtype=complex).reshape(-1)
    if not abs(np.linalg.norm(psi) - 1.0) <= UNIT_NORM_TOL:   # NaN fails too
        raise ValueError("initial state is not a finite unit vector")
    return psi


def _require_shapes(H: HamiltonianDecomposition, state, A=None):
    """Refuse a state not of shape (d,) or (d, d), then an observable, if given, not (d, d)."""
    d = H.dim
    for what, value, fits in (("state", state, [(d,), (d, d)]), ("observable", A, [(d, d)])):
        if value is not None and np.shape(value) not in fits:
            shape = np.shape(value)
            raise ValueError(f"{what} has shape {shape}, {np.prod(shape[:1], dtype=int) ** 2} Pauli "
                             f"coefficients, where H needs {' or '.join(map(str, fits))}, {d * d}")


def _density_matrix(state) -> np.ndarray:
    """The checked density matrix of ``state``: a density matrix as given,
    or |psi><psi| for a ``unit_state`` psi, the shot sampler's rule."""
    if np.ndim(state) == 2:
        return check_density_matrix(state)
    psi = unit_state(state)
    return np.outer(psi, psi.conj())


def _integer(value, least: int = 1, name: str = "N") -> int:
    """``value`` as an int; ValueError unless ``operator.index`` takes it and it is >= least."""
    with contextlib.suppress(TypeError):
        if operator.index(value) >= least:
            return operator.index(value)
    raise ValueError(f"{name} must be >= {least} and an integer, got {value}")


def _step_counts(step_counts) -> list:
    """``step_counts`` as ints, each by ``_integer``; ValueError for none."""
    counts = [_integer(N) for N in step_counts]
    if not counts:
        raise ValueError("N must be >= 1 and an integer, got no step count")
    return counts


def channel_iterate_exact(H: HamiltonianDecomposition, rho0, T: float, N: int) -> np.ndarray:
    """N exact channel applications with step time T/N to rho0, a density
    matrix or a state vector; returns the density matrix."""
    counts = _step_counts([N])
    _require_shapes(H, rho0)
    v0 = _pauli_coefficients(_density_matrix(rho0)).real
    return _pauli_operator(_pauli_powers(H, v0, T, counts)[0])


def node_values_exact(H: HamiltonianDecomposition, A, rho0, T: float, step_counts) -> np.ndarray:
    """Noiseless f_A(1/N) = tr[A E^N(rho0)] with step time T/N for each N of
    ``step_counts``, in the order given; a repeated N is evaluated once.
    rho0 is a density matrix or a state vector.

    All nodes share one ``_pauli_powers`` call, and each value is a . v with
    a_q = tr(A sigma_q) / sqrt(d).
    """
    _require_shapes(H, rho0, A)
    A = require_hermitian(A)
    counts = _step_counts(step_counts)
    v0, a = _pauli_coefficients(np.stack([_density_matrix(rho0), A]))
    distinct = sorted(set(counts), reverse=True)
    values = _pauli_powers(H, v0.real, T, distinct) @ a
    bad = np.abs(values.imag) > IMAG_RESIDUE_TOL * np.maximum(1.0, np.abs(values))
    if bad.any():
        raise ArithmeticError(f"expectation has imaginary residue {values.imag[bad][0]:.3e}")
    return values.real[[distinct.index(N) for N in counts]]


def expectation_exact(H: HamiltonianDecomposition, A, rho0, T: float, N: int) -> float:
    """Noiseless f_A(1/N) = tr[A E^N(rho0)] with step time T/N."""
    return float(node_values_exact(H, A, rho0, T, [N])[0])


def exact_expectation(H: HamiltonianDecomposition, A, rho0, T: float) -> float:
    """Zero-step-size limit tr[A e^{-iHT} rho0 e^{iHT}] via eigendecomposition;
    rho0 is a density matrix or a state vector."""
    _require_shapes(H, rho0, A)
    A = require_hermitian(A)
    rho0 = _density_matrix(rho0)
    U = unitary_exp(H.dense(), T)
    return complex(np.trace(A @ U @ rho0 @ U.conj().T)).real


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

    The table is built only at d <= 4, where it measured faster per gate (the
    module docstring's table) and 1.07-1.26x faster end to end on the
    two-qubit benchmark.  At d = 8 it was slower in every case measured: end
    to end, 1.09-1.13x the Pauli time on a 3-qubit, 4-term Hamiltonian.
    """
    group = 1
    while (
        group < 6
        and L ** (group + 1) <= _GROUP_TABLE_CAP
        and N >= 4 * (group + 1)
    ):
        group += 1
    return group if d <= 4 else 1


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
    (B, N) in [0, L).  Each step is a gather and an axpy: the gate is
    cos (I + (coef / cos) P_j), so a step adds (coef / cos) psi[perm] to
    psi, and the factor cos goes back in as one multiply by cos^k per
    stride of k steps (``_fold_stride``).  The Pauli steps read their term
    indices through one (K, B) intp buffer, K = TILE_AMPLITUDES // B,
    refilled once per K steps, so that a step's gathers take a contiguous
    intp row and do not convert a strided column of ``indices``.  At d <= 4
    consecutive steps are first folded into a product table, built once per
    call; the grouping is fixed by (L, d, N), so results stay deterministic
    for given indices.  Gates with cos = 0 cannot be folded and are refused.
    """
    # C order: a broadcast or Fortran-ordered input would otherwise stay
    # strided, and every step's flat gather would copy the whole batch
    out = np.array(psis, dtype=complex, order="C")
    L, d = gates.perm.shape
    B, N = indices.shape
    if indices.size and not 0 <= indices.min() <= indices.max() < L:
        raise ValueError(f"term indices must lie in [0, {L})")
    if gates.cos == 0:
        raise ValueError("gates with cos 0 cannot be folded into tan-scaled steps")
    group = _auto_group(L, d, N)
    start = 0
    # Indices are range-checked above, so "clip" only skips take's bounds
    # buffering.  The loops call bound ``take`` methods and write every
    # product into a buffer allocated once: at these batch sizes numpy's
    # per-call overhead is a large share of a step.
    if group > 1:
        table = grouped_step_unitaries(gates.dense(), group)
        n_groups = N // group
        start = n_groups * group
        codes = _group_codes(indices, L, group, n_groups)
        take_products = table.take
        products = np.empty((B, d, d), dtype=complex)
        for i in range(n_groups):
            take_products(codes[:, i], axis=0, out=products, mode="clip")
            out = np.einsum("bij,bj->bi", products, out)
    if start == N:
        return out
    # flat positions b d + perm[j, y], with the row offsets b d held as a
    # full (B, d) array: adding a broadcast (B, 1) column cost about 11% of
    # a step more at d = 32
    offsets = np.repeat(np.arange(0, B * d, d), d).reshape(B, d)
    src = np.empty((B, d), dtype=np.intp)
    gathered = np.empty_like(out)
    coef = np.empty_like(out)
    columns = np.empty((max(1, min(TILE_AMPLITUDES // max(B, 1), N - start)), B), dtype=np.intp)
    cos = gates.cos
    take_perm, take_coef, take_amps = gates.perm.take, (gates.coef / cos).take, out.take
    multiply, add = np.multiply, np.add
    stride = _fold_stride(cos, N - start)
    for first in range(start, N, stride):
        last = min(first + stride, N)
        for block in range(first, last, len(columns)):
            cols = columns[:last - block]
            cols[...] = indices[:, block:block + len(cols)].T
            for col in cols:
                take_perm(col, axis=0, out=src, mode="clip")
                add(src, offsets, out=src)
                take_amps(src, out=gathered, mode="clip")
                take_coef(col, axis=0, out=coef, mode="clip")
                multiply(gathered, coef, out=gathered)
                add(out, gathered, out=out)
        multiply(out, cos ** (last - first), out=out)
    return out


def _fold_stride(cos: float, steps: int) -> int:
    """Steps between the multiplies by cos^k that undo the folding of cos
    out of each gate.  Each folded step can grow a state by up to 1 / |cos|:
    all ``steps`` at once when |cos|^-steps <= 2^64, else strides of
    k = floor(44 / -ln|cos|), which grow it by at most e^44 < 2^64, so no
    state overflows; a stride is at least one step."""
    decay = -math.log(abs(cos))
    if decay * steps <= 64 * math.log(2):
        return steps
    return max(int(44 / decay), 1)


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
        self.shape = V.shape   # the observable's, so np.shape reads it

    def sample_batch(self, psis, uniforms) -> np.ndarray:
        """One outcome per row of psis, driven by one uniform per row.
        Raises ArithmeticError for a row whose total probability is not
        finite and positive, a NaN or zero state, which has no outcome."""
        psis = np.asarray(psis, dtype=complex)
        probs = np.stack(
            [np.sum(np.abs(psis @ block.conj()) ** 2, axis=1) for block in self._blocks],
            axis=1,
        )
        cum = np.cumsum(probs, axis=1)
        total = cum[:, -1]
        bad = ~((0 < total) & (total < np.inf))
        if bad.any():
            row = int(np.argmax(bad))
            raise ArithmeticError(f"state {row} has total probability {float(total[row])!r}, "
                                  "not finite and positive; it cannot be measured")
        cum /= total[:, None]
        idx = np.sum(cum <= uniforms[:, None], axis=1)
        idx = np.minimum(idx, self.values.size - 1)
        return self.values[idx]


def shot_chunk(L: int, N: int, d: int) -> int:
    """Shots evolved as one batch, a tile: few enough that their (B, d)
    amplitudes number at most TILE_AMPLITUDES and their (B, N) term indices
    fit in CHUNK_INDEX_BYTES; at least one.

    At 2^14 amplitudes each of the engine's (B, d) working arrays takes
    256 KiB, so a step's arrays stay in a core's L2 cache: 4096 shots at
    d = 4, 512 at d = 32 and 256 at d = 64.  A batch of 4096 cost about
    twice as much per gate at d = 32 and at d = 64."""
    row_bytes = N * np.min_scalar_type(L - 1).itemsize
    return max(1, min(TILE_AMPLITUDES // d, CHUNK_INDEX_BYTES // max(row_bytes, 1)))


def _draw_tile(H: HamiltonianDecomposition, rng, B: int, N: int, index_type):
    """The next B shots of N steps from rng: their measurement and
    initial-state uniforms, (B, 2), and their term indices, (B, N), drawn as
    (R, N + 2) slabs of at most TILE_AMPLITUDES uniforms, each looked up in
    one call.  Returning frees the last slab before the tile is evolved."""
    rows = max(1, TILE_AMPLITUDES // (N + 2))
    heads = np.empty((B, 2))
    indices = np.empty((B, N), dtype=index_type)
    for first in range(0, B, rows):
        slab = rng.random((min(rows, B - first), N + 2))
        heads[first:first + len(slab)] = slab[:, :2]
        indices[first:first + len(slab)] = H.lookup_terms(slab[:, 2:])
    return heads, indices


def sample_shots(H: HamiltonianDecomposition, A, initial_state, T: float, step_counts,
                 shots: int, seed: int) -> np.ndarray:
    """(len(step_counts), shots) outcomes: row j holds one measured outcome of
    A for each of ``shots`` qDRIFT runs of N = step_counts[j] steps of time
    T/N from ``initial_state`` (a unit vector or a density matrix).  A is a
    Hermitian matrix or its ``ObservableMeasurer``.  The measurer, the state's
    check and its eigen-ensemble are built once per call, the gates per row.

    Row j draws from the one stream substream(seed, j), and shot k reads its
    uniforms [k (N + 2), (k + 1) (N + 2)) in a fixed order: the measurement
    uniform, the initial-state uniform, which picks a member of the ensemble
    (a unit vector has one), then the N term uniforms; a repeated N is drawn
    again on its own stream.  Each row's shots are evolved in tiles of
    ``shot_chunk(L, N, d)`` consecutive shots, at most 2^14 / d, so that each
    tile's states stay in cache, and each tile is drawn in slabs of rows
    (``_draw_tile``).  As each shot's uniforms sit at a fixed offset of its
    row's stream, neither the tiling nor the slabs change any outcome.
    """
    counts = _step_counts(step_counts)
    shots, seed = _integer(shots, name="shots"), _integer(seed, 0, "seed")
    _require_shapes(H, initial_state, A)
    angles = _step_angle(H, [T / N for N in counts])
    measurer = A if isinstance(A, ObservableMeasurer) else ObservableMeasurer(A)
    if np.ndim(initial_state) == 2:
        evals, evecs = check_density_matrix(initial_state, eigenpairs=True)
        keep = evals > 1e-12
        pops = evals[keep] / evals[keep].sum()
        basis = evecs[:, keep]
    else:   # a pure state is the one-member ensemble
        pops = np.ones(1)
        basis = unit_state(initial_state)[:, None]
    pop_cdf = np.cumsum(pops)
    pop_cdf[-1] = 1.0
    index_type = np.min_scalar_type(len(H) - 1)
    if max(8 * len(counts) * shots, index_type.itemsize * max(counts)) > np.iinfo(np.intp).max:
        raise OverflowError(f"{shots} shots of up to {max(counts)} steps at {len(counts)} "
                            "nodes pass numpy's largest array")
    values = np.empty((len(counts), shots))
    for node, (N, angle) in enumerate(zip(counts, angles)):
        gates = H.pauli_rotations(float(angle))
        chunk = shot_chunk(len(H), N, H.dim)
        rng = substream(seed, node)
        for start in range(0, shots, chunk):
            stop = min(start + chunk, shots)
            heads, indices = _draw_tile(H, rng, stop - start, N, index_type)
            choice = np.minimum(np.sum(pop_cdf[None, :] <= heads[:, 1:], axis=1), pops.size - 1)
            finals = evolve_indexed_batch(basis.T[choice], gates, indices)
            del indices   # not held while the next tile is drawn
            values[node, start:stop] = measurer.sample_batch(finals, heads[:, 0])
    return values
