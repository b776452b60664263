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
of the relabellings by the qubit involutions that map H to itself (the
chain's reflection splits them into blocks of 40, 24 and 32), and of the
conjugation by a single-qubit Clifford on every qubit that maps H to
itself, a signed permutation of the Paulis of order 2 or 4 (the chain's
rotation X -> X, Y -> Z, Z -> -Y splits those into blocks of 24, 16 and
8).  The generator analysis eigensolves per sector, 12 blocks of at most
24 on the chain; the powering below stays on the cosets.  None of these
tables depends on the step time: each Hamiltonian builds its term action
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
cosets; above it each node sums a binomial series, at O(lam T L d^2), each
product Delta v a few gathers, multiplies and one sum for all L terms at
once, not numpy calls per term.
On the two-qubit benchmark the powered values agree with 40-digit
references to 2e-16 at N = 806 and N = 105345.

A shot is one qDRIFT run followed by one measurement, and ``sample_shots``
is the only shot sampler, one call for all nodes: the CLI's ``qdrift``
shots are its row 0, the pipeline's node 0.  Averaged over its random
gates a run of N steps leaves E^N(rho0) (Campbell, PRL 123, 070503, 2019),
and each shot draws its own gates, so a node's shots are i.i.d. with law
p_k = tr[Pi_k E^N(rho0)], Pi_k the measurer's eigenprojectors.  The
sampler draws them from it (``_law_shots``), with E^N(rho0) for every
distinct N from one ``_pauli_powers`` call, as in ``node_values_exact``,
and one uniform per shot, wherever ``_law_is_cheaper``: always up to
SUPEROP_QUBIT_CAP qubits, where a node costs O(log N) block products;
above it where the series' predicted work, sum over distinct N of
pieces(N) min(27, n) L d^2, is no more than the trajectories',
shots (sum of N) d.  The README's "Shot sampler and trajectory engine"
holds the timings of both paths against this rule and where it errs.
Elsewhere the circuits are simulated (``_trajectory_shots``) on one
engine, ``evolve_indexed_batch``: a batch of states, each under its own
sequence of term indices, advanced by O(d) Pauli gates (a gather and an
axpy per step) whatever the number of terms.  Each gate is written
cos (I + (coef / cos) P_j), so a step adds the tan-scaled gather to the
state, and the factor cos goes back in as cos^k once at the end, or once
per stride of k steps where |cos|^-N would pass 2^64.  The sampler builds
the gates once per node and passes the engine tiles of at most 2^14 / d
states, so that a step's arrays stay in cache; the same README section
holds its measured cost per gate.

Randomness is organized as counter-based substreams: every (seed, path)
pair maps to an independent PCG64 stream through numpy's SeedSequence
spawn keys.  Node j draws from the one stream substream(seed, j).  Its
shot k reads uniform k of it on the law path, uniforms
[k (N + 2), (k + 1) (N + 2)) on the trajectory path, so a shot's outcome
does not depend on how the others are tiled or drawn.  PCG64 jumps ahead
in O(log n) (O'Neill, HMC-CS-2014-0905; ``PCG64.advance``), so a fresh
stream advanced by k, or k (N + 2), replays shot k alone.  The trajectory
sampler draws each tile's rows as slabs of at most TILE_AMPLITUDES
uniforms, 128 KiB, and looks up a whole slab's terms in one call, in
place in the tile's index rows; a row longer than that is drawn alone.
"""

from __future__ import annotations

import contextlib
import functools
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
        B = (M[self.pos[0][:, None], self.pos[:, None, :]] * self.phase[:, None, :]).sum(axis=0)
        width = np.count_nonzero(self.phase, axis=0)
        if width.min() < width.max():   # the column norms differ
            B = B * np.sqrt(width[:, None] / width)
        return B


def _radical(H: HamiltonianDecomposition) -> tuple:
    """Echelon generators of the radical: the Paulis of the span of the term
    masks that commute with every term.  Read through ``H.derived``."""
    span = H.derived(pauli_cosets)[0]   # the coset of 0
    central = (_product_phase(_term_masks(H)[:, None], span, H.n_qubits) & 1 == 0).all(axis=0)
    return tuple(_gf2_basis(span[central]))


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


def _signed_terms(H: HamiltonianDecomposition, masks, signs) -> list:
    """H's terms with the given masks and signs, as a sorted list of
    (mask, (weight, sign)): two lists are equal where their terms agree as
    multisets, so duplicate terms count."""
    return sorted(zip(masks.tolist(), zip(H.weights.tolist(), signs.tolist())))


@functools.cache
def _involution_tables(n: int) -> tuple:
    """(perms, image): the qubit involutions on n qubits, as permutation
    tuples in lexicographic order, and image[k, q], the Pauli index q
    relabelled by perms[k], over all 4^n of them.  Built once per n, and
    read-only."""
    identity = tuple(range(n))
    perms = tuple(p for p in itertools.permutations(range(n))
                  if p != identity and _compose(p, p) == identity)
    q = np.arange(4 ** n)
    image = np.array([_permute_qubits(q, p, n) for p in perms], dtype=int).reshape(len(perms), q.size)
    image.setflags(write=False)
    return perms, image


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
    perms, image = _involution_tables(n)
    masks = _term_masks(H)
    terms = _signed_terms(H, masks, H.signs)
    # pi is linear on Pauli bits, so it keeps every coset where each one-bit
    # Pauli e has pi(e) ^ e in the span; all candidates at once
    one_bit = 1 << np.arange(2 * n)
    radical = np.array(H.derived(_radical), dtype=int)
    keeps = (~_reduce(image[:, one_bit] ^ one_bit, _gf2_basis(masks)).any(axis=1)
             & (image[:, radical] == radical).all(axis=1))
    chosen, group = [], {tuple(range(n))}
    for k in np.flatnonzero(keeps):
        perm = perms[k]
        if (perm in group or any(_compose(perm, p) != _compose(p, perm) for p in chosen)
                or _signed_terms(H, image[k, masks], H.signs) != terms):
            continue
        chosen.append(perm)
        group |= {_compose(g, perm) for g in group}
    return tuple(chosen)


def _single_qubit_cliffords() -> tuple:
    """(labels, code, sign, square) of the single-qubit Cliffords of order 2
    and 4.  Each is a rotation R of the Pauli axes, a signed permutation of
    X, Y, Z with determinant 1, labelled by its signed images of X, Y and Z
    ('+X+Z-Y' for X -> X, Y -> Z, Z -> -Y), and listed in the order of
    (axis permutation, signs), lexicographic with + before -.  Of the 24,
    the 4 Pauli conjugations (R diagonal) are left out, as each acts on a
    sector as a sign, and so are the 8 of order 3, whose characters are not
    real.  On letter codes c = 2 x + z (I, Z, X, Y = 0, 1, 2, 3) a Clifford
    maps c to code[k, c] with sign[k, c], and its square, a Pauli
    conjugation, to c with square[k, c]."""
    axis_code = [2, 3, 1]   # X, Y, Z
    labels, code, sign, square = [], [], [], []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1, -1), repeat=3):
            R = np.zeros((3, 3), dtype=int)
            R[perm, range(3)] = signs
            if (np.prod(signs) != (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
                    or perm == (0, 1, 2) or (R @ R @ R == np.eye(3)).all()):
                continue
            labels.append("".join("+-"[s < 0] + "XYZ"[p] for p, s in zip(perm, signs)))
            c, g = np.arange(4), np.ones(4, dtype=int)
            c[axis_code] = np.array(axis_code)[list(perm)]
            g[axis_code] = signs
            code.append(c)
            sign.append(g)
            square.append(np.r_[1, np.diag(R @ R)[[2, 0, 1]]])
    return tuple(labels), np.array(code), np.array(sign), np.array(square)


@functools.cache
def _clifford_tables(n: int) -> tuple:
    """(labels, image, sign, square) of the K ``_single_qubit_cliffords`` on
    every one of n qubits, the last three (K, 4^n) over the Pauli indices q:
    Clifford k maps sigma_q to sign[k, q] sigma_{image[k, q]}, and its
    square maps sigma_q to square[k, q] sigma_q.  Built per qubit from the
    letter codes, once per n, and read-only."""
    labels, code, sign, square = _single_qubit_cliffords()
    q = np.arange(4 ** n)
    tables = [0, 1, 1]
    for shift in range(n):   # qubit n - 1 - shift
        letter = 2 * ((q >> (n + shift)) & 1) + ((q >> shift) & 1)
        new = code[:, letter]
        tables[0] = tables[0] | (new >> 1) << (n + shift) | (new & 1) << shift
        tables[1] = tables[1] * sign[:, letter]
        tables[2] = tables[2] * square[:, letter]
    for table in tables:
        table.setflags(write=False)
    return (labels, *tables)


def _clifford_symmetries(H: HamiltonianDecomposition) -> tuple:
    """The uniform single-qubit Cliffords, by label, that split
    ``pauli_sectors`` after the qubit involutions: the first of
    ``_single_qubit_cliffords`` that maps each term to a term with a
    bit-identical signed coefficient (as multisets), keeps every coset of
    ``pauli_cosets``, fixes every radical Pauli with sign +1, and whose
    square maps every term to itself with sign +1, so that it is a sign on
    each coset.  A uniform Clifford commutes with every qubit relabelling,
    so with the involutions.  Of these rotations of the cube only the powers
    of one and their products with Paulis commute with it, and those split
    none of its eigenspaces further, so there is at most one."""
    n = H.n_qubits
    labels, image, sign, square = _clifford_tables(n)
    masks = _term_masks(H)
    one_bit = 1 << np.arange(2 * n)
    radical = np.array(H.derived(_radical), dtype=int)
    # each is linear on Pauli bits, as pi is above; all candidates at once
    keeps_cosets = ~_reduce(image[:, one_bit] ^ one_bit, _gf2_basis(masks)).any(axis=1)
    fixes_radical = ((image[:, radical] == radical) & (sign[:, radical] == 1)).all(axis=1)
    squares_to_one = (square[:, masks] == 1).all(axis=1)
    terms = _signed_terms(H, masks, H.signs)
    for k in np.flatnonzero(keeps_cosets & fixes_radical & squares_to_one):
        if _signed_terms(H, image[k, masks], H.signs * sign[k, masks]) == terms:
            return (labels[k],)
    return ()


def _split(sector: PauliSector, symmetry) -> list:
    """The eigenspaces, those not empty, in ``sector`` of a symmetry S given
    as (image, sign) over all Pauli indices, S e_q = sign[q] e_image[q],
    that keeps the sector and squares to kappa = +-1 on it.  For kappa = 1
    they are the +1 and -1 eigenspaces; for kappa = -1 the +i and -i ones,
    of which a sector that is its own conjugate lists only +i, as paired,
    as the -i one is its conjugate.  S maps the column v_a to c v_b,
    |c| = 1, with b the column that holds image[pos[0, a]]: a pair of
    columns a < b becomes (v_a + conj(lam) S v_a) / sqrt(2) in the
    eigenspace of lam, and a column with b = a stays in the eigenspace of
    c, the sign at pos[0, a] over its phase at image[pos[0, a]]."""
    image_of, sign_of = symmetry
    pos, phase = sector.pos, sector.phase
    cols = np.arange(pos.shape[1])
    row_at, col_at = np.nonzero(phase)
    held = pos[row_at, col_at]
    owner, row = np.empty((2, len(image_of)), dtype=int)   # read only at the sector's Paulis
    owner[held], row[held] = col_at, row_at
    image, sign = image_of[pos], sign_of[pos]
    kappa = sign[0, 0] * sign_of[image[0, 0]]
    partner = owner[image[0]]
    pair = partner > cols
    c = sign[0] * phase[row[image[0]], cols].conj()
    both = np.concatenate([pos, np.where(pair, image, pos[0])])
    if kappa == 1:
        eigenvalues = (1, -1)
    else:
        eigenvalues = (1j, -1j) if sector.paired else (1j,)
    sectors = []
    for lam in eigenvalues:
        keep = pair | ((partner == cols) & (c == lam))
        if keep.any():
            v = np.concatenate([phase, np.where(pair, np.conj(lam) * sign * phase, 0)])[:, keep]
            rows = (v != 0).any(axis=1)
            p, v = both[rows][:, keep], v[rows]
            sectors.append(PauliSector(np.where(v != 0, p, p[0]), v,
                                       bool(sector.paired or kappa == -1)))
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

    Each sector is then split, in turn, into the eigenspaces of each of H's
    symmetries S: the relabellings by its ``_qubit_involutions``, then the
    signed Pauli permutation of its ``_clifford_symmetries``, conjugation
    by one single-qubit Clifford on every qubit.  S maps H to itself, so it
    commutes with ad_H and every Delta, and it fixes the radical, so it
    keeps each sector.  An involution, or a Clifford of order 2, squares to
    I: its eigenvalues are +-1, and real sectors stay real.  A Clifford of
    order 4 squares to a Pauli conjugation that is +1 or -1 on each sector;
    where it is -1 the eigenvalues are +-i, and a real sector splits into a
    complex-conjugate pair, listed once.  The 4-qubit chain's reflection
    i <-> 3 - i splits its three sectors of 64 into 40 + 24, 32 + 32 and a
    pair of 32 + 32; its rotation X -> X, Y -> Z, Z -> -Y, of order 4 and
    square XXXX's conjugation, then splits the first four into 24 + 16,
    16 + 8, 16 + 16 and 16 + 16 and each paired 32 into 16 + 16.  With no
    such symmetry the sectors are the radical's alone.
    """
    n = H.n_qubits
    if n > SUPEROP_QUBIT_CAP:
        raise DimensionCapError(
            f"symmetry sectors capped at {SUPEROP_QUBIT_CAP} qubits, got {n}")
    cosets = H.derived(pauli_cosets)
    radical = H.derived(_radical)
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
    perms, relabel = _involution_tables(n)
    names, image, sign, _ = _clifford_tables(n)
    symmetries = [(relabel[perms.index(perm)], np.ones(H.dim ** 2, dtype=int))
                  for perm in _qubit_involutions(H)]
    symmetries += [(image[k], sign[k]) for k in map(names.index, _clifford_symmetries(H))]
    for symmetry in symmetries:
        sectors = [part for sector in sectors for part in _split(sector, symmetry)]
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


def _series_piece(H: HamiltonianDecomposition, T: float, N: int) -> tuple:
    """(diag, off, n) for a node of N steps of time T/N above
    SUPEROP_QUBIT_CAP: its ``_step_weights`` and the steps n of each piece
    of ``_pauli_powers``' series, N where b N <= 2, else the most with
    n b <= 2 and at least one, b the largest row sum of |Delta|."""
    diag, off = _step_weights(H, T / N)
    b = np.abs(off).sum() - diag.sum()   # sum_j p_j (2 sin^2 theta + |sin 2 theta|)
    return diag, off, (N if b * N <= 2.0 else max(1, int(2.0 / b)))


def _pauli_powers(H: HamiltonianDecomposition, v0, T: float, counts: list) -> np.ndarray:
    """The rows (I + Delta_N)^N v0, Delta_N = ``channel_delta(H, T/N)``, for
    each N of ``counts`` (which must not increase), v0 a real Pauli vector.

    Up to SUPEROP_QUBIT_CAP qubits one square-and-multiply runs over the
    (node x coset) stack of ``pauli_cosets`` blocks: R^(2^k) = I + Delta_k,
    so each squaring is Delta <- 2 Delta + Delta^2 and each set bit of N one
    v <- v + Delta v; the nodes with bits left stay a prefix of the stack,
    which is cut to them before each squaring.  Above the cap each node
    takes pieces of n steps (``_series_piece``, which the shot sampler's
    cost rule reads too), v <- sum_{k <= 27} C(n, k) Delta^k v: with n b
    <= 2, b the largest row sum of |Delta|, term k is below 2^k / k!, so the
    tail is below 2^-64 (none for n <= 27), and a node takes about lam T
    pieces.  Delta u reads u[q ^ p_j] for each term j: with u as a (d, d)
    array over q = x d + z, u[x ^ x_j, z ^ z_j].  One gather copies u's
    columns z ^ z_c for the Z distinct z-masks z_c of the terms, (d, Z, d);
    a second takes row (x ^ x_j) Z + c_j of that copy for all terms at
    once, in bands of x rows, into one (L, band, d) buffer, which is
    multiplied by the signs, then by the weights, and summed over the terms
    in their order: to the bit the term-by-term sum of flips of u.  The
    terms run in contiguous chunks whose copies, Z d^2 floats, fit in
    CHUNK_INDEX_BYTES, each chunk's first row carrying the sum so far.
    """
    if H.n_qubits > SUPEROP_QUBIT_CAP:
        d, L = H.dim, len(H)
        sign = H.derived(_pauli_action).reshape(L, d, d)
        cols, zmasks = np.arange(d), H.z_masks.tolist()
        # bands of x rows whose (L, band, d) products number at most
        # 4 TILE_AMPLITUDES, 512 KiB
        band = min(d, 1 << max(0, (4 * TILE_AMPLITUDES // (L * d)).bit_length() - 1))
        # contiguous chunks of terms with at most `most` distinct z-masks, so
        # that their copies of the term, d^2 floats each, fit in
        # CHUNK_INDEX_BYTES; row x Z + c of a chunk's copy is term[x, z ^ zs[c]]
        most = max(1, CHUNK_INDEX_BYTES // (8 * d * d))
        chunks, start = [], 0
        while start < L:
            stop, zs = start, {}
            while stop < L and (zmasks[stop] in zs or len(zs) < most):
                zs.setdefault(zmasks[stop], len(zs))
                stop += 1
            pos = np.array([zs[z] for z in zmasks[start:stop]])
            rows = (H.x_masks[start:stop, None] ^ cols) * len(zs) + pos[:, None]
            rows = np.ascontiguousarray(rows.reshape(stop - start, -1, band).transpose(1, 0, 2))
            chunks.append((start, stop, np.array(list(zs))[:, None] ^ cols, rows))
            start = stop
        copies = np.empty(max(zcols.size for _, _, zcols, _ in chunks) * d)
        products, total = np.empty((L + 1, band, d)), np.empty((d, d))
        dv, mask = np.empty((d, d)), np.empty((d, d), dtype=bool)
        # every index is a d-bit mask XOR or a row of its own table, in
        # range by construction, so "clip" only skips take's bounds buffering
        out = []
        for N in counts:
            diag, off, n = _series_piece(H, T, N)
            dv[...] = 0.0
            for d_j, s in zip(diag, sign):   # total is free until the series runs
                np.not_equal(s, 0, out=mask)
                np.multiply(d_j, mask, out=total)
                np.add(dv, total, out=dv)
            off = off[:, None, None]
            v = v0.reshape(d, d)
            for first in range(0, N, n):
                piece = min(n, N - first)
                term, v = v, v.copy()
                for k in range(1, min(27, piece) + 1):
                    for start, stop, zcols, rows in chunks:
                        copy = copies[:zcols.size * d].reshape(d, len(zcols), d)
                        np.take(term, zcols, axis=1, out=copy, mode="clip")
                        table = copy.reshape(-1, d)
                        part = products[:stop - start + 1]
                        for b, x in enumerate(range(0, d, band)):
                            np.take(table, rows[b], axis=0, out=part[1:], mode="clip")
                            np.multiply(part[1:], sign[start:stop, x:x + band], out=part[1:])
                            np.multiply(part[1:], off[start:stop], out=part[1:])
                            if start:
                                part[0] = total[x:x + band]
                            part[0 if start else 1:].sum(axis=0, out=total[x:x + band])
                    term = dv * term - total
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


def evolve_indexed_batch(psis, gates: PauliRotations, indices) -> np.ndarray:
    """Evolve a batch of states, each under its own index sequence.

    psis: (B, d), gates: the step's Pauli rotations over L terms, indices:
    (B, N) in [0, L).  Each step is a gather and an axpy: the gate is
    cos (I + (coef / cos) P_j), so a step adds (coef / cos) psi[perm] to
    psi, and the factor cos goes back in as one multiply by cos^k per
    stride of k steps (``_fold_stride``).  The steps read their term
    indices through one (K, B) intp buffer, K = TILE_AMPLITUDES // B,
    refilled once per K steps, so that a step's gathers take a contiguous
    intp row and do not convert a strided column of ``indices``.  Gates
    with cos = 0 cannot be folded and are refused.
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
    if N == 0:
        return out
    # Indices are range-checked above, so "clip" only skips take's bounds
    # buffering.  The loop calls bound ``take`` methods and writes every
    # product into a buffer allocated once: at these batch sizes numpy's
    # per-call overhead is a large share of a step.  The flat positions
    # b d + perm[j, y] take the row offsets b d as a full (B, d) array:
    # adding a broadcast (B, 1) column cost about 11% of a step more at d = 32
    offsets = np.repeat(np.arange(0, B * d, d), d).reshape(B, d)
    src = np.empty((B, d), dtype=np.intp)
    gathered = np.empty_like(out)
    coef = np.empty_like(out)
    columns = np.empty((max(1, min(TILE_AMPLITUDES // max(B, 1), N)), B), dtype=np.intp)
    cos = gates.cos
    take_perm, take_coef, take_amps = gates.perm.take, (gates.coef / cos).take, out.take
    multiply, add = np.multiply, np.add
    stride = _fold_stride(cos, N)
    for first in range(0, N, stride):
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
        return self._pick(cum, uniforms)

    def _pick(self, cum, uniforms) -> np.ndarray:
        """The outcome each uniform picks from cumulative probabilities cum,
        (B, K) or (K,) for all: the first whose share of the total passes it.
        The last share is x / x = 1 exactly, above every uniform in [0, 1)."""
        return self.values[np.sum(cum / cum[..., -1:] <= uniforms[:, None], axis=1)]


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
        H.lookup_terms(slab[:, 2:], out=indices[first:first + len(slab)])
    return heads, indices


def _ensemble(initial_state):
    """(pops, basis): the checked initial state as the ensemble both shot
    paths sample, a unit vector alone or a density matrix's eigenvectors
    whose eigenvalues pass 1e-12, with those eigenvalues renormalised."""
    if np.ndim(initial_state) == 2:
        evals, evecs = check_density_matrix(initial_state, eigenpairs=True)
        keep = evals > 1e-12
        return evals[keep] / evals[keep].sum(), evecs[:, keep]
    return np.ones(1), unit_state(initial_state)[:, None]


def sample_shots(H: HamiltonianDecomposition, A, initial_state, T: float, step_counts,
                 shots: int, seed: int) -> np.ndarray:
    """(len(step_counts), shots) outcomes: row j holds one measured outcome of
    A for each of ``shots`` qDRIFT runs of N = step_counts[j] steps of time
    T/N from ``initial_state`` (a unit vector or a density matrix).  A is a
    Hermitian matrix or its ``ObservableMeasurer``.  The measurer and the
    state's check and eigen-ensemble are built once per call.  Row j draws
    from substream(seed, j): from the exact outcome law (``_law_shots``)
    where ``_law_is_cheaper``, else from simulated circuits
    (``_trajectory_shots``); a repeated N is drawn again on its own stream.
    The outcomes, and on the trajectory path one shot's term indices, must
    fit in numpy's largest array, or OverflowError is raised before any
    work.
    """
    counts = _step_counts(step_counts)
    shots, seed = _integer(shots, name="shots"), _integer(seed, 0, "seed")
    _require_shapes(H, initial_state, A)
    measurer = A if isinstance(A, ObservableMeasurer) else ObservableMeasurer(A)
    ensemble = _ensemble(initial_state)
    law = _law_is_cheaper(H, T, counts, shots)
    index_bytes = 0 if law else np.min_scalar_type(len(H) - 1).itemsize * max(counts)
    if max(8 * len(counts) * shots, index_bytes) > np.iinfo(np.intp).max:
        raise OverflowError(f"{shots} shots of up to {max(counts)} steps at {len(counts)} "
                            "nodes pass numpy's largest array")
    sample = _law_shots if law else _trajectory_shots
    return sample(H, measurer, ensemble, T, counts, shots, seed)


def _law_is_cheaper(H: HamiltonianDecomposition, T: float, counts: list, shots: int) -> bool:
    """Whether ``sample_shots`` draws from the outcome law: always up to
    SUPEROP_QUBIT_CAP qubits; above it where the law's predicted work,
    sum over distinct N of pieces(N) min(27, n) L d^2 for the series of
    ``_pauli_powers`` in pieces of n steps (``_series_piece``), is no more
    than the trajectories', shots (sum of N) d gathered amplitudes.  The
    exact integer counts are compared at a ratio of 1, though a counted
    product, one float of the series' gathers over all terms, costs about
    half a trajectory gather at 5 qubits and 0.4 of one at 10, so near the
    boundary the rule can keep trajectories where the law is faster; the
    README's "Shot sampler and trajectory engine" holds the timings.  The
    law's work that does not grow with N, its O(d^3) transforms of the
    initial state and of each node's, is left out: where it is large, at 10
    qubits, every measured wrong pick already keeps trajectories, so
    counting it would only move the rule further from the faster path.
    Reads only H, T, the counts and the shots."""
    if H.n_qubits <= SUPEROP_QUBIT_CAP:
        return True
    law = 0
    for N in set(counts):
        n = _series_piece(H, T, N)[2]
        law += -(-N // n) * min(27, n) * len(H) * H.dim ** 2
    return law <= shots * sum(counts) * H.dim


def _law_shots(H: HamiltonianDecomposition, measurer: ObservableMeasurer, ensemble,
               T: float, counts: list, shots: int, seed: int) -> np.ndarray:
    """``sample_shots`` from each node's law p_k = tr(V_k^dag rho_N V_k), V_k
    the measurer's eigenvector blocks, rho_N = E^N(rho0) from one
    ``_pauli_powers`` call and rho0 the ensemble's mixture of normalised
    members.  Shot k of row j maps uniform k of substream(seed, j), and no
    other, through p's cumulative sum.  ArithmeticError for a p with an entry
    below -1e-12 or a sum off 1 by more than 1e-12."""
    pops, basis = ensemble
    basis = basis / np.linalg.norm(basis, axis=0)
    v0 = _pauli_coefficients((basis * pops) @ basis.conj().T).real
    distinct = sorted(set(counts), reverse=True)
    rhos = _pauli_operator(_pauli_powers(H, v0, T, distinct))
    law = np.stack([np.sum((rhos @ V) * V.conj(), axis=(1, 2)).real
                    for V in measurer._blocks], axis=1)
    cum = np.cumsum(law, axis=1)
    for N, p, total in zip(distinct, law, cum[:, -1]):
        if not (p.min() >= -1e-12 and abs(total - 1.0) <= 1e-12):
            raise ArithmeticError(f"outcome law at N = {N} has least entry {float(p.min())!r} "
                                  f"and sum {float(total)!r}: not a probability vector")
    values = np.empty((len(counts), shots))
    for node, N in enumerate(counts):
        node_cum, rng = cum[distinct.index(N)], substream(seed, node)
        for start in range(0, shots, TILE_AMPLITUDES):
            stop = min(start + TILE_AMPLITUDES, shots)
            values[node, start:stop] = measurer._pick(node_cum, rng.random(stop - start))
    return values


def _trajectory_shots(H: HamiltonianDecomposition, measurer: ObservableMeasurer, ensemble,
                      T: float, counts: list, shots: int, seed: int) -> np.ndarray:
    """``sample_shots`` from simulated qDRIFT circuits, the gates built once
    per row.  Shot k of row j reads uniforms [k (N + 2), (k + 1) (N + 2)) of
    substream(seed, j): the measurement uniform, the initial-state uniform,
    which picks an ensemble member, then the N term uniforms.  Each row runs
    in tiles of ``shot_chunk(L, N, d)`` shots, each drawn in slabs of rows
    (``_draw_tile``); as each shot's uniforms sit at a fixed offset of its
    row's stream, neither changes any outcome."""
    pops, basis = ensemble
    pop_cdf = np.cumsum(pops)
    pop_cdf[-1] = 1.0
    index_type = np.min_scalar_type(len(H) - 1)
    angles = _step_angle(H, [T / N for N in counts])
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
