import itertools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qflo.benchmarks import ONE_QUBIT_TEXT
from qflo.channel import (
    _clifford_symmetries,
    _compose,
    _gf2_basis,
    _permute_qubits,
    _product_phase,
    _qubit_involutions,
    _radical,
    _reduce,
    _step_angle,
    _term_masks,
    channel_delta,
    exact_expectation,
    expectation_exact,
    pauli_basis,
    pauli_cosets,
    pauli_sectors,
)
from qflo.generator import (
    ConditioningError,
    _channel_spectrum,
    _delta_stacks,
    _divided_difference,
    _sector_structure,
    channel_superoperator,
    ek_bound_probe,
    generator_probe,
    log_existence_check,
    pauli_adjoint,
    series_probe,
)
from qflo.hamiltonian import DimensionCapError, parse_hamiltonian
from qflo.linalg import (
    _log_from_eig,
    adjoint_superoperator,
    apply_superoperator,
    matrix_log_principal,
    spectral_norm,
    unitary_exp,
    vectorize,
)


class TestChannelSuperoperator:
    def test_matches_kraus_action(self, one_qubit, rng):
        H, _, _ = one_qubit
        t = 0.23
        S = channel_superoperator(H, t)
        B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        U = H.term_unitaries(H.lam * t)
        expected = sum(
            p * (Uj @ B @ Uj.conj().T) for p, Uj in zip(H.probabilities, U)
        )
        assert np.abs(apply_superoperator(S, B) - expected).max() <= 1e-12

    def test_single_term_is_unitary_superoperator(self):
        H = parse_hamiltonian("0.5 Y")
        t = 0.4
        U = unitary_exp(0.5 * np.array([[0, -1j], [1j, 0]]), t)
        S = channel_superoperator(H, t)
        assert np.abs(S - np.kron(U.conj(), U)).max() <= 1e-12

    def test_trace_preserving(self, two_qubit):
        H, _, _ = two_qubit
        S = channel_superoperator(H, 0.3)
        vec_id = vectorize(np.eye(4, dtype=complex))
        assert np.abs(vec_id.conj() @ S - vec_id.conj()).max() <= 1e-12

    def test_qubit_cap(self):
        H = parse_hamiltonian("1.0 " + "Z" * 5)
        with pytest.raises(DimensionCapError):
            channel_superoperator(H, 0.1)


TWO_QUBIT = "0.3 ZZ\n0.3 XI\n0.2 IX\n0.2 YZ\n"
HEISENBERG_CHAIN_4 = "".join(
    f"1.0 {'I' * i}{p}{p}{'I' * (2 - i)}\n" for i in range(3) for p in "XYZ"
) + "".join(f"0.5 {'I' * i}X{'I' * (3 - i)}\n" for i in range(4))
HEISENBERG_RING_4 = HEISENBERG_CHAIN_4 + "".join(f"1.0 {p}II{p}\n" for p in "XYZ")


class TestPauliBasis:
    def test_adjoint_matches_vec_basis(self, two_qubit):
        H, _, _ = two_qubit
        B = pauli_basis(H.n_qubits)
        assert np.abs(B @ pauli_adjoint(H) @ B.conj().T
                      - adjoint_superoperator(H.dense())).max() <= 1e-13

    def test_chain_splits_into_two_cosets(self):
        H = parse_hamiltonian(HEISENBERG_CHAIN_4)
        assert [b.size for b in pauli_cosets(H)] == [128, 128]

    @pytest.mark.parametrize("text, width", [(HEISENBERG_CHAIN_4, 64), (TWO_QUBIT, 4)])
    def test_radical_splits_cosets_into_three_sectors(self, text, width):
        # XXXX (XX) lies in the span of the terms and commutes with each: the
        # coset that commutes with it splits into two real sectors, the other
        # into a complex-conjugate pair, listed once.  The chain's reflection
        # i <-> 3 - i then splits each of the three in two (40 + 24, 32 + 32
        # and a paired 32 + 32): its columns pair an orbit of 2 Paulis with
        # its mirror image, or keep a mirror symmetric orbit alone, padded
        # with phase 0.  Its rotation X -> X, Y -> Z, Z -> -Y squares to
        # XXXX's conjugation, +1 on the real sectors, which split into its
        # +1 and -1 eigenspaces, and -1 on the paired ones, which split into
        # its +i and -i eigenspaces; its pairs of columns cover 8 Paulis
        sectors = pauli_sectors(parse_hamiltonian(text))
        expected = [((2, width), "f", False), ((2, width), "f", False), ((2, width), "c", True)]
        if text == HEISENBERG_CHAIN_4:
            expected = ([((8, m), "f", False) for m in (24, 16, 16, 8, 16, 16, 16, 16)]
                        + 4 * [((8, 16), "c", True)])
        assert [(s.pos.shape, s.phase.dtype.kind, s.paired) for s in sectors] == expected

    def test_ring_splits_by_two_commuting_reflections(self):
        # the 4-site ring's involutions, in lexicographic order: (1 3) is
        # taken; (0 1)(2 3) does not commute with it; (0 2) does and is
        # taken; (0 2)(1 3) is their product.  So each of its three
        # radical sectors of 64 splits four ways, into 28, 12, 12, 12 and
        # 24, 16, 16, 8 twice; the chain's rotation about X then splits
        # each of those twelve in two
        H = parse_hamiltonian(HEISENBERG_RING_4)
        assert _qubit_involutions(H) == ((0, 3, 2, 1), (2, 1, 0, 3))
        assert _clifford_symmetries(H) == ("+X+Z-Y",)
        widths = [s.pos.shape[1] for s in pauli_sectors(H)]
        assert widths == [16, 12, 8, 4, 8, 4, 8, 4, 12, 12, 8, 8, 8, 8, 4, 4,
                          12, 12, 8, 8, 8, 8, 4, 4]

    def test_swap_that_moves_the_radical_is_not_used(self):
        # XY <-> YX maps H to itself but moves the radical Pauli XY, so it
        # would map a sector to another one
        H = parse_hamiltonian("0.5 XY\n0.5 YX\n")
        assert _qubit_involutions(H) == ()
        assert [s.pos.shape for s in pauli_sectors(H)] == 10 * [(4, 1)]

    def test_sectors_are_capped_with_the_matrices_they_block(self):
        # the involution search tries every qubit permutation
        with pytest.raises(DimensionCapError):
            pauli_sectors(parse_hamiltonian("1.0 XXIII\n1.0 IIIXX\n"))

    def test_trivial_radical_sectors_are_the_cosets(self):
        H = parse_hamiltonian("0.25 I\n0.25 X\n0.25 Y\n0.25 Z\n")
        (sector,) = pauli_sectors(H)
        assert np.array_equal(sector.pos, pauli_cosets(H))
        assert np.array_equal(sector.phase, np.ones((1, 4)))

    @pytest.mark.parametrize("text", [
        HEISENBERG_CHAIN_4, TWO_QUBIT, "0.7 XZIY\n-0.4 ZZXI\n",
        "0.25 I\n0.25 X\n0.25 Y\n0.25 Z\n", "0.5 XYI\n0.3 IZZ\n0.4 YIX\n0.2 ZXY\n",
    ])
    def test_delta_vanishes_between_cosets(self, text):
        H = parse_hamiltonian(text)
        blocks = pauli_cosets(H)
        label = np.empty(H.dim ** 2, dtype=int)
        for k, b in enumerate(blocks):
            label[b] = k
        assert np.array_equal(np.sort(np.concatenate(blocks)), np.arange(H.dim ** 2))
        between = label[:, None] != label[None, :]
        for M in (channel_delta(H, 0.37), pauli_adjoint(H)):
            assert np.all(M[between] == 0.0)


def _commute(a: str, b: str) -> bool:
    return sum(p != "I" and q != "I" and p != q for p, q in zip(a, b)) % 2 == 0


@st.composite
def symmetric_pauli_sums(draw):
    """A random Pauli sum on 1-4 qubits.  Unless no symmetry is drawn, every
    term commutes with the drawn global Paulis (X^n, Z^n or both), which are
    terms too.  So the radical holds X^n or Z^n when one is drawn, and both
    when both are drawn on an even number of qubits, where they commute."""
    n = draw(st.integers(1, 4))
    symmetries = [c * n for c in draw(st.sampled_from(["", "X", "Z", "XZ"]))]
    lines = [f"{draw(st.floats(0.05, 2.0))!r} {g}" for g in symmetries]
    for _ in range(draw(st.integers(1, 6))):
        letters = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        if all(_commute(letters, g) for g in symmetries):
            coeff = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1, -1]))
            lines.append(f"{coeff!r} {letters}")
    return parse_hamiltonian("\n".join(lines))


def _sector_basis(sector, d2):
    """The dense d^2 x m orthonormal basis a ``PauliSector`` stands for."""
    V = np.zeros((d2, sector.pos.shape[1]), dtype=complex)
    for pos, phase in zip(sector.pos, sector.phase):
        V[pos, np.arange(pos.size)] += phase
    return V / np.linalg.norm(V, axis=0)


def _involutions(n: int) -> list:
    """Every qubit permutation of order 2 on n qubits."""
    return [p for p in itertools.permutations(range(n))
            if p != tuple(range(n)) and all(p[j] == i for i, j in enumerate(p))]


def _relabel(letters: str, perm) -> str:
    """The Pauli string with qubit i's letter moved to qubit perm[i]."""
    out = list(letters)
    for i, j in enumerate(perm):
        out[j] = letters[i]
    return "".join(out)


@st.composite
def involution_closed_sums(draw):
    """A Pauli sum on 2-4 qubits that a drawn qubit involution maps to
    itself: each drawn term comes with its image under it, at the same
    coefficient, once or twice over.  Optionally X^n or Z^n is a term too,
    and then every other term commutes with it, so that it lies in the
    radical."""
    n = draw(st.integers(2, 4))
    perm = draw(st.sampled_from(_involutions(n)))
    symmetries = [c * n for c in draw(st.sampled_from(["", "X", "Z"]))]
    lines = [f"{draw(st.floats(0.05, 2.0))!r} {g}" for g in symmetries]
    for _ in range(draw(st.integers(1, 5))):
        letters = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        if all(_commute(letters, g) for g in symmetries):
            coeff = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1, -1]))
            orbit = {letters, _relabel(letters, perm)}
            lines += [f"{coeff!r} {p}" for p in sorted(orbit)] * draw(st.integers(1, 2))
    return parse_hamiltonian("\n".join(lines))


@given(H=symmetric_pauli_sums(), theta=st.floats(0.02, 0.45))
@example(H=parse_hamiltonian(HEISENBERG_CHAIN_4), theta=0.1)
@example(H=parse_hamiltonian(TWO_QUBIT), theta=0.3)
@example(H=parse_hamiltonian("0.5 XXXX"), theta=0.02)
@settings(max_examples=60, deadline=None)
def test_sector_probe_matches_vec_basis_oracle(H, theta):
    # The oracle's log is scipy's: on 0.5 XXXX at theta = 0.02, where
    # G - ad_H is 0, matrix_log_principal's eig of the degenerate S put
    # 1.8e-12 into G with one BLAS thread, against the 1e-12 tolerance
    _check_against_vec_basis_oracle(H, theta)


@given(H=involution_closed_sums(), theta=st.floats(0.02, 0.45))
@example(H=parse_hamiltonian(HEISENBERG_RING_4), theta=0.1)
@example(H=parse_hamiltonian("0.5 XY\n0.5 YX\n0.3 ZZ\n"), theta=0.3)
@example(H=parse_hamiltonian("0.3 XX\n0.3 XX\n0.2 ZI\n0.2 IZ\n0.7 YY\n"), theta=0.2)
@example(H=parse_hamiltonian("0.4 ZZZ\n0.5 XYI\n0.5 IYX\n0.2 ZIZ\n"), theta=0.4)
@settings(max_examples=60, deadline=None)
def test_involution_sectors_match_vec_basis_oracle(H, theta):
    # Sums that a qubit involution maps to itself, with duplicate terms and
    # terms that it fixes, whose sectors it splits where it keeps the
    # cosets and fixes the radical
    _check_against_vec_basis_oracle(H, theta)


def _qubit_involutions_by_labels(H) -> tuple:
    """``_qubit_involutions`` with its coset test on all d^2 Pauli indices:
    pi keeps every coset where it leaves each index's ``_reduce`` label
    unchanged.  The reference for its test on the 2n one-bit Paulis."""
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


@given(H=involution_closed_sums())
@example(H=parse_hamiltonian(HEISENBERG_CHAIN_4))
@example(H=parse_hamiltonian(HEISENBERG_RING_4))
@example(H=parse_hamiltonian("0.5 II\n"))
@settings(max_examples=100, deadline=None)
def test_one_bit_coset_test_picks_the_label_test_involutions(H):
    # pi is linear on Pauli bits, so testing pi(e) ^ e against the span on
    # the one-bit Paulis e decides as relabelling every Pauli index does;
    # on 0.5 II, whose span is {0}, the coset test alone refuses the swap
    assert _qubit_involutions(H) == _qubit_involutions_by_labels(H)


def _radical_sectors(H) -> list:
    """(pos, phase, paired) of each sector the radical alone splits the
    cosets into, built as ``pauli_sectors`` built them before qubit
    involutions split them further: the reference for a Hamiltonian that no
    qubit involution maps to itself."""
    n = H.n_qubits
    cosets = pauli_cosets(H)
    span = cosets[0]
    central = (_product_phase(_term_masks(H)[:, None], span, n) & 1 == 0).all(axis=0)
    radical = _gf2_basis(span[central])
    pos = cosets[_reduce(cosets, radical) == cosets].reshape(len(cosets), 1, -1)
    phase = np.ones(pos.shape, dtype=complex)
    signs = np.ones((1, 1))
    anti = np.zeros(len(cosets), dtype=int)
    for i, s in enumerate(radical):
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
            sectors.append((pos[c], v if anti[c] else v.real, bool(anti[c])))
    return sectors


def _maps_to_itself(H, perm) -> bool:
    """Whether relabelling the qubits by perm permutes H's signed terms."""
    terms = sorted((t.weight, t.sign, t.pauli.letters) for t in H.terms)
    return sorted((t.weight, t.sign, _relabel(t.pauli.letters, perm)) for t in H.terms) == terms


PAULI_MATRICES = {
    "I": np.eye(2), "X": np.array([[0, 1], [1, 0]]),
    "Y": np.array([[0, -1j], [1j, 0]]), "Z": np.diag([1, -1]),
}


def _rotation(U) -> np.ndarray:
    """R[a, b] = tr(P_a U P_b U^dag) / 2 over P = X, Y, Z: U P_b U^dag is
    R[a, b] P_a for the one a where it is not 0."""
    P = [PAULI_MATRICES[p] for p in "XYZ"]
    return np.array([[round(np.trace(a @ U @ b @ U.conj().T).real / 2) for b in P] for a in P])


def _cliffords_by_conjugation() -> list:
    """The 24 single-qubit Cliffords up to phase, each as its rotation R of
    the Pauli axes: the closure of the Hadamard and phase gates under
    products, told apart by R."""
    gates = [np.array([[1, 1], [1, -1]]) / np.sqrt(2), np.diag([1, 1j])]
    found, frontier = {}, [np.eye(2)]
    while frontier:
        U = frontier.pop()
        R = _rotation(U)
        if R.tobytes() not in found:
            found[R.tobytes()] = R
            frontier += [g @ U for g in gates]
    assert len(found) == 24
    return list(found.values())


def _image_letters(R, letters: str) -> tuple:
    """(sign, letters) of the Pauli string conjugated by R on every qubit."""
    sign, out = 1, ""
    for p in letters:
        if p == "I":
            out += p
        else:
            column = R[:, "XYZ".index(p)]
            a = int(np.flatnonzero(column)[0])
            sign, out = sign * column[a], out + "XYZ"[a]
    return sign, out


def _maps_to_itself_by_clifford(H, R) -> bool:
    """Whether conjugating every qubit by R permutes H's signed terms."""
    terms = sorted((t.weight, t.sign, t.pauli.letters) for t in H.terms)
    image = []
    for t in H.terms:
        sign, letters = _image_letters(R, t.pauli.letters)
        image.append((t.weight, t.sign * sign, letters))
    return sorted(image) == terms


def _splitting_cliffords() -> list:
    """The rotations of order 2 and 4 that are not Pauli conjugations,
    sorted by (axis permutation, signs) with + before -."""
    def key(R):
        perm = tuple(int(np.flatnonzero(R[:, b])[0]) for b in range(3))
        return perm, tuple(bool(R[perm[b], b] < 0) for b in range(3))
    return sorted((R for R in _cliffords_by_conjugation()
                   if np.count_nonzero(R - np.diag(np.diag(R)))
                   and not (np.linalg.matrix_power(R, 3) == np.eye(3)).all()), key=key)


def _label(R) -> str:
    """The signed images of X, Y and Z, as ``_clifford_symmetries`` names R."""
    return "".join("+-"[int(R[:, b].sum() < 0)] + "XYZ"[np.flatnonzero(R[:, b])[0]]
                   for b in range(3))


def _letters(q: int, n: int) -> str:
    x, z = q >> n, q & ((1 << n) - 1)
    return "".join("IZXY"[2 * (x >> (n - 1 - i) & 1) + (z >> (n - 1 - i) & 1)] for i in range(n))


def _index(letters: str) -> int:
    n, q = len(letters), 0
    for i, p in enumerate(letters):
        x, z = p in "XY", p in "ZY"
        q |= x << (2 * n - 1 - i) | z << (n - 1 - i)
    return q


def _clifford_symmetries_by_labels(H) -> tuple:
    """``_clifford_symmetries`` by brute force over all 24 Cliffords, found
    by conjugating matrices: the greedy choice, in its order, of those that
    are neither Pauli conjugations nor of order 3, that commute with those
    already chosen and are not products of them and Paulis, that map H's
    signed terms to themselves, keep every ``_reduce`` label of all d^2
    Pauli indices, fix the radical with sign +1, and whose square is one
    sign on each coset."""
    n = H.n_qubits
    q = np.arange(H.dim ** 2)
    labels = _reduce(q, _gf2_basis(_term_masks(H)))
    radical = _radical(H)
    group = {R.tobytes(): R for R in _cliffords_by_conjugation() if not np.count_nonzero(R - np.diag(np.diag(R)))}
    chosen = []
    for R in _splitting_cliffords():
        if R.tobytes() in group or any((R @ C != C @ R).any() for C in chosen):
            continue
        image = [_image_letters(R, _letters(int(p), n)) for p in q]
        index = np.array([_index(letters) for _, letters in image])
        sign = np.array([s for s, _ in image])
        square = sign * sign[index]
        if (_maps_to_itself_by_clifford(H, R)
                and np.array_equal(labels[index], labels)
                and all(index[r] == r and sign[r] == 1 for r in radical)
                and all(np.unique(square[labels == c]).size == 1 for c in np.unique(labels))):
            chosen.append(R)
            while True:
                grown = {**group, **{(g @ C).tobytes(): g @ C for g in group.values() for C in chosen}}
                if len(grown) == len(group):
                    break
                group = grown
    return tuple(_label(R) for R in chosen)


@st.composite
def clifford_closed_sums(draw):
    """A Pauli sum on 1-4 qubits that a drawn single-qubit Clifford, on
    every qubit, maps to itself: the rotation by 90 degrees about an axis
    A, or by 180 degrees about the diagonal B + e C of the other two axes
    (A -> -A, B -> e C, C -> e B).  XXZ-type couplings a AA + b (BB + CC)
    on drawn pairs of qubits, with f (BC + CB) for the second kind, and
    fields along the fixed axis: c A for the first kind, c (B + e C) for
    the second."""
    n = draw(st.integers(1, 4))
    A = draw(st.sampled_from("XYZ"))
    B, C = [p for p in "XYZ" if p != A]
    e = draw(st.sampled_from([0, 1, -1]))   # 0: the rotation about A

    def coeff():
        return draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1, -1]))

    def place(letters: dict) -> str:
        return "".join(letters.get(i, "I") for i in range(n))

    lines = []
    pairs = list(itertools.combinations(range(n), 2))
    for i, j in draw(st.lists(st.sampled_from(pairs), max_size=4)) if pairs else []:
        a, b, f = coeff(), coeff(), coeff()
        lines += [f"{a!r} {place({i: A, j: A})}", f"{b!r} {place({i: B, j: B})}",
                  f"{b!r} {place({i: C, j: C})}"]
        if e and draw(st.booleans()):
            lines += [f"{f!r} {place({i: B, j: C})}", f"{f!r} {place({i: C, j: B})}"]
    for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)):
        c = coeff()
        lines += ([f"{c!r} {place({i: A})}"] if e == 0
                  else [f"{c!r} {place({i: B})}", f"{e * c!r} {place({i: C})}"])
    return parse_hamiltonian("\n".join(lines))


# X -> X, Y -> Z, Z -> -Y maps these terms to themselves
PLUS_MINUS_YZ = "0.5 Y\n-0.5 Y\n0.5 Z\n-0.5 Z\n0.3 X\n"
XXZ_CHAIN_4 = "".join(f"{c} {'I' * i}{p}{p}{'I' * (2 - i)}\n"
                      for i in range(3) for p, c in zip("XYZ", (1.0, 1.0, 0.5)))


@given(H=st.one_of(clifford_closed_sums(), involution_closed_sums(), symmetric_pauli_sums()))
@example(H=parse_hamiltonian(HEISENBERG_CHAIN_4))
@example(H=parse_hamiltonian(HEISENBERG_RING_4))
@example(H=parse_hamiltonian(XXZ_CHAIN_4))
@example(H=parse_hamiltonian(ONE_QUBIT_TEXT))
@example(H=parse_hamiltonian(TWO_QUBIT))
@example(H=parse_hamiltonian("0.25 I\n0.25 X\n0.25 Y\n0.25 Z\n"))
@example(H=parse_hamiltonian(PLUS_MINUS_YZ))
@settings(max_examples=100, deadline=None)
def test_clifford_search_matches_brute_force(H):
    # the search reads prebuilt tables and tests the one-bit Paulis and
    # the terms; the reference conjugates matrices and tests every Pauli
    # index, with the whole greedy rule.  On the XXZ chain the rotation
    # X -> Y moves the radical Pauli XXXX to YYYY, so none is used; on
    # PLUS_MINUS_YZ the rotation about X maps the terms to themselves but
    # its square, X's conjugation, flips Y and Z, so it is not one sign on
    # the coset
    assert _clifford_symmetries(H) == _clifford_symmetries_by_labels(H)


@given(H=clifford_closed_sums(), theta=st.floats(0.02, 0.45))
@example(H=parse_hamiltonian(ONE_QUBIT_TEXT), theta=0.3)
@example(H=parse_hamiltonian(PLUS_MINUS_YZ), theta=0.3)
@example(H=parse_hamiltonian("0.7 XX\n0.4 YY\n0.4 ZZ\n-0.3 XI\n0.2 IX\n"), theta=0.2)
@example(H=parse_hamiltonian("0.5 XYI\n0.5 YXI\n0.3 IXX\n0.3 IYY\n-0.2 IIZ\n0.6 XIX\n0.6 YIY\n"),
         theta=0.4)
@settings(max_examples=60, deadline=None)
def test_clifford_sectors_match_vec_basis_oracle(H, theta):
    # Sums that a Clifford of order 2 or 4 on every qubit maps to itself:
    # where it keeps the cosets and fixes the radical it splits each
    # sector into its +-1 or, where it squares to -1, +-i eigenspaces
    _check_against_vec_basis_oracle(H, theta)


@pytest.mark.parametrize("text", [TWO_QUBIT, "0.25 I\n0.25 X\n0.25 Y\n0.25 Z\n"])
def test_two_qubit_and_depolarizing_keep_the_radical_sectors(text):
    # no Clifford of order 2 or 4 maps either to itself; the depolarizing
    # sum's cycle X -> Y -> Z, of order 3, does, and is not used
    H = parse_hamiltonian(text)
    assert _clifford_symmetries(H) == () and _qubit_involutions(H) == ()
    sectors = pauli_sectors(H)
    reference = _radical_sectors(H)
    assert len(sectors) == len(reference)
    for sector, (pos, phase, paired) in zip(sectors, reference):
        assert sector.paired == paired and sector.phase.dtype == phase.dtype
        assert np.array_equal(sector.pos, pos) and np.array_equal(sector.phase, phase)


@given(H=symmetric_pauli_sums())
@example(H=parse_hamiltonian(TWO_QUBIT))
@example(H=parse_hamiltonian("0.5 XYI\n0.3 IZZ\n0.4 YIX\n0.2 ZXY\n"))
@example(H=parse_hamiltonian("0.25 I\n0.25 X\n0.25 Y\n0.25 Z\n"))
@settings(max_examples=60, deadline=None)
def test_sectors_without_involution_are_the_radical_sectors(H):
    # no qubit involution and no Clifford of order 2 or 4 on every qubit
    # maps H to itself: the sectors are the radical's, array for array
    assume(not any(_maps_to_itself(H, perm) for perm in _involutions(H.n_qubits)))
    assume(not any(_maps_to_itself_by_clifford(H, R) for R in _splitting_cliffords()))
    sectors = pauli_sectors(H)
    reference = _radical_sectors(H)
    assert len(sectors) == len(reference)
    for sector, (pos, phase, paired) in zip(sectors, reference):
        assert sector.paired == paired and sector.phase.dtype == phase.dtype
        assert np.array_equal(sector.pos, pos) and np.array_equal(sector.phase, phase)


def _check_against_vec_basis_oracle(H, theta):
    """G - ad_H, its norm and E_t's smallest eigenvalue modulus against the
    complex vec-basis superoperators, at step angle lam t = theta < 1/2."""
    t = theta / H.lam
    probe = generator_probe(H, t, 1.0)
    S = channel_superoperator(H, t)
    G = scipy.linalg.logm(S) / (-1j * t)
    ad = adjoint_superoperator(H.dense())
    B = pauli_basis(H.n_qubits)
    tol = 1e-12 * max(1.0, spectral_norm(ad))
    assert abs(probe.min_eig_modulus - np.abs(np.linalg.eigvals(S)).min()) <= 1e-12
    assert abs(probe.deviation - spectral_norm(G - ad)) <= tol
    # the sector bases, with each paired sector's conjugate, are an
    # orthonormal basis of the whole space, and Delta and ad_H keep each;
    # the blocks, lifted through them, make up G - ad_H in the Pauli basis,
    # where it is imaginary: a paired sector's conjugate holds -conj(block)
    d2 = H.dim ** 2
    sectors = pauli_sectors(H)
    assert len(probe.blocks) == len(sectors)
    bases = []
    lifted = np.zeros((d2, d2), dtype=complex)
    for sector, block in zip(sectors, probe.blocks):
        V = _sector_basis(sector, d2)
        bases += [V, V.conj()] if sector.paired else [V]
        part = V @ block @ V.conj().T
        lifted += part - part.conj() if sector.paired else part
        for M in (channel_delta(H, t), pauli_adjoint(H)):
            assert np.abs(M @ V - V @ sector.block(M)).max() <= 1e-15 * max(1.0, np.abs(M).max())
    W = np.hstack(bases)
    assert W.shape == (d2, d2)
    assert np.abs(W.conj().T @ W - np.eye(d2)).max() <= 1e-15
    assert np.abs(lifted - B.conj().T @ (G - ad) @ B).max() <= tol


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18, reason="needs 80-bit long double")
def test_chain_deviation_matches_extended_precision_series():
    # ||G - ad_H|| = ||log(I + Delta) - t P|| / t with ad_H = i P; the log
    # from its series sum_k (-1)^(k+1) Delta^k / k in 80-bit arithmetic,
    # per coset block; ||Delta||_1 < 0.004, so the terms past k = 12 are
    # below 1e-30
    H = parse_hamiltonian(HEISENBERG_CHAIN_4)
    t = 2.0 ** -12
    delta = channel_delta(H, t)
    assert np.abs(delta).sum(axis=0).max() < 0.004
    P = pauli_adjoint(H).imag
    residual = np.zeros(delta.shape)
    for b in pauli_cosets(H):
        D = delta[np.ix_(b, b)].astype(np.longdouble)
        power, log = D.copy(), D.copy()
        for k in range(2, 13):
            power = power @ D
            log += (-1) ** (k + 1) * power / k
        residual[np.ix_(b, b)] = (log - t * P[np.ix_(b, b)].astype(np.longdouble)).astype(float)
    reference = spectral_norm(residual) / t
    assert generator_probe(H, t, 1.0).deviation == pytest.approx(reference, rel=1e-12)


# The lambda = 1 4-qubit Heisenberg chain of the generator_scan benchmark
# workload: couplings 1 and fields 0.5, divided by lambda = 11
UNIT_CHAIN_4 = "".join(
    f"{1 / 11!r} {'I' * i}{p}{p}{'I' * (2 - i)}\n" for i in range(3) for p in "XYZ"
) + "".join(f"{0.5 / 11!r} {'I' * i}X{'I' * (3 - i)}\n" for i in range(4))

# ||G(s) - ad_H|| at T = 1 from 40-digit arithmetic, to 20 digits
DEVIATION_REFERENCES = {
    UNIT_CHAIN_4: [
        (2e-3, 0.0027506183133746144831),
        (5e-4, 0.00068765365630574606868),
        (1e-4, 0.00013753071945909227241),
        (5e-5, 0.000068765359545139023840),
    ],
    TWO_QUBIT: [
        (2e-3, 0.0029719304801250349865),
        (5e-4, 0.00074298146883790977214),
        (1e-4, 0.00014859627903234772047),
        (5e-5, 0.000074298139285935864646),
    ],
}


@pytest.mark.parametrize("text", list(DEVIATION_REFERENCES), ids=["unit_chain_4", "two_qubit"])
def test_deviation_keeps_its_digits_at_small_steps(text):
    """The deviation in split form against 40-digit references, to 1e-14.
    Formed as log(I + Delta) / (-i t) - ad_H it lost about log10(1 / (s lam))
    digits, up to 4e-13 relative at these steps.  The references come from
    this script (mpmath, not a test dependency), with Delta and ad_H exact on
    each sector's exact orthonormal basis and log(I + Delta) as its series,
    which converges here as ||Delta|| < 0.01::

        import mpmath as mp
        import numpy as np
        from qflo.channel import _pauli_action, _term_masks, pauli_sectors
        from qflo.hamiltonian import parse_hamiltonian

        def reference(text, s, dps=40):
            mp.mp.dps = dps
            H = parse_hamiltonian(text)
            h = [mp.mpf(float(w)) for w in H.weights]
            lam, t = mp.fsum(h), mp.mpf(s)
            sign, masks = H.derived(_pauli_action), _term_masks(H)
            deviation = 0
            for sector in pauli_sectors(H):
                pos, phase = sector.pos, sector.phase
                m, width = pos.shape[1], np.count_nonzero(phase, axis=0)
                cover = {int(pos[g, a]): (g, a) for g, a in zip(*np.nonzero(phase))}
                delta, ad = mp.zeros(m, m), mp.zeros(m, m)
                for g, a in zip(*np.nonzero(phase)):
                    q = int(pos[g, a])
                    for j in np.nonzero(sign[:, q])[0]:
                        p, r = h[j] / lam, q ^ int(masks[j])
                        for M, row, v in ((delta, q, -2 * p * mp.sin(lam * t) ** 2),
                                          (delta, r, p * mp.sin(2 * lam * t) * int(sign[j, q])),
                                          (ad, r, 2j * h[j] * int(sign[j, q]))):
                            if row in cover:
                                g2, a2 = cover[row]
                                M[a2, a] += v * complex(np.conj(phase[g2, a2]) * phase[g, a]) / (
                                    mp.sqrt(int(width[a] * width[a2])))
                log, power, k = mp.zeros(m, m), mp.eye(m), 1
                while k < 3 or mp.mnorm(power, 1) > mp.mpf(10) ** -(dps + 5):
                    power = power * delta
                    log += power * (mp.mpf((-1) ** (k + 1)) / k)
                    k += 1
                deviation = max(deviation, max(mp.svd_c(log / (-1j * t) - ad, compute_uv=False)))
            return mp.nstr(deviation, 20)
    """
    H = parse_hamiltonian(text)
    for s, reference in DEVIATION_REFERENCES[text]:
        assert generator_probe(H, s, 1.0).deviation == pytest.approx(reference, rel=1e-14, abs=0)


@st.composite
def pauli_sums(draw):
    """A random Pauli sum on 1-4 qubits: one term or several, of any letters,
    with coefficients of either sign, and optionally one term's letters
    again at a coefficient of its own."""
    n = draw(st.integers(1, 4))
    paulis = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=6))
    if draw(st.booleans()):
        paulis.append(draw(st.sampled_from(paulis)))
    coeffs = [draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1, -1])) for _ in paulis]
    return parse_hamiltonian("".join(f"{c!r} {p}\n" for c, p in zip(coeffs, paulis)))


@given(H=pauli_sums(), theta=st.floats(0.0, np.pi, allow_subnormal=False))
@example(H=parse_hamiltonian(HEISENBERG_CHAIN_4), theta=2.0)
@example(H=parse_hamiltonian(TWO_QUBIT), theta=np.pi - 1e-9)
@example(H=parse_hamiltonian("-0.7 Y"), theta=1.7)
@example(H=parse_hamiltonian("0.3 XY\n-0.5 XY\n0.2 ZZ\n0.4 YX\n"), theta=0.9)
@settings(max_examples=100, deadline=None)
def test_stacked_delta_blocks_match_sector_blocks(H, theta):
    # -2 sin^2(theta) diag(D) + sin(2 theta) K on each group, against the
    # blocks of the whole Delta, past theta = pi / 2, where sin(2 theta) < 0,
    # up to pi, on single terms, repeated masks and negative coefficients.
    # Where repeated masks cancel, Delta keeps the rounding of its terms
    # p_j sin(2 theta), so the scale is the larger of them and max |Delta|
    structure = H.derived(_sector_structure)
    t = theta / H.lam
    delta = channel_delta(H, t)
    stacks = _delta_stacks(structure, float(_step_angle(H, t)))
    term = abs(np.sin(2.0 * H.lam * t)) * H.probabilities.max()
    tol = 1e-15 * max(np.abs(delta).max(), term)
    for group, stack in zip(structure.groups, stacks):
        assert stack.shape[0] == len(group)
        for i, block in zip(group, stack):
            assert np.abs(block - structure.sectors[i].block(delta)).max() <= tol


@given(H=pauli_sums(), theta=st.floats(0.01, 0.5))
@example(H=parse_hamiltonian(HEISENBERG_CHAIN_4), theta=0.1)
@example(H=parse_hamiltonian("0.3 XY\n-0.5 XY\n0.2 ZZ\n0.4 YX\n"), theta=0.4)
@settings(max_examples=100, deadline=None)
def test_split_deviation_matches_log_minus_ad(H, theta):
    # at moderate steps log(I + Delta) / (-i t) - ad_H, from the same
    # eigenpairs, loses few digits, and the split form must agree with it
    t = theta / H.lam
    probe = generator_probe(H, t, 1.0)
    structure, spectra, _ = _channel_spectrum(H, float(_step_angle(H, t)))
    for group, log, ad in zip(structure.groups, _log_from_eig(spectra), structure.ad_stacks):
        tol = 1e-13 * max(1.0, spectral_norm(ad))
        for i, block in zip(group, log / (-1j * t) - ad):
            assert np.abs(probe.blocks[i] - block).max() <= tol


class TestLogExistence:
    def test_exists_below_half_inverse_lambda(self, one_qubit):
        H, _, _ = one_qubit
        report = log_existence_check(H, 0.4 / H.lam)
        assert report["exists"]
        assert report["min_eig_modulus"] > 0.1

    def test_depolarizing_quarter_period_has_no_log(self, depolarizing):
        report = log_existence_check(depolarizing, (np.pi / 2) / depolarizing.lam)
        assert not report["exists"]
        assert report["min_eig_modulus"] <= 1e-10

    def test_depolarizing_short_step_exists(self, depolarizing):
        report = log_existence_check(depolarizing, 0.4 / depolarizing.lam)
        assert report["exists"]


class TestGeneratorProbe:
    def test_deviation_vanishes_linearly(self, one_qubit):
        H, _, _ = one_qubit
        devs = [generator_probe(H, s, T=1.0).deviation for s in (1 / 16, 1 / 32, 1 / 64)]
        assert devs[0] > devs[1] > devs[2]
        assert devs[0] / devs[1] == pytest.approx(2.0, rel=0.05)
        assert devs[1] / devs[2] == pytest.approx(2.0, rel=0.05)

    def test_deviation_bounded_by_step(self, two_qubit):
        H, _, _ = two_qubit
        s = 1 / 64
        probe = generator_probe(H, s, T=1.0)
        # first neglected term is E_2 s T with ||E_2|| <= (4 lambda)^2
        assert probe.deviation <= (4 * H.lam) ** 2 * s * 1.0

    def test_generator_reproduces_channel(self):
        # per sector: exp(-i t (block + V^dag ad_H V)) = V^dag (I + Delta) V
        import scipy.linalg

        s, T = 1 / 32, 1.0
        t = s * T
        for text in (ONE_QUBIT_TEXT, TWO_QUBIT, HEISENBERG_CHAIN_4):
            H = parse_hamiltonian(text)
            probe = generator_probe(H, s, T)
            delta, ad_H = channel_delta(H, t), pauli_adjoint(H)
            for sector, block in zip(pauli_sectors(H), probe.blocks):
                back = scipy.linalg.expm(-1j * t * (block + sector.block(ad_H)))
                assert np.abs(back - np.eye(len(block)) - sector.block(delta)).max() <= 1e-10

    def test_rejects_nonpositive_s(self, one_qubit):
        H, _, _ = one_qubit
        with pytest.raises(ValueError):
            generator_probe(H, 0.0, T=1.0)

    @pytest.mark.parametrize("s", [float("nan"), float("inf")])
    def test_rejects_s_that_is_not_finite(self, one_qubit, s):
        # NaN once passed the s <= 0 check and failed later, on the step angle
        H, _, _ = one_qubit
        with pytest.raises(ValueError, match=rf"s must be positive and finite, got {s!r}"):
            generator_probe(H, s, T=1.0)

    @pytest.mark.parametrize("T", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_time_not_positive_and_finite(self, one_qubit, T):
        H, _, _ = one_qubit
        with pytest.raises(ValueError, match=rf"T must be positive and finite, got {T!r}"):
            generator_probe(H, 0.1, T)

    def test_underflowing_step_time_names_s_and_T(self, one_qubit):
        H, _, _ = one_qubit
        with pytest.raises(ArithmeticError, match=r"s = 1e-300, T = 1e-300"):
            generator_probe(H, 1e-300, T=1e-300)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", [1e-310, 1e-320, 2.0 ** -1074])
    def test_subnormal_step_time_names_s_and_t(self, two_qubit, s):
        # 1 / t overflows below the normal range: G(s) divided by t was
        # infinite, and its SVD did not converge
        H, _, _ = two_qubit
        with pytest.raises(ArithmeticError, match=rf"t = s T = {s!r} .* s = {s!r}, T = 1.0"):
            generator_probe(H, s, T=1.0)

    def test_smallest_normal_step_time_is_probed(self, two_qubit):
        H, _, _ = two_qubit
        probe = generator_probe(H, np.finfo(float).tiny, T=1.0)
        assert probe.min_eig_modulus == 1.0 and probe.deviation <= 1e-14

    def test_overflowing_step_angle_names_t(self, one_qubit):
        H, _, _ = one_qubit
        with pytest.raises(OverflowError, match=r"t = 1e\+308"):
            generator_probe(H, 1e308, T=1.0)


class TestSeriesProbe:
    def test_recovers_exact_polynomial(self):
        s = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
        f = 1.5 + 2.0 * s - 3.0 * s**2
        res = series_probe(s, f, f_zero=1.5, max_order=2)
        assert np.allclose(res.coefficients, [2.0, -3.0], atol=1e-12)
        assert res.fit_residual <= 1e-12

    def test_input_validation(self):
        s = np.array([0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="lengths differ"):
            series_probe(s, s[:2], 0.0, max_order=1)
        with pytest.raises(ValueError, match="at least"):
            series_probe(s, s, 0.0, max_order=3)
        with pytest.raises(ValueError, match="distinct"):
            series_probe([0.1, 0.1, 0.2], [1, 2, 3], 0.0, max_order=1)

    def test_conditioning_refusal(self):
        # clustered nodes: the design's condition number is about 6e20
        s = 1e-3 * np.array([1, 1.0001, 1.0002, 1.0003, 1.0004])
        with pytest.raises(ConditioningError):
            series_probe(s, s, 0.0, max_order=4)

    def test_benchmark_series_regression(self, one_qubit):
        # frozen from the superoperator-power oracle on this fixture
        H, A, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        T = 1.0
        Ns = [16, 24, 32, 48, 64, 96, 128, 192, 256]
        s = np.array([1.0 / N for N in Ns])
        f = np.array([expectation_exact(H, A, rho, T, N) for N in Ns])
        f0 = exact_expectation(H, A, rho, T)
        res = series_probe(s, f, f0, max_order=4)
        expected = [-0.3643719272, 0.0996842721, -0.0434419702, 0.0116472043]
        assert np.allclose(res.coefficients, expected, atol=1e-7)
        assert res.fit_residual <= 1e-9
        # leading correction is first order in s, not second
        assert abs(res.coefficients[0]) > 0.1


class TestDividedDifference:
    def test_quadratic_leading_coefficient(self):
        nodes = [0.5, 1.0, 2.0]
        mats = [np.array([[x**2]]) for x in nodes]
        assert _divided_difference(nodes, mats)[0, 0] == pytest.approx(1.0)

    def test_linear_matrix_family(self, rng):
        A = rng.normal(size=(3, 3))
        B = rng.normal(size=(3, 3))
        nodes = [0.1, 0.4]
        mats = [A + x * B for x in nodes]
        assert np.abs(_divided_difference(nodes, mats) - B).max() <= 1e-12


class TestEkBoundProbe:
    def test_rejects_unsupported_order(self, one_qubit):
        H, _, _ = one_qubit
        with pytest.raises(ValueError):
            ek_bound_probe(H, 1.0, k=5)

    @pytest.mark.parametrize("T", [-1.0, 0.0, float("nan"), float("inf")])
    def test_rejects_time_not_positive_and_finite(self, one_qubit, T):
        H, _, _ = one_qubit
        with pytest.raises(ValueError, match=rf"T must be positive and finite, got {T!r}"):
            ek_bound_probe(H, T, 2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_estimate_within_bound(self, one_qubit, k):
        H, _, _ = one_qubit
        report = ek_bound_probe(H, 1.0, k)
        assert report["estimate"] <= report["bound"]
        assert report["noise_floor"] < report["estimate"]

    def test_frozen_estimates(self, one_qubit):
        H, _, _ = one_qubit
        assert ek_bound_probe(H, 1.0, 2)["estimate"] == pytest.approx(1.0017737, rel=1e-4)
        assert ek_bound_probe(H, 1.0, 3)["estimate"] == pytest.approx(0.2551135, rel=1e-4)

    def test_two_qubit_within_bound(self, two_qubit):
        H, _, _ = two_qubit
        report = ek_bound_probe(H, 1.0, 2)
        assert report["estimate"] <= report["bound"]

    @pytest.mark.parametrize("text", [TWO_QUBIT, HEISENBERG_CHAIN_4])
    @pytest.mark.parametrize("k", [2, 3])
    def test_matches_vec_basis_oracle(self, text, k):
        # the (k-1)-th divided difference of the whole G(s) - ad_H from the
        # complex vec-basis log, on the probe's nodes; the two-qubit
        # Hamiltonian and the chain each have a paired sector
        H = parse_hamiltonian(text)
        T = 1.0
        h = 0.1 / (T * H.lam * 2 ** k)
        nodes = [i * h for i in range(1, k + 1)]
        ad = adjoint_superoperator(H.dense())
        deltas = [matrix_log_principal(channel_superoperator(H, s * T)) / (-1j * s * T) - ad
                  for s in nodes]
        oracle = spectral_norm(_divided_difference(nodes, deltas)) / T ** (k - 1)
        assert ek_bound_probe(H, T, k)["estimate"] == pytest.approx(oracle, rel=1e-9)

    def test_bound_scales_with_lambda(self, one_qubit):
        H, _, _ = one_qubit
        assert ek_bound_probe(H, 1.0, 2)["bound"] == pytest.approx((4 * H.lam) ** 2)
        assert ek_bound_probe(H, 1.0, 3)["bound"] == pytest.approx((4 * H.lam) ** 3)
