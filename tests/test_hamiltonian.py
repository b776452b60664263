import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from qflo.hamiltonian import (
    GUIDE_BUCKETS,
    DimensionCapError,
    HamiltonianDecomposition,
    HamiltonianFormatError,
    PauliString,
    WeightedTerm,
    parse_hamiltonian,
)
from qflo.linalg import hermiticity_defect, spectral_norm

from conftest import random_hamiltonian
from test_channel import heisenberg_chain


class TestParse:
    def test_two_terms(self):
        H = parse_hamiltonian("0.3 X\n0.7 Z")
        assert H.lam == pytest.approx(1.0)
        assert np.allclose(H.probabilities, [0.3, 0.7])

    def test_sign_folding(self):
        H = parse_hamiltonian("-0.5 XY")
        term = H.terms[0]
        assert term.weight == 0.5
        assert term.sign == -1
        XY = PauliString("XY").dense()
        assert np.array_equal(term.dense(), -XY)
        assert spectral_norm(term.dense()) == pytest.approx(1.0)

    def test_comments_and_blank_lines(self):
        H = parse_hamiltonian("# header\n0.3 X  # inline\n\n0.7 Z\n")
        assert len(H) == 2

    def test_invalid_pauli_character(self):
        with pytest.raises(HamiltonianFormatError, match="invalid Pauli"):
            parse_hamiltonian("0.5 XQ")

    def test_zero_coefficient(self):
        with pytest.raises(HamiltonianFormatError, match="zero"):
            parse_hamiltonian("0.0 X")

    def test_inconsistent_lengths(self):
        with pytest.raises(HamiltonianFormatError, match="inconsistent"):
            parse_hamiltonian("0.5 X\n0.5 XX")

    def test_empty_file(self):
        with pytest.raises(HamiltonianFormatError, match="no terms"):
            parse_hamiltonian("# only a comment\n")

    def test_bad_coefficient(self):
        with pytest.raises(HamiltonianFormatError, match="coefficient"):
            parse_hamiltonian("abc X")

    @pytest.mark.parametrize("coeff", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_coefficient(self, coeff):
        with pytest.raises(HamiltonianFormatError, match="line 2: coefficient .* not finite"):
            parse_hamiltonian(f"1.0 Z\n{coeff} X\n")

    def test_overflowing_lambda(self):
        with pytest.raises(HamiltonianFormatError, match="overflows"):
            parse_hamiltonian("1e308 X\n-1e308 Z\n")

    @pytest.mark.parametrize("weight", [np.inf, np.nan, 0.0, -1.0])
    def test_term_weight_must_be_positive_and_finite(self, weight):
        with pytest.raises(HamiltonianFormatError, match="positive and finite"):
            WeightedTerm(weight, PauliString("X"))


class TestDense:
    def test_single_z(self):
        H = parse_hamiltonian("1.0 Z")
        assert np.array_equal(H.dense(), np.diag([1.0, -1.0]).astype(complex))

    def test_linearity(self):
        H = parse_hamiltonian("0.5 X\n0.5 Z")
        X = PauliString("X").dense()
        Z = PauliString("Z").dense()
        assert np.allclose(H.dense(), 0.5 * (X + Z))

    def test_kronecker_oracle(self):
        text = "0.4 XZ\n0.3 ZI\n-0.2 YY\n0.1 IX"
        H = parse_hamiltonian(text)
        expected = np.zeros((4, 4), dtype=complex)
        for coeff, letters in [(0.4, "XZ"), (0.3, "ZI"), (-0.2, "YY"), (0.1, "IX")]:
            expected += coeff * np.kron(
                PauliString(letters[0]).dense(), PauliString(letters[1]).dense()
            )
        assert np.abs(H.dense() - expected).max() <= 1e-12

    def test_qubit_cap(self):
        H = parse_hamiltonian("1.0 " + "X" * 11)
        with pytest.raises(DimensionCapError):
            H.dense()

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_kronecker_term_sum(self, seed):
        # sum_j h_j s_j P_j from the Kronecker products of WeightedTerm.dense
        rng = np.random.default_rng(seed)
        H = random_hamiltonian(rng, int(rng.integers(1, 7)), int(rng.integers(1, 60)))
        reference = sum(t.weight * t.dense() for t in H.terms)
        assert np.abs(H.dense() - reference).max() <= 4 * np.finfo(float).eps * H.lam

    def test_peak_memory_stays_near_the_result(self):
        # the terms are added into one d x d matrix, never stacked as (L, d, d):
        # 29 stacked terms of the 8-qubit chain peaked at 58x the result
        H = parse_hamiltonian(heisenberg_chain(8))
        tracemalloc.start()
        try:
            M = H.dense()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert M.shape == (256, 256)
        assert peak <= 2 * M.nbytes


class _FixedUniform:
    def __init__(self, values):
        self._values = np.asarray(values, dtype=float)
        self.calls = 0

    def random(self, count):
        assert count == self._values.size
        self.calls += 1
        return self._values


class TestSampleTerm:
    def test_single_term(self, rng):
        H = parse_hamiltonian("2.5 Z")
        assert np.all(H.sample_terms(rng, 20) == 0)

    def test_cdf_boundaries(self):
        H = parse_hamiltonian("0.3 X\n0.7 Z")
        assert H.sample_terms(_FixedUniform([0.29, 0.31]), 2).tolist() == [0, 1]

    def test_empirical_frequencies(self, rng):
        H = parse_hamiltonian("0.3 X\n0.7 Z")
        n = 10**5
        draws = H.sample_terms(rng, n)
        for j, p in enumerate([0.3, 0.7]):
            count = int(np.sum(draws == j))
            sigma = np.sqrt(n * p * (1 - p))
            assert abs(count - n * p) <= 3 * sigma

    def test_chi_square_consistency(self, rng):
        H = parse_hamiltonian("0.1 XX\n0.2 ZZ\n0.3 XI\n0.4 IZ")
        n = 10**5
        draws = H.sample_terms(rng, n)
        counts = np.bincount(draws, minlength=4)
        _, pvalue = stats.chisquare(counts, n * H.probabilities)
        assert pvalue > 0.001


def sampler_weights(kind: str, L: int, seed: int) -> np.ndarray:
    """L positive term weights: uniform, heavy-tailed (Pareto of index 0.5),
    spread over many decades, or a few large weights beside a cluster of
    tiny ones, as in chemistry Hamiltonians."""
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return rng.uniform(1e-3, 1.0, L)
    if kind == "pareto":
        return rng.pareto(0.5, L) + 1e-300
    if kind == "decades":
        return 10.0 ** rng.uniform(-30, 30, L)
    w = np.full(L, 1e-12)
    w[rng.integers(0, L, size=3)] = 1.0
    return w


@given(kind=st.sampled_from(["uniform", "pareto", "decades", "cluster"]),
       L=st.integers(1, 1000), seed=st.integers(0, 2**32 - 1))
@example(kind="cluster", L=1000, seed=0)
@example(kind="pareto", L=256, seed=1)
@example(kind="decades", L=257, seed=2)
@example(kind="uniform", L=1, seed=3)
@settings(max_examples=150, deadline=None)
def test_sampler_matches_binary_search(kind, L, seed):
    # the guide table with its lifts against searchsorted on the uniforms
    # where they could part: every cumulative probability and its float
    # neighbours, 0, every bucket edge k/256 and its neighbours
    H = HamiltonianDecomposition(
        [WeightedTerm(float(w), PauliString("X")) for w in sampler_weights(kind, L, seed)])
    cdf = np.cumsum(H.probabilities)
    cdf[-1] = 1.0
    edges = np.arange(GUIDE_BUCKETS + 1) / GUIDE_BUCKETS
    u = np.concatenate([cdf, edges, [0.0], np.random.default_rng(seed).random(1000)])
    u = np.concatenate([u, np.nextafter(u, -1.0), np.nextafter(u, 2.0)])
    u = u[(u >= 0.0) & (u < 1.0)]
    rng = _FixedUniform(u)
    draws = H.sample_terms(rng, u.size)
    assert rng.calls == 1
    assert np.array_equal(draws, np.searchsorted(cdf, u, side="right"))
    # the lookup alone, on a 2-D view with a negative stride, as on a slab
    assert np.array_equal(H.lookup_terms(np.stack([u, u])[:, ::-1]),
                          np.stack([draws, draws])[:, ::-1])
    assert len(H._lifts) <= L.bit_length()


@pytest.mark.skipif(not __debug__, reason="the range checks are asserts")
def test_lookup_positions_are_checked_not_clipped():
    # the lookup's takes clip their positions, so asserts refuse uniforms
    # outside [0, 1) and draws past the last term, which a clipped position
    # would otherwise hide
    H = parse_hamiltonian(heisenberg_chain(3))
    for u in (1.0, -1e-300, np.nan):
        with pytest.raises(AssertionError, match=r"outside \[0, 1\)"):
            H.lookup_terms(np.array([0.5, u]))
    H._guide = H._guide + len(H)   # a guide table off by L
    with pytest.raises(AssertionError, match="last term"):
        H.lookup_terms(np.array([0.5]))


class TestInvariants:
    def test_lambda_bounds_spectral_norm(self, rng):
        for _ in range(100):
            H = random_hamiltonian(rng, int(rng.integers(1, 3)), int(rng.integers(1, 5)))
            assert spectral_norm(H.dense()) <= H.lam + 1e-9

    def test_pauli_strings_unit_norm(self, rng):
        for _ in range(20):
            H = random_hamiltonian(rng, 2, 3)
            for term in H.terms:
                assert spectral_norm(term.dense()) == pytest.approx(1.0, abs=1e-13)

    def test_dense_is_hermitian(self, two_qubit):
        H, _, _ = two_qubit
        assert hermiticity_defect(H.dense()) <= 1e-12

    def test_term_arrays_hold_each_term(self):
        # derived once, when H is built
        H = parse_hamiltonian("0.5 XY\n-0.25 ZI\n1.5 YY\n")
        assert H.weights.tolist() == [0.5, 0.25, 1.5]
        assert H.signs.tolist() == [1, -1, 1]
        assert list(zip(H.x_masks.tolist(), H.z_masks.tolist(), H.y_counts.tolist())) == [
            t.pauli.masks() for t in H.terms]

    def test_probabilities_normalized(self, rng):
        for _ in range(20):
            H = random_hamiltonian(rng, 1, int(rng.integers(1, 6)))
            assert abs(H.probabilities.sum() - 1.0) <= 1e-12


@st.composite
def hamiltonian_texts(draw):
    n = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 5))
    lines = []
    for _ in range(n_terms):
        coeff = draw(
            st.floats(
                min_value=1e-3, max_value=10.0, allow_nan=False, allow_infinity=False
            )
        )
        sign = draw(st.sampled_from([1, -1]))
        letters = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        lines.append(f"{sign * coeff!r} {letters}")
    return "\n".join(lines)


@given(text=hamiltonian_texts())
@settings(max_examples=50, deadline=None)
def test_serialize_parse_fixed_point(text):
    once = parse_hamiltonian(text).serialize()
    twice = parse_hamiltonian(once).serialize()
    assert once == twice
