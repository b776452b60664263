import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflo.richardson import (
    Weights,
    build_nodes,
    chebyshev_x,
    extrapolate,
    vandermonde_residuals,
    weights_from_steps,
)


def exact_weights(step_counts):
    """Lagrange-at-zero weights in exact rational arithmetic."""
    t = [Fraction(1, int(N)) for N in step_counts]
    out = []
    for i, ti in enumerate(t):
        prod = Fraction(1)
        for j, tj in enumerate(t):
            if j != i:
                prod /= 1 - ti / tj
        out.append(prod)
    return out


def scalar_weights(step_times):
    """Lagrange-at-zero weights by the scalar double loop: b_i divided by
    1 - t_i / t_j for each j != i in ascending order."""
    b = np.empty(len(step_times))
    for i in range(len(step_times)):
        prod = 1.0
        for j in range(len(step_times)):
            if j != i:
                prod /= 1.0 - step_times[i] / step_times[j]
        b[i] = prod
    return b


class TestChebyshevX:
    def test_known_values(self):
        assert chebyshev_x(1, 2) == pytest.approx(math.sin(math.pi / 8) ** 2)
        assert chebyshev_x(2, 2) == pytest.approx(math.sin(3 * math.pi / 8) ** 2)

    def test_range_and_monotonicity(self):
        xs = [chebyshev_x(j, 10) for j in range(1, 11)]
        assert all(0 < x < 1 for x in xs)
        assert xs == sorted(xs)

    def test_index_validation(self):
        with pytest.raises(ValueError):
            chebyshev_x(0, 4)
        with pytest.raises(ValueError):
            chebyshev_x(5, 4)


class TestBuildNodes:
    def test_order_two_fixture(self):
        nodes = build_nodes(2)
        assert nodes.R == pytest.approx(math.sqrt(8) * 2 / math.pi)
        assert list(nodes.k) == [10, 4]
        assert list(nodes.y) == [100, 16]

    def test_order_one_fixture(self):
        nodes = build_nodes(1)
        assert list(nodes.k) == [3]
        assert list(nodes.y) == [9]

    def test_unsquared_variant(self):
        nodes = build_nodes(2, squared=False)
        assert list(nodes.y) == [10, 4]
        assert not nodes.squared

    def test_ratios_strictly_decreasing(self):
        for m in range(1, 17):
            k = build_nodes(m).k
            assert np.all(np.diff(k) < 0)
            assert k[-1] >= 1

    def test_ratios_cover_formula(self):
        # away from collisions the ceiling formula is untouched
        nodes = build_nodes(8)
        raw = [math.ceil(nodes.R / math.sqrt(x)) for x in nodes.x]
        assert list(nodes.k) == raw

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            build_nodes(0)

    def test_ratio_past_int64_names_the_order(self):
        # k_1 ~ 2.29 m^2, so y_1 = k_1^2 passes the int64 maximum at m = 36397
        assert 0 < build_nodes(36396).y[0] <= np.iinfo(np.int64).max
        with pytest.raises(OverflowError, match="order 36397"):
            build_nodes(36397)
        assert build_nodes(36397, squared=False).y[0] > 0


class TestWeights:
    def test_two_point_halving(self):
        w = weights_from_steps([0.2, 0.1])
        assert np.allclose(w.b, [-1.0, 2.0])
        assert w.one_norm == pytest.approx(3.0)

    def test_order_two_schedule_fixture(self):
        nodes = build_nodes(2)
        w = weights_from_steps(1.0 / nodes.y)
        assert np.allclose(w.b, [25 / 21, -4 / 21], atol=1e-12)
        assert w.one_norm == pytest.approx(29 / 21, abs=1e-12)

    def test_matches_exact_rational_weights(self):
        for m in (2, 3, 5, 8):
            nodes = build_nodes(m)
            w = weights_from_steps(1.0 / nodes.y)
            exact = np.array([float(b) for b in exact_weights(nodes.y)])
            assert np.abs(w.b - exact).max() <= 1e-12 * np.abs(exact).max()

    def test_input_validation(self):
        with pytest.raises(ValueError, match="positive"):
            weights_from_steps([0.1, -0.2])
        with pytest.raises(ValueError, match="distinct"):
            weights_from_steps([0.1, 0.1])
        with pytest.raises(ValueError, match="non-empty"):
            weights_from_steps([])

    def test_scale_invariance_binary_factors(self):
        t = 1.0 / build_nodes(4).y
        base = weights_from_steps(t).b
        for c in (0.5, 2.0, 4.0, 0.25):
            assert np.array_equal(weights_from_steps(c * t).b, base)

    def test_one_norm_growth_frozen(self):
        expected = {2: 1.380952381, 4: 1.594857665, 8: 1.850097211, 16: 2.063559109}
        for m, val in expected.items():
            w = weights_from_steps(1.0 / build_nodes(m).y)
            assert abs(w.one_norm - val) <= 0.05
        norms = [weights_from_steps(1.0 / build_nodes(m).y).one_norm for m in (2, 4, 8, 16)]
        assert norms == sorted(norms)


class TestMomentCancellation:
    @pytest.mark.parametrize("m", range(2, 13))
    def test_residuals_small(self, m):
        nodes = build_nodes(m)
        s = 1.0 / nodes.y
        w = weights_from_steps(s)
        res = vandermonde_residuals(w, s, max_power=m - 1)
        assert abs(res[0]) <= 1e-9
        assert np.abs(res[1:]).max() <= 1e-9

    def test_first_uncancelled_moment_is_large(self):
        nodes = build_nodes(3)
        s = 1.0 / nodes.y
        w = weights_from_steps(s)
        res = vandermonde_residuals(w, s, max_power=3)
        assert np.abs(res[:3]).max() <= 1e-9
        assert abs(res[3]) > 1e-3

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vandermonde_residuals(Weights(b=np.array([1.0, 2.0])), [0.1], 1)


class TestExtrapolate:
    def test_two_point_formula(self):
        w = weights_from_steps([0.2, 0.1])
        assert extrapolate([3.0, 2.0], w) == pytest.approx(-1 * 3.0 + 2 * 2.0)

    def test_annihilates_polynomial_error(self, rng):
        # data a0 + sum a_p s^p for p < m extrapolates exactly to a0
        for m in (2, 4, 6):
            nodes = build_nodes(m)
            s = 1.0 / nodes.y
            w = weights_from_steps(s)
            a0 = 0.7
            coeffs = rng.normal(size=m - 1)
            f = a0 + sum(c * s ** (p + 1) for p, c in enumerate(coeffs))
            assert extrapolate(f, w) == pytest.approx(a0, abs=1e-10)

    def test_constant_data(self):
        w = weights_from_steps(1.0 / build_nodes(5).y)
        assert extrapolate(np.full(5, 4.2), w) == pytest.approx(4.2, abs=1e-12)

    def test_length_mismatch(self):
        w = weights_from_steps([0.2, 0.1])
        with pytest.raises(ValueError):
            extrapolate([1.0], w)


@given(
    counts=st.lists(st.integers(1, 10**6), min_size=1, max_size=6, unique=True),
)
@settings(max_examples=60, deadline=None)
def test_weights_sum_to_one(counts):
    w = weights_from_steps([1.0 / N for N in counts])
    scale = max(1.0, w.one_norm)
    assert abs(w.b.sum() - 1.0) <= 1e-8 * scale


@given(
    times=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=16, unique=True),
)
@settings(max_examples=200, deadline=None)
def test_weights_bit_equal_to_scalar_loop(times):
    # at most 15 factors of at most 2^53 each: no product overflows
    t = np.array(times)
    assert weights_from_steps(t).b.tobytes() == scalar_weights(t).tobytes()


@given(m=st.integers(1, 300), squared=st.booleans())
@settings(max_examples=30, deadline=None)
def test_node_weights_bit_equal_to_scalar_loop(m, squared):
    t = 1.0 / build_nodes(m, squared=squared).y
    assert weights_from_steps(t).b.tobytes() == scalar_weights(t).tobytes()
