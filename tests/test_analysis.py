import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflo.analysis import fit_loglog_slope


class TestFitLoglogSlope:
    def test_exact_power_law(self):
        x = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = fit_loglog_slope(x, 3.0 * x**-2)
        assert fit.slope == pytest.approx(-2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_constant_data(self):
        fit = fit_loglog_slope([1, 2, 3, 4], [5.0, 5.0, 5.0, 5.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-12)
        assert fit.r_squared == 1.0

    def test_noisy_data_lowers_r_squared(self, rng):
        x = np.geomspace(1, 100, 12)
        y = x**1.5 * np.exp(rng.normal(0, 0.5, size=12))
        fit = fit_loglog_slope(x, y)
        assert fit.r_squared < 1.0
        assert fit.slope == pytest.approx(1.5, abs=1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="lengths differ"):
            fit_loglog_slope([1, 2, 3, 4], [1, 2, 3])
        with pytest.raises(ValueError, match="at least 4"):
            fit_loglog_slope([1, 2, 3], [1, 2, 3])
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([1, 2, 3, 0], [1, 2, 3, 4])
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([1, 2, 3, 4], [1, 2, 3, -4])
        with pytest.raises(ValueError, match="2 distinct x"):
            fit_loglog_slope([0.1, 0.1, 0.1, 0.1], [1, 2, 3, 4])

    @given(
        slope=st.floats(-4, 4),
        amp=st.floats(0.1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_recovers_any_power_law(self, slope, amp):
        x = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        fit = fit_loglog_slope(x, amp * x**slope)
        assert fit.slope == pytest.approx(slope, abs=1e-8)

