"""Log-log slope fitting for empirical order-of-convergence checks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def fit_loglog_slope(x, y) -> SlopeFit:
    """Ordinary least squares on (ln x, ln y).

    Requires at least 4 strictly positive points with at least 2 distinct
    x values; a single x has no slope.  A constant y gives slope 0 with
    r_squared defined as 1.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size != y.size:
        raise ValueError("x and y lengths differ")
    if x.size < 4:
        raise ValueError(f"need at least 4 points for a slope fit, got {x.size}")
    if np.any(x <= 0) or np.any(y <= 0):
        raise ValueError("slope fit requires strictly positive data")
    if np.unique(x).size < 2:
        raise ValueError("slope fit needs at least 2 distinct x values")
    lx, ly = np.log(x), np.log(y)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot < 1e-300 else 1.0 - ss_res / ss_tot
    return SlopeFit(slope=float(slope), intercept=float(intercept), r_squared=r2)
