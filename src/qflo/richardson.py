"""Well-conditioned Richardson extrapolation over inverse step size.

Node ratios come from Chebyshev points x_j = sin^2(pi(2j-1)/(8m)) with
R = sqrt(8) m / pi, k_j = ceil(R / sqrt(x_j)) and y_j = k_j^2.  Weights are
always computed from the realized step times via the closed-form product

    b_k = prod_{j != k} 1 / (1 - t_k / t_j),

never from the ideal nodes, so moment cancellation holds for the schedule
actually simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChebyshevNodes:
    m: int
    x: np.ndarray          # Chebyshev points, strictly increasing
    R: float
    k: np.ndarray          # integer ratios, strictly decreasing
    y: np.ndarray          # step-count ratios (k^2, or k for the unsquared variant)
    squared: bool = True


@dataclass(frozen=True)
class Weights:
    b: np.ndarray

    @property
    def one_norm(self) -> float:
        return float(np.abs(self.b).sum())


def chebyshev_x(j: int, k: int) -> float:
    """sin^2(pi (2j - 1) / (4k)) for 1 <= j <= k."""
    if not 1 <= j <= k:
        raise ValueError(f"node index {j} out of range 1..{k}")
    return math.sin(math.pi * (2 * j - 1) / (4 * k)) ** 2


def strictly_decreasing(values) -> list:
    """``values`` as ints, made strictly decreasing: from the second-to-last
    entry back, each one not above its successor is raised to one more."""
    out = [int(v) for v in values]
    for i in range(len(out) - 2, -1, -1):
        out[i] = max(out[i], out[i + 1] + 1)
    return out


def build_nodes(m: int, squared: bool = True) -> ChebyshevNodes:
    """Chebyshev node schedule of order m.

    ``squared=False`` selects the unsquared-ratio variant (y_j = k_j); the
    squared schedule is the default and the one the conditioning analysis
    applies to.
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    x = np.array([chebyshev_x(j, 2 * m) for j in range(1, m + 1)])
    R = math.sqrt(8.0) * m / math.pi
    # x increasing => k decreasing, but the ceilings can collide for small m
    k = np.array(strictly_decreasing(math.ceil(R / math.sqrt(xj)) for xj in x), dtype=np.int64)
    if squared and int(k[0]) ** 2 > np.iinfo(np.int64).max:
        raise OverflowError(f"step-count ratio k_1^2 = {int(k[0]) ** 2:.3e} of order {m} "
                            "does not fit in int64")
    y = k * k if squared else k.copy()
    return ChebyshevNodes(m=m, x=x, R=R, k=k, y=y, squared=squared)


def weights_from_steps(step_times) -> Weights:
    """Lagrange-at-zero weights from realized step times (all distinct, > 0)."""
    t = np.asarray(step_times, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("step_times must be a non-empty 1-d sequence")
    if np.any(t <= 0):
        raise ValueError("step times must be positive")
    if np.unique(t).size != t.size:
        raise ValueError("step times must be distinct")
    # b_i /= 1 - t_i / t_j over j != i in ascending order, all i at once;
    # the division by 1.0 at j == i is exact.
    b = np.ones(t.size)
    for j in range(t.size):
        col = 1.0 - t / t[j]
        col[j] = 1.0
        b /= col
    return Weights(b=b)


def vandermonde_residuals(weights: Weights, step_sizes, max_power: int) -> np.ndarray:
    """Moment residuals rho_0..rho_max_power.

    rho_0 = sum b_j - 1; for p >= 1, rho_p = sum_j b_j s_j^p normalized by
    sum_j |b_j| s_j^p.
    """
    s = np.asarray(step_sizes, dtype=float)
    b = weights.b
    if s.size != b.size:
        raise ValueError("step_sizes length does not match weights")
    res = np.empty(max_power + 1)
    res[0] = b.sum() - 1.0
    for p in range(1, max_power + 1):
        sp = s ** p
        res[p] = float(b @ sp) / float(np.abs(b) @ sp)
    return res


def extrapolate(values, weights: Weights) -> float:
    """sum_j b_j f_j, the sum of the rounded products correctly rounded
    (``math.fsum``), so independent of the order of the nodes."""
    f = np.asarray(values, dtype=float)
    b = weights.b
    if f.size != b.size:
        raise ValueError(f"got {f.size} values for {b.size} weights")
    return math.fsum(b * f)
