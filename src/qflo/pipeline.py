"""End-to-end estimator: the plan (order, step counts, weights, shots, gate
count, error bound), fixed before any node runs, then the nodes' work.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .channel import ObservableMeasurer, _integer, node_values_exact, sample_shots
from .hamiltonian import HamiltonianDecomposition
from .linalg import hermitian_eig
from .richardson import (
    ChebyshevNodes,
    Weights,
    build_nodes,
    extrapolate,
    strictly_decreasing,
    weights_from_steps,
)


@dataclass(frozen=True)
class QfloRequest:
    hamiltonian: HamiltonianDecomposition
    initial_state: np.ndarray          # unit vector, or density matrix
    observable: np.ndarray
    total_time: float
    epsilon: float
    delta: float
    master_seed: int
    mode: str = "noiseless"            # "noiseless" | "shot_sampled"
    order_policy: str = "log"          # "log" | "loglog"
    schedule: str = "squared"          # "squared" | "pseudocode"

    def __post_init__(self):
        if not 0 < self.epsilon < 1:
            raise ValueError(f"epsilon must be in (0, 1), got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 < self.total_time < math.inf:
            raise ValueError(f"total_time must be positive and finite, got {self.total_time!r}")
        _integer(self.master_seed, 0, "master_seed")
        if self.mode not in ("noiseless", "shot_sampled"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.order_policy not in ("log", "loglog"):
            raise ValueError(f"unknown order policy {self.order_policy!r}")
        if self.schedule not in ("squared", "pseudocode"):
            raise ValueError(f"unknown schedule {self.schedule!r}")


@dataclass(frozen=True)
class ErrorBudget:
    extrapolation: float
    data: float


@dataclass(frozen=True)
class NodeStats:
    step_count: int
    shots: int
    mean: float
    standard_error: float


@dataclass(frozen=True)
class QfloResult:
    estimate: float
    per_node: tuple
    weights: Weights
    total_gate_count: int
    max_depth: int
    theoretical_bound: float
    bound_convergent: bool
    theoretical_bound_log10: float
    error_budget: ErrorBudget
    order: int
    ideal_one_norm: float
    realized_one_norm: float
    shots_per_node: int

    def to_dict(self) -> dict:
        return {**asdict(self), "weights": list(self.weights.b)}


def select_order(epsilon: float, policy: str = "log") -> int:
    """Extrapolation order from the target precision; floored at 2.

    The default is ceil(ln(1/eps)); the "loglog" policy divides by the
    iterated logarithm, trading order for depth at small eps.
    """
    if not 0 < epsilon < 1:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    L = math.log(1.0 / epsilon)
    if policy == "log":
        m = math.ceil(L)
    elif policy == "loglog":
        m = math.ceil(L / max(math.log(L), 1.0))
    else:
        raise ValueError(f"unknown order policy {policy!r}")
    return max(m, 2)


def base_step_count(lam: float, T: float, epsilon: float, m: int, one_norm: float,
                    schedule: str = "squared") -> int:
    """Step count N_m = ceil(4 (8 lam T)^2 (|b|_1 / eps)^(1/m)) of the last
    node, ``step_counts[-1]``: the fewest steps, so the coarsest node, whose
    step size s_m = 1/N_m the error bound is taken at.

    The "pseudocode" schedule swaps |b|_1 for ln(m) in the power factor.
    The count is floored at 1, where the product underflows at tiny lam T.
    """
    if lam * T <= 0:
        raise ValueError("lambda * T must be > 0")
    if schedule not in ("squared", "pseudocode"):
        raise ValueError(f"unknown schedule {schedule!r}")
    factor = one_norm if schedule == "squared" else math.log(m)
    try:
        count = 4.0 * (8.0 * lam * T) ** 2 * (factor / epsilon) ** (1.0 / m)
    except OverflowError:   # float ** raises where float * returns inf
        count = math.inf
    if math.isinf(count):
        raise OverflowError(f"step count {count:.3e} does not fit in int64")
    return max(1, math.ceil(count))


def step_counts(nodes: ChebyshevNodes, N_m: int) -> np.ndarray:
    """Realized int64 step counts N_j = ceil(N_m y_j / y_m), made strictly decreasing."""
    if N_m < 1:
        raise ValueError(f"N_m must be >= 1, got {N_m}")
    y = nodes.y
    # y decreasing along the node order => N decreasing, up to collisions
    N = strictly_decreasing(math.ceil(N_m * int(yj) / int(y[-1])) for yj in y)
    if max(N) > np.iinfo(np.int64).max:
        raise OverflowError(f"step count {max(N):.3e} does not fit in int64")
    return np.array(N, dtype=np.int64)


def budget_split(epsilon: float, one_norm: float) -> ErrorBudget:
    """eps_ext = eps/2 and eps_data = eps/(2 |b|_1), so that
    eps_ext + |b|_1 * eps_data = eps exactly as computed."""
    if epsilon <= 0 or one_norm <= 0:
        raise ValueError("epsilon and one_norm must be > 0")
    return ErrorBudget(extrapolation=epsilon / 2.0, data=epsilon / (2.0 * one_norm))


def shots_per_node(norm_A: float, eps_data: float, delta: float, m: int) -> int:
    """Two-sided Hoeffding budget over m simultaneous node estimates, at
    least one shot: for A = 0 every outcome is 0, and one shot is exact."""
    if eps_data <= 0:
        raise ValueError(f"eps_data must be > 0, got {eps_data}")
    return max(1, math.ceil((norm_A / eps_data) ** 2 * math.log(2.0 * m / delta)))


def richardson_error_bound(lam: float, T: float, s_m: float, m: int,
                           norm_A: float, one_norm: float):
    """Extrapolation-error series |A| |b|_1 sum_{j>=m} (8 lam T s_m)^j
    * sum_{l=1}^m (8 lam T)^l / l!, with the geometric tail summed in
    closed form, q^m / (1 - q) for q = 8 lam T s_m, and the inner terms as
    x^l / l! = (x^(l-1) / (l-1)!) x / l, finite where x^l and l! are not.

    Returns (bound, convergent); non-convergent (ratio >= 1) is reported,
    never summed, and a bound that is not finite raises OverflowError.
    """
    q, inner = _bound_factors(lam, T, s_m, m)
    if q >= 1.0:
        return math.inf, False
    bound = norm_A * one_norm * inner * q ** m / (1.0 - q)
    if not math.isfinite(bound):
        raise OverflowError(f"error bound of order {m} at lambda T = {lam * T!r} is not finite")
    return bound, True


def _bound_factors(lam: float, T: float, s_m: float, m: int) -> tuple:
    """(q, inner) of ``richardson_error_bound``: the ratio 8 lam T s_m and
    sum_{l=1}^m (8 lam T)^l / l!."""
    x = 8.0 * lam * T
    inner = 0.0
    term = 1.0
    for l in range(1, m + 1):
        term *= x / l
        inner += term
    return x * s_m, inner


def _log10_error_bound(lam: float, T: float, s_m: float, m: int,
                       norm_A: float, one_norm: float) -> float:
    """log10 of ``richardson_error_bound``'s bound, summed in log space,
    log10 |A| + log10 |b|_1 + log10(inner) + m log10 q - log10(1 - q), so
    that it stays finite where q^m, and with it the bound, underflows to 0;
    inf where the series does not converge, -inf where a factor is 0."""
    q, inner = _bound_factors(lam, T, s_m, m)
    if q >= 1.0:
        return math.inf
    a, b, c, r = (math.log10(v) if v > 0 else -math.inf for v in (norm_A, one_norm, inner, q))
    return a + b + c + m * r - math.log10(1.0 - q)


def richardson_estimate_noiseless(H, initial_state, A, T: float, m: int, N_m: int):
    """Noiseless order-m estimate on the squared schedule whose coarsest node
    takes N_m steps.

    Returns (estimate, step counts, Weights); the backbone of the
    order-scaling experiments, where N_m is swept directly.
    """
    counts = step_counts(build_nodes(m), N_m)
    weights = weights_from_steps(T / counts)
    values = node_values_exact(H, A, initial_state, T, counts)
    return extrapolate(values, weights), counts, weights


def run(request: QfloRequest) -> QfloResult:
    H = request.hamiltonian
    A = request.observable   # checked by the measurer, or hermitian_eig and the exact path
    T = request.total_time

    # The plan, fixed before any node runs.  The budget split uses
    # ideal-node weights: it must be fixed before shots are allocated, and
    # only the ratios of the nodes matter.
    m = select_order(request.epsilon, request.order_policy)
    nodes = build_nodes(m, squared=(request.schedule == "squared"))
    ideal_weights = weights_from_steps(1.0 / nodes.y.astype(float))
    budget = budget_split(request.epsilon, ideal_weights.one_norm)
    N_m = base_step_count(H.lam, T, budget.extrapolation, m,
                          ideal_weights.one_norm, request.schedule)
    counts = step_counts(nodes, N_m)
    weights = weights_from_steps(T / counts)
    if request.mode == "noiseless":
        norm_A = float(np.abs(hermitian_eig(A)[0]).max())   # ObservableMeasurer(A).norm
        shots = 0
    else:
        measurer = ObservableMeasurer(A)
        norm_A = measurer.norm
        shots = shots_per_node(norm_A, budget.data, request.delta, m)
    gates = sum(counts.tolist()) * max(shots, 1)   # Python ints: exact past int64
    bound_inputs = (H.lam, T, 1.0 / int(counts[-1]), m, norm_A, weights.one_norm)
    bound, convergent = richardson_error_bound(*bound_inputs)

    if request.mode == "noiseless":
        values = node_values_exact(H, A, request.initial_state, T, counts)
        errors = np.zeros(m)
    else:
        outcomes = sample_shots(H, measurer, request.initial_state, T, counts, shots,
                                request.master_seed)
        values = outcomes.mean(axis=1)
        errors = outcomes.std(axis=1, ddof=1) / math.sqrt(shots) if shots > 1 else np.zeros(m)

    return QfloResult(
        estimate=extrapolate(values, weights),
        per_node=tuple(
            NodeStats(step_count=int(N), shots=shots, mean=float(v), standard_error=float(e))
            for N, v, e in zip(counts, values, errors)
        ),
        weights=weights,
        total_gate_count=gates,
        max_depth=int(counts.max()),
        theoretical_bound=bound,
        bound_convergent=convergent,
        theoretical_bound_log10=_log10_error_bound(*bound_inputs),
        error_budget=budget,
        order=m,
        ideal_one_norm=ideal_weights.one_norm,
        realized_one_norm=weights.one_norm,
        shots_per_node=shots,
    )
