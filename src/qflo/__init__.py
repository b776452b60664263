"""qFLO: randomized-compilation Hamiltonian time evolution with
well-conditioned Richardson extrapolation, at desk scale."""

__version__ = "0.1.0"

from .analysis import fit_loglog_slope
from .channel import (
    ObservableMeasurer,
    channel_iterate_exact,
    exact_expectation,
    expectation_exact,
    node_values_exact,
    sample_shots,
    substream,
)
from .generator import (
    GeneratorProbe,
    channel_superoperator,
    ek_bound_probe,
    generator_probe,
    log_existence_check,
    series_probe,
)
from .hamiltonian import (
    HamiltonianDecomposition,
    HamiltonianFormatError,
    PauliRotations,
    PauliString,
    WeightedTerm,
    load_hamiltonian,
    parse_hamiltonian,
)
from .linalg import (
    LogarithmError,
    NearDefectiveError,
    NonHermitianError,
    adjoint_superoperator,
    apply_superoperator,
    choi_matrix,
    cptp_check,
    devectorize,
    hermitian_eig,
    matrix_log_principal,
    spectral_norm,
    unitary_exp,
    vectorize,
)
from .pipeline import (
    ErrorBudget,
    QfloRequest,
    QfloResult,
    base_step_count,
    budget_split,
    richardson_error_bound,
    richardson_estimate_noiseless,
    run,
    select_order,
    shots_per_node,
    step_counts,
)
from .richardson import (
    ChebyshevNodes,
    Weights,
    build_nodes,
    chebyshev_x,
    extrapolate,
    vandermonde_residuals,
    weights_from_steps,
)
