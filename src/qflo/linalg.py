"""Dense complex linear algebra for channels and superoperators.

Everything here works on plain ``numpy`` arrays.  Operators are d x d
complex matrices; superoperators are d^2 x d^2 matrices acting on
column-stacked (Fortran-order) vectorizations, so conjugation by a
unitary U is represented by conj(U) (x) U and the commutator action
ad_H by I (x) H - H^T (x) I.
"""

from __future__ import annotations

import math

import numpy as np

HERMITICITY_RTOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
LOG_EIG_TOL = 1e-10
LOG_COND_CAP = 1e8


class NonHermitianError(ValueError):
    """Input fails the Hermiticity tolerance."""


class LogarithmError(ArithmeticError):
    """The matrix logarithm does not exist (eigenvalue at/near zero)."""

    def __init__(self, min_eig_modulus: float):
        super().__init__(f"logarithm does not exist: minimum eigenvalue modulus "
                         f"{min_eig_modulus:.3e} <= {LOG_EIG_TOL:.1e}")
        self.min_eig_modulus = min_eig_modulus


class NearDefectiveError(ArithmeticError):
    """Eigenvector matrix too ill-conditioned for a reliable logarithm."""


def _as_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=complex)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise ValueError("matrix contains non-finite entries")
    return M


def hermiticity_defect(M) -> float:
    """max-norm of M - M^dag relative to the max-norm of M."""
    M = _as_square(M)
    scale = np.abs(M).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(M - M.conj().T).max() / scale)


def require_hermitian(M) -> np.ndarray:
    M = _as_square(M)
    defect = hermiticity_defect(M)
    if defect > HERMITICITY_RTOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: relative defect {defect:.3e} > {HERMITICITY_RTOL:.1e}"
        )
    return M


def check_density_matrix(rho) -> np.ndarray:
    """Validate trace-1 PSD Hermitian input; returns the array unchanged."""
    rho = require_hermitian(rho)
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_TOL:.1e}")
    wmin = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if wmin < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return rho


def hermitian_eig(H):
    """Eigendecomposition of a Hermitian operator.

    Returns (w, V) with eigenvalues ascending and V unitary,
    H = V diag(w) V^dag.
    """
    H = require_hermitian(H)
    w, V = np.linalg.eigh(H)
    return w, V


def unitary_exp(H, theta: float) -> np.ndarray:
    """exp(-i theta H) for Hermitian H, via eigendecomposition.  Raises
    OverflowError where theta times an eigenvalue is not finite, as the
    phases would be NaN."""
    w, V = hermitian_eig(H)
    with np.errstate(over="ignore"):
        angles = theta * w
    if not np.isfinite(angles).all():
        raise OverflowError(f"phase of exp(-i theta H) is not finite at theta = {theta!r}")
    return (V * np.exp(-1j * angles)) @ V.conj().T


def vectorize(B) -> np.ndarray:
    """Column-stacking vectorization."""
    B = _as_square(B)
    return B.reshape(-1, order="F")


def devectorize(v) -> np.ndarray:
    v = np.asarray(v, dtype=complex).reshape(-1)
    d = math.isqrt(v.size)
    if d * d != v.size:
        raise ValueError(f"vector length {v.size} is not a perfect square")
    return v.reshape((d, d), order="F")


def superoperator_dim(S) -> int:
    """Underlying operator dimension d of a d^2 x d^2 superoperator."""
    S = _as_square(S)
    d = math.isqrt(S.shape[0])
    if d * d != S.shape[0]:
        raise ValueError(f"superoperator dimension {S.shape[0]} is not a perfect square")
    return d


def conjugation_superoperator(U) -> np.ndarray:
    """Superoperator of B -> U B U^dag."""
    U = _as_square(U)
    return np.kron(U.conj(), U)


def adjoint_superoperator(H) -> np.ndarray:
    """Matrix of ad_H : B -> [H, B] = HB - BH."""
    H = require_hermitian(H)
    d = H.shape[0]
    eye = np.eye(d)
    return np.kron(eye, H) - np.kron(H.T, eye)


def apply_superoperator(S, B) -> np.ndarray:
    d = superoperator_dim(S)
    B = _as_square(B)
    if B.shape[0] != d:
        raise ValueError(f"operator dimension {B.shape[0]} does not match superoperator ({d})")
    return devectorize(S @ vectorize(B))


def _log1p(mu) -> np.ndarray:
    """Principal log(1 + mu) for complex mu, without rounding 1 + mu where
    |1 + mu| is near 1 (numpy's complex log1p loses the real part there)."""
    w = 1.0 + mu
    r2m1 = mu.real * (2.0 + mu.real) + mu.imag ** 2   # |1 + mu|^2 - 1
    near = r2m1 > -0.5
    log_mod = np.where(near, 0.5 * np.log1p(np.where(near, r2m1, 0.0)), np.log(np.abs(w)))
    return log_mod + 1j * np.angle(w)


def _log_from_eig(spectra) -> list:
    """V diag(log(1 + mu)) V^-1 for each block's eigenpairs (mu, V) of S - I.

    ``matrix_log_principal``'s checks run over all blocks at once, as on the
    block-diagonal matrix they make up: the smallest |1 + mu| against
    LOG_EIG_TOL, and max sigma_max / min sigma_min of the eigenvector blocks
    against LOG_COND_CAP.
    """
    min_mod = min(float(np.abs(1.0 + mu).min()) for mu, _ in spectra)
    if min_mod <= LOG_EIG_TOL:
        raise LogarithmError(min_mod)
    sv = [np.linalg.svd(V, compute_uv=False) for _, V in spectra]
    with np.errstate(divide="ignore"):
        cond = float(max(s[0] for s in sv) / min(s[-1] for s in sv))
    if cond > LOG_COND_CAP:
        raise NearDefectiveError(
            f"near-defective superoperator: eigenvector condition number {cond:.3e} > {LOG_COND_CAP:.1e}"
        )
    return [(V * _log1p(mu)) @ np.linalg.inv(V) for mu, V in spectra]


def matrix_log_principal(S) -> np.ndarray:
    """Principal matrix logarithm of a diagonalizable superoperator.

    Diagonalizes S and takes the principal log of each eigenvalue
    (arguments in (-pi, pi]).  Raises LogarithmError when an eigenvalue
    modulus falls at or below LOG_EIG_TOL and NearDefectiveError when the
    eigenvector matrix condition number exceeds LOG_COND_CAP.
    """
    w, V = np.linalg.eig(_as_square(S))
    return _log_from_eig([(w - 1.0, V)])[0]


def choi_matrix(S) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij E_ij (x) S(E_ij)."""
    d = superoperator_dim(S)
    C = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            C[i * d:(i + 1) * d, j * d:(j + 1) * d] = apply_superoperator(S, E)
    return C


def cptp_check(S) -> dict:
    """Trace-preservation defect and minimum Choi eigenvalue of a superoperator."""
    S = _as_square(S)
    d = superoperator_dim(S)
    # tr(S(E_ij)) for all matrix units at once: vec(I)^dag S vs vec(I)^dag
    tvec = vectorize(np.eye(d)).conj()
    defect = float(np.abs(tvec @ S - tvec).max())
    C = choi_matrix(S)
    min_eig = float(np.linalg.eigvalsh((C + C.conj().T) / 2.0).min())
    return {"trace_preservation_defect": defect, "choi_min_eig": min_eig}


def spectral_norm(M) -> float:
    """Largest singular value."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.norm(M, 2))
