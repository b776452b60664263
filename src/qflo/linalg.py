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
_LOG_SERIES_RADIUS = 0.1   # |mu| up to which log1p(mu) - mu is summed as its series


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
    return _defect(_as_square(M))


def _defect(M) -> float:
    scale = np.abs(M).max()   # M checked by _as_square
    return float(np.abs(M - M.conj().T).max() / scale) if scale else 0.0


def require_hermitian(M) -> np.ndarray:
    M = _as_square(M)
    defect = _defect(M)
    if defect > HERMITICITY_RTOL:
        raise NonHermitianError(
            f"matrix is not Hermitian: relative defect {defect:.3e} > {HERMITICITY_RTOL:.1e}"
        )
    return M


def check_density_matrix(rho, eigenpairs: bool = False):
    """Validate trace-1 PSD Hermitian input; returns the array unchanged or,
    with ``eigenpairs``, (w, V) = eigh of its Hermitian part, the one
    decomposition whose eigenvalues the PSD check reads."""
    rho = require_hermitian(rho)
    tr = np.trace(rho)
    if abs(tr - 1.0) > TRACE_TOL:
        raise ValueError(f"density matrix trace {tr} is not 1 within {TRACE_TOL:.1e}")
    hermitian_part = (rho + rho.conj().T) / 2.0
    if eigenpairs:
        w, V = np.linalg.eigh(hermitian_part)
    else:
        w = np.linalg.eigvalsh(hermitian_part)
    wmin = float(w.min())
    if wmin < -PSD_TOL:
        raise ValueError(f"density matrix has negative eigenvalue {wmin:.3e}")
    return (w, V) if eigenpairs else rho


def hermitian_eig(H):
    """Eigendecomposition of a Hermitian operator.

    Returns (w, V) with eigenvalues ascending and V unitary,
    H = V diag(w) V^dag.
    """
    return np.linalg.eigh(require_hermitian(H))


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


def _log1pmx(mu) -> np.ndarray:
    """log(1 + mu) - mu for complex mu, principal, to full relative precision
    where |mu| <= _LOG_SERIES_RADIUS: there as its series -mu^2/2 + mu^3/3 -
    ..., by Horner, to as many terms as the largest such |mu| needs.  Past
    the radius ``_log1p(mu) - mu`` loses at most log2(4 / |mu|) bits."""
    size = np.abs(mu)
    small = size <= _LOG_SERIES_RADIUS
    if small.all():
        return _log1pmx_series(mu, float(size.max()))
    out = _log1p(mu) - mu
    if small.any():
        out[small] = _log1pmx_series(mu[small], float(size[small].max()))
    return out


def _log1pmx_series(mu, radius: float) -> np.ndarray:
    """sum_{k=2}^{K} (-1)^(k+1) mu^k / k for |mu| <= radius < 1, with K
    such that radius^(K - 1) <= 2^-53: the first term left out is then
    below 2^-53 relative to mu^2 / 2."""
    terms = 1 if radius < 2.0 ** -53 else math.ceil(53 * math.log(2) / -math.log(radius))
    acc = (-1.0) ** terms / (terms + 1)
    for k in range(terms, 1, -1):
        acc = acc * mu + (-1.0) ** (k + 1) / k
    return acc * mu * mu


def _log_from_eig(spectra, f=_log1p) -> list:
    """V diag(f(mu)) V^-1 for each entry (mu, V) of ``spectra``: the
    eigenpairs of S - I for one block, (m,) and (m, m), or for a stack of
    blocks, (k, m) and (k, m, m), each stack taking one ``inv``.  f is
    log(1 + mu) unless given, as ``_log1pmx`` for log(S) - (S - I).

    ``matrix_log_principal``'s checks run over all blocks at once, as on the
    block-diagonal matrix they make up: the smallest |1 + mu| against
    LOG_EIG_TOL, and max sigma_max / min sigma_min of the eigenvector blocks
    against LOG_COND_CAP.  The second first reads the Frobenius bound
    max ||V_b||_F max ||V_b^-1||_F, at least that ratio, from the inverses
    that the logarithm keeps.  Where the bound is at most sqrt(LOG_COND_CAP),
    the inverses' residual is of order n u times it, about 7e-11 at n = 64,
    so the true ratio lies within that of the bound, far below the cap, and
    no SVD is taken.  Where the bound is larger or not finite, or an inverse
    fails, the SVDs of the blocks decide, one per entry.
    """
    min_mod = min(float(np.abs(1.0 + mu).min()) for mu, _ in spectra)
    if min_mod <= LOG_EIG_TOL:
        raise LogarithmError(min_mod)
    try:
        inverses = [np.linalg.inv(V) for _, V in spectra]
    except np.linalg.LinAlgError:
        inverses = None
    if inverses is None or not _frobenius_bound(spectra, inverses) <= math.sqrt(LOG_COND_CAP):
        sv = [np.linalg.svd(V, compute_uv=False) for _, V in spectra]
        with np.errstate(divide="ignore"):
            cond = float(max(s[..., 0].max() for s in sv) / min(s[..., -1].min() for s in sv))
        if cond > LOG_COND_CAP:
            raise NearDefectiveError(
                f"near-defective superoperator: eigenvector condition number {cond:.3e} > {LOG_COND_CAP:.1e}"
            )
        if inverses is None:
            inverses = [np.linalg.inv(V) for _, V in spectra]
    # one call of f for every entry's mu: on blocks this small its cost is
    # per numpy call, not per eigenvalue
    values = f(np.concatenate([mu.ravel() for mu, _ in spectra]))
    values = np.split(values, np.cumsum([mu.size for mu, _ in spectra])[:-1])
    return [(V * value.reshape(mu.shape)[..., None, :]) @ V_inv
            for (mu, V), value, V_inv in zip(spectra, values, inverses)]


def _frobenius_bound(spectra, inverses) -> float:
    """max ||V_b||_F times max ||V_b^-1||_F over the blocks: NaN where any
    norm is, inf where one overflows, and no warning either way."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.max([np.linalg.norm(V, axis=(-2, -1)).max() for _, V in spectra])
                     * np.max([np.linalg.norm(V_inv, axis=(-2, -1)).max() for V_inv in inverses]))


def matrix_log_principal(S) -> np.ndarray:
    """Principal matrix logarithm of a diagonalizable superoperator.

    Diagonalizes S and takes the principal log of each eigenvalue
    (arguments in (-pi, pi]).  Raises LogarithmError when an eigenvalue
    modulus falls at or below LOG_EIG_TOL and NearDefectiveError when the
    eigenvector matrix condition number exceeds LOG_COND_CAP.  That check
    reads the Frobenius bound ||V||_F ||V^-1||_F from the inverse that the
    logarithm keeps, and takes an SVD of V only when the bound cannot clear
    sqrt(LOG_COND_CAP) (``_log_from_eig``).
    """
    w, V = np.linalg.eig(_as_square(S))
    return _log_from_eig([(w - 1.0, V)])[0]


def choi_matrix(S) -> np.ndarray:
    """Unnormalized Choi matrix sum_ij E_ij (x) S(E_ij), the realignment of
    S: entry (a, b) of block (i, j) is S(E_ij)[a, b] = S[a + b d, i + j d]."""
    S = _as_square(S)
    d = superoperator_dim(S)
    return S.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d * d, d * d)


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
    """Largest singular value of a matrix, or of a stack of them (..., m, n),
    from one SVD call."""
    M = np.asarray(M, dtype=complex)
    if M.size == 0:
        return 0.0
    return float(np.linalg.svd(M, compute_uv=False)[..., 0].max())
