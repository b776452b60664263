import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qflo import linalg
from qflo.linalg import (
    LogarithmError,
    NearDefectiveError,
    NonHermitianError,
    adjoint_superoperator,
    apply_superoperator,
    choi_matrix,
    cptp_check,
    devectorize,
    hermitian_eig,
    hermiticity_defect,
    matrix_log_principal,
    require_hermitian,
    spectral_norm,
    unitary_exp,
    vectorize,
)

from test_channel import conjugation_superoperator

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def random_hermitian(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (M + M.conj().T) / 2


def random_unitary(rng, d):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


class TestHermitianEig:
    def test_pauli_z(self):
        w, _ = hermitian_eig(Z)
        assert np.allclose(w, [-1, 1])

    def test_identity(self):
        w, V = hermitian_eig(np.eye(4))
        assert np.allclose(w, 1)
        assert np.allclose(V.conj().T @ V, np.eye(4), atol=1e-10)

    def test_two_level_closed_form(self):
        # eigenvalues +-sqrt(0.36 + 0.64)
        w, _ = hermitian_eig(0.6 * X + 0.8 * Z)
        assert np.allclose(w, [-1, 1], atol=1e-12)

    def test_reconstruction(self, rng):
        H = random_hermitian(rng, 8)
        w, V = hermitian_eig(H)
        err = np.linalg.norm(H - (V * w) @ V.conj().T)
        assert err <= 1e-10 * (1 + np.linalg.norm(H))
        assert np.abs(V.conj().T @ V - np.eye(8)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_require_hermitian_checks_its_input_once(monkeypatch):
    calls = []
    as_square = linalg._as_square
    monkeypatch.setattr(linalg, "_as_square", lambda M: calls.append(1) or as_square(M))
    assert np.array_equal(require_hermitian(Z), Z)
    assert len(calls) == 1
    with pytest.raises(NonHermitianError):
        require_hermitian([[0, 1], [0, 0]])
    # hermiticity_defect keeps its own check and value
    assert hermiticity_defect([[0, 1], [0, 0]]) == 1.0
    with pytest.raises(ValueError, match="non-finite"):
        hermiticity_defect([[np.nan, 0], [0, 1]])


class TestUnitaryExp:
    def test_diagonal(self):
        t = 0.37
        assert np.allclose(unitary_exp(Z, t), np.diag([np.exp(-1j * t), np.exp(1j * t)]))

    def test_zero_angle(self):
        assert np.allclose(unitary_exp(X + 2 * Z, 0.0), I2)

    def test_half_pi_x(self):
        assert np.allclose(unitary_exp(X, np.pi / 2), -1j * X, atol=1e-12)

    @given(s=st.floats(-2, 2), t=st.floats(-2, 2), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_group_property(self, s, t, seed):
        H = random_hermitian(np.random.default_rng(seed), 4)
        lhs = unitary_exp(H, s + t)
        rhs = unitary_exp(H, s) @ unitary_exp(H, t)
        assert np.abs(lhs - rhs).max() <= 1e-10


class TestVectorization:
    def test_roundtrip(self, rng):
        B = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        assert np.array_equal(devectorize(vectorize(B)), B)

    def test_column_stacking(self):
        B = np.array([[1, 2], [3, 4]], dtype=complex)
        assert np.array_equal(vectorize(B), np.array([1, 3, 2, 4], dtype=complex))

    def test_conjugation_identity(self):
        assert np.allclose(conjugation_superoperator(I2), np.eye(4))

    def test_conjugation_xzx(self):
        S = conjugation_superoperator(X)
        assert np.abs(apply_superoperator(S, Z) + Z).max() <= 1e-12

    def test_conjugation_random_oracle(self, rng):
        U = random_unitary(rng, 4)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        S = conjugation_superoperator(U)
        assert np.abs(apply_superoperator(S, B) - U @ B @ U.conj().T).max() <= 1e-12


class TestAdjointSuperoperator:
    def test_pauli_algebra(self):
        S = adjoint_superoperator(Z)
        assert np.abs(apply_superoperator(S, X) - 2j * Y).max() <= 1e-12

    def test_identity_commutes(self):
        assert np.abs(adjoint_superoperator(I2)).max() == 0.0

    def test_commutator_oracle(self, rng):
        H = random_hermitian(rng, 4)
        B = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        S = adjoint_superoperator(H)
        assert np.abs(apply_superoperator(S, B) - (H @ B - B @ H)).max() <= 1e-12

    def test_spectrum_is_eigenvalue_differences(self, rng):
        H = random_hermitian(rng, 4)
        w, _ = hermitian_eig(H)
        expected = np.sort((w[:, None] - w[None, :]).ravel())
        actual = np.sort(np.linalg.eigvals(adjoint_superoperator(H)).real)
        imag = np.abs(np.linalg.eigvals(adjoint_superoperator(H)).imag).max()
        assert imag <= 1e-8
        assert np.abs(expected - actual).max() <= 1e-8


class TestMatrixLog:
    def test_log_identity(self):
        assert np.abs(matrix_log_principal(np.eye(9))).max() == 0.0

    def test_roundtrip_ad_x(self):
        M = -1j * 0.1 * adjoint_superoperator(X)
        S = scipy.linalg.expm(M)
        assert np.abs(matrix_log_principal(S) - M).max() <= 1e-8

    def test_depolarizing_has_no_log(self, depolarizing):
        from qflo.generator import channel_superoperator

        S = channel_superoperator(depolarizing, (np.pi / 2) / depolarizing.lam)
        with pytest.raises(LogarithmError, match="logarithm does not exist") as info:
            matrix_log_principal(S)
        assert 0.0 <= info.value.min_eig_modulus <= 1e-10

    def test_near_defective_rejected(self):
        S = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)  # Jordan block
        with pytest.raises(NearDefectiveError):
            matrix_log_principal(S)

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=25, deadline=None)
    def test_log_exp_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M = (A - A.conj().T) / 2
        M *= min(1.0, 1.0 / spectral_norm(M))
        S = scipy.linalg.expm(M)
        assert np.abs(matrix_log_principal(S) - M).max() <= 1e-8



def _svd_first_log_from_eig(spectra) -> list:
    """The conditioning guard as an SVD of every eigenvector block, taken
    before the logarithm inverts them: the oracle for ``_log_from_eig``."""
    min_mod = min(float(np.abs(1.0 + mu).min()) for mu, _ in spectra)
    if min_mod <= linalg.LOG_EIG_TOL:
        raise LogarithmError(min_mod)
    sv = [np.linalg.svd(V, compute_uv=False) for _, V in spectra]
    with np.errstate(divide="ignore"):
        cond = float(max(s[0] for s in sv) / min(s[-1] for s in sv))
    if cond > linalg.LOG_COND_CAP:
        raise NearDefectiveError(
            f"near-defective superoperator: eigenvector condition number {cond:.3e} > "
            f"{linalg.LOG_COND_CAP:.1e}"
        )
    return [(V * linalg._log1p(mu)) @ np.linalg.inv(V) for mu, V in spectra]


def _eigenpairs(seed, d, kappa, scale=1.0):
    """(mu, V) with V = scale Q diag(sigma) R, Q and R random unitaries and
    sigma log-spaced from 1 down to 1 / kappa, so kappa_2(V) = kappa."""
    rng = np.random.default_rng(seed)
    V = scale * (random_unitary(rng, d) * np.geomspace(1.0, 1.0 / kappa, d)) @ random_unitary(rng, d)
    return 0.2 * (rng.normal(size=d) + 1j * rng.normal(size=d)), V


def _singular_eigenpairs():
    mu, V = _eigenpairs(1, 4, 10.0)
    V[:, -1] = 0.0   # an exact zero pivot: inv raises
    return [(mu, V)]


def _nan_eigenpairs():
    mu, V = _eigenpairs(2, 4, 10.0)
    V[1, 2] = np.nan
    return [(mu, V)]


def _no_log_eigenpairs():
    mu, V = _eigenpairs(3, 8, 1e12)
    mu[0] = -1.0
    return [(mu, V)]


GUARD_CASES = {
    **{f"kappa {kappa:g}": (lambda kappa=kappa: [_eigenpairs(0, 8, kappa)])
       for kappa in (1.0, 1e3, 1e4, 1e7, 1e8 * (1 - 1e-2), 1e8 * (1 + 1e-2), 1e12)},
    "kappa 10 at d = 64": lambda: [_eigenpairs(4, 64, 10.0)],
    "singular": _singular_eigenpairs,
    "nan": _nan_eigenpairs,
    "no logarithm": _no_log_eigenpairs,
    "one of three blocks ill-conditioned": lambda: [
        _eigenpairs(5, 8, 2.0), _eigenpairs(6, 8, 1e12), _eigenpairs(7, 4, 3.0)],
    "one of three blocks at kappa 1e3": lambda: [
        _eigenpairs(8, 8, 2.0), _eigenpairs(9, 8, 1e3), _eigenpairs(10, 4, 3.0)],
    # each block is unitary up to scale; the block-diagonal whole is not
    "blocks scaled 1e2, 1, 1e-2": lambda: [
        _eigenpairs(11, 4, 1.0, 1e2), _eigenpairs(12, 4, 1.0), _eigenpairs(13, 4, 1.0, 1e-2)],
    "blocks scaled 1e5, 1, 1e-5": lambda: [
        _eigenpairs(14, 4, 1.0, 1e5), _eigenpairs(15, 4, 1.0), _eigenpairs(16, 4, 1.0, 1e-5)],
}


def _guard_outcome(log_from_eig, spectra):
    try:
        return [block.tobytes() for block in log_from_eig(spectra)]
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("case", GUARD_CASES.values(), ids=GUARD_CASES.keys())
def test_conditioning_guard_matches_svd_first_guard(case):
    # the same error with the same message, or logarithms equal to the bit
    expected = _guard_outcome(_svd_first_log_from_eig, case())
    assert _guard_outcome(linalg._log_from_eig, case()) == expected


def _stacked(spectra) -> list:
    """The eigenpairs stacked by block shape, as the generator passes them."""
    groups = {}
    for mu, V in spectra:
        groups.setdefault(V.shape, []).append((mu, V))
    return [(np.stack([mu for mu, _ in g]), np.stack([V for _, V in g])) for g in groups.values()]


@pytest.mark.parametrize("case", GUARD_CASES.values(), ids=GUARD_CASES.keys())
def test_stacked_blocks_match_svd_first_guard_block_by_block(case):
    # one inv (and, where the guard needs them, one SVD) per stack of equal
    # shapes gives each block's logarithm to the bit, or the same error;
    # in every case blocks of one shape are adjacent, so the order holds
    expected = _guard_outcome(_svd_first_log_from_eig, case())

    def log_from_stacks(spectra):
        return [block for stack in linalg._log_from_eig(_stacked(spectra)) for block in stack]

    assert _guard_outcome(log_from_stacks, case()) == expected

class TestCptpCheck:
    def test_unitary_channel(self, rng):
        S = conjugation_superoperator(random_unitary(rng, 4))
        report = cptp_check(S)
        assert report["trace_preservation_defect"] <= 1e-12
        assert report["choi_min_eig"] >= -1e-12

    def test_convex_mixture(self, rng):
        p = rng.dirichlet(np.ones(3))
        S = sum(
            pi * conjugation_superoperator(random_unitary(rng, 4)) for pi in p
        )
        report = cptp_check(S)
        assert report["trace_preservation_defect"] <= 1e-12
        assert report["choi_min_eig"] >= -1e-12

    def test_transpose_map_not_cp(self):
        # transpose on one qubit: vec(B^T) = SWAP vec(B)
        S = np.zeros((4, 4))
        S[0, 0] = S[3, 3] = 1.0
        S[1, 2] = S[2, 1] = 1.0
        report = cptp_check(S)
        oracle = np.linalg.eigvalsh(choi_matrix(S)).min()
        assert abs(report["choi_min_eig"] - (-1.0)) <= 1e-12
        assert abs(report["choi_min_eig"] - oracle) <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_choi_matrix_is_the_sum_over_matrix_units(self, d, rng):
        # the realignment of S, to the bit, against sum_ij E_ij (x) S(E_ij)
        S = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
        units = np.eye(d * d).reshape(d * d, d, d)   # E_ij at i d + j
        expected = sum(np.kron(E, apply_superoperator(S, E)) for E in units)
        assert np.array_equal(choi_matrix(S), expected)


class TestNorms:
    def test_pauli_x(self):
        assert spectral_norm(X) == pytest.approx(1.0)

    def test_zero(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_diagonal(self):
        M = np.diag([3.0, -4.0])
        assert spectral_norm(M) == pytest.approx(4.0)

    def test_stack_is_its_largest_block(self, rng):
        blocks = rng.normal(size=(3, 5, 5)) + 1j * rng.normal(size=(3, 5, 5))
        assert spectral_norm(blocks) == max(spectral_norm(b) for b in blocks)
