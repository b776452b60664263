"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
suite executes.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import scipy.linalg

from qflo.analysis import fit_loglog_slope
from qflo.channel import exact_expectation, expectation_exact
from qflo.cli import main
from qflo.generator import (
    channel_superoperator,
    ek_bound_probe,
    generator_probe,
    log_existence_check,
)
from qflo.linalg import cptp_check, matrix_log_principal, spectral_norm
from qflo.pipeline import QfloRequest, richardson_estimate_noiseless, run
from qflo.richardson import (
    build_nodes,
    extrapolate,
    vandermonde_residuals,
    weights_from_steps,
)

from conftest import random_hamiltonian


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}", flush=True)
        raise
    print(f"[PASS] criterion {number}: {name}", flush=True)


def test_criterion_01_first_order_convergence(two_qubit):
    with criterion(1, "first-order channel convergence, slope 1.0 +- 0.25"):
        start = time.monotonic()
        H, A, psi0 = two_qubit
        assert H.lam == 1.0 and len(H) == 4 and H.n_qubits == 2
        rho0 = np.outer(psi0, psi0.conj())
        T = 1.0
        exact = exact_expectation(H, A, rho0, T)
        Ns = [2**p for p in range(3, 11)]
        errors = [abs(expectation_exact(H, A, rho0, T, N) - exact) for N in Ns]
        fit = fit_loglog_slope([1.0 / N for N in Ns], errors)
        assert abs(fit.slope - 1.0) <= 0.25
        assert fit.r_squared >= 0.98
        assert time.monotonic() - start < 10.0


def test_criterion_02_order_m_scaling(one_qubit):
    with criterion(2, "order-m extrapolation error slope >= m - 0.3"):
        start = time.monotonic()
        H, A, psi0 = one_qubit
        rho0 = np.outer(psi0, psi0.conj())
        T = 1.0
        exact = exact_expectation(H, A, rho0, T)
        for m in (2, 3, 4):
            s_values, errors = [], []
            for scale in (1.0, 0.5, 0.25, 0.125):
                N_m = math.ceil(8 / scale)
                estimate, counts, _ = richardson_estimate_noiseless(
                    H, psi0, A, T, m, N_m
                )
                s_values.append(1.0 / int(counts[-1]))
                errors.append(abs(estimate - exact))
            fit = fit_loglog_slope(s_values, errors)
            assert fit.slope >= m - 0.3, f"order {m}: slope {fit.slope:.3f}"
        assert time.monotonic() - start < 60.0


def test_criterion_03_node_weight_fixtures():
    with criterion(3, "Chebyshev node/weight fixtures and moment residuals"):
        nodes = build_nodes(2)
        assert list(nodes.k) == [10, 4]
        assert list(nodes.y) == [100, 16]
        w2 = weights_from_steps(1.0 / nodes.y)
        # exact-rational Vandermonde oracle for the m = 2 schedule
        t = [Fraction(1, 100), Fraction(1, 16)]
        exact = [
            float(1 / (1 - t[0] / t[1])),
            float(1 / (1 - t[1] / t[0])),
        ]
        assert abs(w2.b[0] - exact[0]) <= 1e-9
        assert abs(w2.b[1] - exact[1]) <= 1e-9
        assert abs(w2.b[0] - 1.190476190476) <= 1e-9
        assert abs(w2.b[1] + 0.190476190476) <= 1e-9
        for m in range(2, 13):
            s = 1.0 / build_nodes(m).y
            w = weights_from_steps(s)
            assert abs(w.b.sum() - 1.0) <= 1e-12
            res = vandermonde_residuals(w, s, max_power=m - 1)
            assert np.abs(res).max() <= 1e-9


def test_criterion_04_conditioning_growth():
    with criterion(4, "one-norm growth consistent with O(log m); bounded node spread"):
        norms = {
            m: weights_from_steps(1.0 / build_nodes(m).y).one_norm
            for m in (2, 4, 8, 16)
        }
        increments = [norms[4] - norms[2], norms[8] - norms[4], norms[16] - norms[8]]
        for earlier, later in zip(increments, increments[1:]):
            assert later <= earlier + 0.05
        for m in range(1, 33):
            y = build_nodes(m).y
            assert float(y[0]) / float(y[-1]) / m**2 <= 4.0


def test_criterion_05_logarithm_existence(depolarizing, rng):
    with criterion(5, "channel logarithm existence and breakdown cases"):
        report = log_existence_check(depolarizing, (np.pi / 2) / depolarizing.lam)
        assert report["min_eig_modulus"] <= 1e-10
        assert not report["exists"]

        t_ok = 0.4 / depolarizing.lam
        report = log_existence_check(depolarizing, t_ok)
        assert report["exists"]
        S = channel_superoperator(depolarizing, t_ok)
        roundtrip = scipy.linalg.expm(matrix_log_principal(S))
        assert np.abs(roundtrip - S).max() <= 1e-8

        for _ in range(100):
            H = random_hamiltonian(rng, int(rng.integers(1, 3)), int(rng.integers(1, 5)))
            t = float(rng.uniform(0.01, 0.499)) / H.lam  # 2 t lambda < 1
            assert log_existence_check(H, t)["exists"]


def test_criterion_06_generator_convergence(two_qubit):
    with criterion(6, "generator deviation from ad_H vanishes linearly in s"):
        start = time.monotonic()
        H, _, _ = two_qubit
        s_values = [1.0 / 2**p for p in range(4, 9)]
        deviations = [generator_probe(H, s, T=1.0).deviation for s in s_values]
        fit = fit_loglog_slope(s_values, deviations)
        assert abs(fit.slope - 1.0) <= 0.25
        assert time.monotonic() - start < 120.0


def test_criterion_07_ek_bound_probe(one_qubit, two_qubit, depolarizing):
    with criterion(7, "series coefficient estimates within (4 lambda)^k x 1.1"):
        for H, _, _ in (one_qubit, two_qubit):
            for k in (2, 3):
                report = ek_bound_probe(H, 1.0, k)
                assert report["estimate"] <= (4.0 * H.lam) ** k * 1.1
        for k in (2, 3):
            report = ek_bound_probe(depolarizing, 1.0, k)
            assert report["estimate"] <= (4.0 * depolarizing.lam) ** k * 1.1


def test_criterion_08_end_to_end_shot_mode(two_qubit):
    with criterion(8, "shot-budgeted pipeline: >= 16/20 seeds within eps * |A|"):
        start = time.monotonic()
        H, A, psi0 = two_qubit
        T, eps, delta = 1.0, 0.05, 0.1
        exact = exact_expectation(H, A, np.outer(psi0, psi0.conj()), T)
        norm_A = spectral_norm(A)
        hits = 0
        for seed in range(1, 21):
            req = QfloRequest(
                hamiltonian=H, initial_state=psi0, observable=A,
                total_time=T, epsilon=eps, delta=delta,
                master_seed=seed, mode="shot_sampled",
            )
            result = run(req)
            if abs(result.estimate - exact) <= eps * norm_A:
                hits += 1
        assert hits >= 16, f"only {hits}/20 within tolerance"
        assert time.monotonic() - start < 600.0


def test_criterion_09_noise_amplification(rng):
    with criterion(9, "per-node noise amplifies by at most the weight one-norm"):
        for m in (2, 4, 8):
            s = 1.0 / build_nodes(m).y
            w = weights_from_steps(s)
            f = rng.normal(size=m)
            base = extrapolate(f, w)
            eta = 1e-3
            # adversarial perturbation saturates the bound exactly
            adversarial = eta * np.sign(w.b)
            shift = extrapolate(f + adversarial, w) - base
            assert abs(shift - w.one_norm * eta) <= 1e-12
            for _ in range(50):
                noise = rng.uniform(-eta, eta, size=m)
                shift = abs(extrapolate(f + noise, w) - base)
                assert shift <= w.one_norm * eta + 1e-12


def test_criterion_10_cptp_and_determinism(rng, tmp_path, capsys):
    with criterion(10, "random channels are CPTP; identical seeds are bit-identical"):
        for _ in range(200):
            H = random_hamiltonian(rng, int(rng.integers(1, 3)), int(rng.integers(1, 5)))
            t = float(rng.uniform(0.01, 2.0)) / H.lam
            report = cptp_check(channel_superoperator(H, t))
            assert report["trace_preservation_defect"] <= 1e-10
            assert report["choi_min_eig"] >= -1e-10

        ham = tmp_path / "ham.txt"
        ham.write_text("0.3 ZZ\n0.3 XI\n0.2 IX\n0.2 YZ\n")
        obs = tmp_path / "obs.txt"
        obs.write_text("1.0 ZI\n")
        argv = [
            "qdrift", "--hamiltonian", str(ham), "--observable", str(obs),
            "--time", "1.0", "--steps", "25", "--shots", "32", "--seed", "9",
        ]
        outputs = []
        for _ in range(2):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
