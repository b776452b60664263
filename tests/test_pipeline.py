import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from qflo import channel, linalg, pipeline
from qflo.benchmarks import ONE_QUBIT_TEXT, TWO_QUBIT_TEXT
from qflo.channel import exact_expectation, expectation_exact
from qflo.hamiltonian import parse_hamiltonian
from qflo.pipeline import (
    QfloRequest,
    base_step_count,
    budget_split,
    richardson_error_bound,
    richardson_estimate_noiseless,
    run,
    select_order,
    shots_per_node,
    step_counts,
)
from qflo.richardson import build_nodes, extrapolate, weights_from_steps


class TestSelectOrder:
    def test_fixtures(self):
        assert select_order(0.01) == 5
        assert select_order(0.5) == 2
        assert select_order(0.05) == 3

    def test_floor_at_two(self):
        assert select_order(0.9) == 2

    def test_loglog_policy_is_lower(self):
        assert select_order(1e-6, "loglog") == 6
        assert select_order(1e-6, "loglog") < select_order(1e-6, "log")

    def test_validation(self):
        with pytest.raises(ValueError):
            select_order(0.0)
        with pytest.raises(ValueError):
            select_order(0.1, "bogus")


class TestStepBudgeting:
    def test_base_step_count_fixture(self):
        assert base_step_count(1.0, 1.0, 0.01, 5, 1.0) == 644

    def test_base_step_count_formula(self):
        lam, T, eps, m, bn = 0.8, 1.3, 0.02, 4, 1.6
        expected = math.ceil(4 * (8 * lam * T) ** 2 * (bn / eps) ** (1 / m))
        assert base_step_count(lam, T, eps, m, bn) == expected

    def test_pseudocode_variant_uses_log_m(self):
        got = base_step_count(1.0, 1.0, 0.01, 5, 7.0, schedule="pseudocode")
        expected = math.ceil(4 * 64 * (math.log(5) / 0.01) ** (1 / 5))
        assert got == expected

    def test_base_step_count_floors_at_one(self):
        # 4 (8 lam T)^2 underflows to 0 at lam T = 1e-300
        assert base_step_count(1.0, 1e-300, 0.05, 3, 1.4) == 1
        assert base_step_count(2e-300, 1.0, 0.05, 3, 1.4, schedule="pseudocode") == 1

    def test_base_step_count_refuses_unknown_schedule(self):
        with pytest.raises(ValueError, match="unknown schedule 'cubed'"):
            base_step_count(1.0, 1.0, 0.01, 5, 1.0, schedule="cubed")

    def test_step_counts_scale_with_finest(self):
        nodes = build_nodes(2)
        assert list(step_counts(nodes, 16)) == [100, 16]
        assert list(step_counts(nodes, 32)) == [200, 32]

    def test_step_counts_dedup_keeps_strict_order(self):
        nodes = build_nodes(8)
        N = step_counts(nodes, 1)
        assert np.all(np.diff(N) < 0)
        raw = [math.ceil(int(y) / int(nodes.y[-1])) for y in nodes.y]
        assert np.all(N >= raw)
        assert N[-1] == 1

    def test_step_counts_int64_overflow_names_count(self):
        with pytest.raises(OverflowError, match="step count 6.250e\\+19 does not fit"):
            step_counts(build_nodes(2), 10 ** 19)

    def test_step_counts_validation(self):
        with pytest.raises(ValueError):
            step_counts(build_nodes(2), 0)

    def test_budget_identity(self):
        for eps, bn in [(0.1, 1.38), (0.03, 2.0), (0.5, 1.0)]:
            budget = budget_split(eps, bn)
            assert budget.extrapolation + bn * budget.data == pytest.approx(eps, rel=1e-15)

    def test_shots_fixture(self):
        assert shots_per_node(1.0, 0.1, 0.05, 3) == 479

    def test_zero_observable_takes_one_shot(self):
        # |A| = 0 makes every outcome 0, so one shot is the exact estimate
        assert shots_per_node(0.0, 0.1, 0.05, 3) == 1

    def test_shots_monotone(self):
        base = shots_per_node(1.0, 0.05, 0.1, 4)
        assert shots_per_node(1.0, 0.025, 0.1, 4) > base
        assert shots_per_node(2.0, 0.05, 0.1, 4) > base
        assert shots_per_node(1.0, 0.05, 0.01, 4) > base


class TestErrorBound:
    def test_nonconvergent_reported(self):
        bound, convergent = richardson_error_bound(
            lam=1.0, T=1.0, s_m=0.2, m=2, norm_A=1.0, one_norm=1.4
        )
        assert not convergent
        assert bound == math.inf

    def test_full_tail_near_unit_ratio(self):
        # q = 8 lam T s_m = 0.996: the tail sum_{j>=m} q^j needs thousands of
        # terms, summed here directly as the oracle
        bound, convergent = richardson_error_bound(
            lam=1.0, T=1.0, s_m=0.1245, m=2, norm_A=1.0, one_norm=1.4
        )
        q = 8.0 * 0.1245
        tail = math.fsum(q ** j for j in range(2, 20000))
        assert convergent
        assert bound == pytest.approx(1.4 * (8.0 + 32.0) * tail, rel=1e-12)

    def test_convergent_small_step(self):
        bound, convergent = richardson_error_bound(
            lam=1.0, T=1.0, s_m=1e-3, m=3, norm_A=1.0, one_norm=1.4
        )
        assert convergent
        assert 0 < bound < 1.0

    def test_high_order_at_unit_lam_t_is_finite(self):
        # 8^l passes the float range at l = 342, though sum_l 8^l / l! < e^8
        bound, convergent = richardson_error_bound(
            lam=1.0, T=1.0, s_m=0.0625, m=400, norm_A=1.0, one_norm=1.4
        )
        inner = sum(Fraction(8) ** l / math.factorial(l) for l in range(1, 401))
        assert convergent
        assert bound == pytest.approx(float(Fraction(14, 10) * inner * Fraction(1, 2) ** 399),
                                      rel=1e-12)

    def test_non_finite_bound_names_order_and_lam_t(self):
        # at 8 lam T = 1000 the inner sum passes the float range by l = 400
        with pytest.raises(OverflowError,
                           match=r"error bound of order 400 at lambda T = 125.0 is not finite"):
            richardson_error_bound(lam=1.0, T=125.0, s_m=1e-7, m=400, norm_A=1.0, one_norm=1.4)

    def test_decreases_with_step(self):
        args = dict(lam=1.0, T=1.0, m=3, norm_A=1.0, one_norm=1.4)
        b1, _ = richardson_error_bound(s_m=1e-3, **args)
        b2, _ = richardson_error_bound(s_m=5e-4, **args)
        assert b2 < b1

    @pytest.mark.parametrize("args", [
        dict(lam=1.0, T=1.0, s_m=1e-3, m=3, norm_A=1.0, one_norm=1.4),
        dict(lam=1.0, T=1.0, s_m=0.0625, m=400, norm_A=1.0, one_norm=1.4),
        dict(lam=2.5, T=0.3, s_m=0.01, m=7, norm_A=3.0, one_norm=12.0),
        dict(lam=1.0, T=1.0, s_m=0.1245, m=2, norm_A=0.5, one_norm=1.4),
        dict(lam=1.0, T=1.0, s_m=1 / 698, m=100, norm_A=1.0, one_norm=5.0),
    ])
    def test_log10_bound_agrees_where_the_bound_is_normal(self, args):
        bound, convergent = richardson_error_bound(**args)
        assert convergent and bound >= sys.float_info.min
        assert pipeline._log10_error_bound(**args) == pytest.approx(math.log10(bound), abs=1e-12)

    def test_log10_bound_at_its_edges(self):
        # a non-convergent series reads inf, a zero observable -inf
        args = dict(lam=1.0, T=1.0, m=3, one_norm=1.4)
        assert pipeline._log10_error_bound(s_m=0.125, norm_A=1.0, **args) == math.inf
        assert pipeline._log10_error_bound(s_m=1e-3, norm_A=0.0, **args) == -math.inf

    def test_log10_bound_stays_finite_where_the_bound_underflows(self, two_qubit):
        # eps = 1e-300: order 691 and q = 8 / 698, so q^691 underflows and
        # the float bound reads 0
        H, A, psi0 = two_qubit
        res = run(QfloRequest(H, psi0, A, total_time=1.0, epsilon=1e-300, delta=0.1,
                              master_seed=1))
        assert res.order == 691 and res.bound_convergent and res.theoretical_bound == 0.0
        m, q = 691, 8.0 / int(res.per_node[-1].step_count)
        assert res.theoretical_bound_log10 == pytest.approx(
            math.log10(res.realized_one_norm) + m * math.log10(q) - math.log10(1 - q)
            + math.log10(sum(8.0 ** l / math.factorial(l) for l in range(1, 40))), abs=1e-9)
        assert -1400 < res.theoretical_bound_log10 < -1300

    def test_scales_with_observable_norm(self):
        args = dict(lam=1.0, T=1.0, s_m=1e-3, m=3, one_norm=1.4)
        b1, _ = richardson_error_bound(norm_A=1.0, **args)
        b2, _ = richardson_error_bound(norm_A=3.0, **args)
        assert b2 == pytest.approx(3 * b1)


class TestNoiselessEstimate:
    def test_beats_single_node(self, one_qubit):
        H, A, psi0 = one_qubit
        T = 1.0
        rho = np.outer(psi0, psi0.conj())
        exact = exact_expectation(H, A, rho, T)
        est, counts, _ = richardson_estimate_noiseless(H, psi0, A, T, m=3, N_m=32)
        single = expectation_exact(H, A, rho, T, int(counts[-1]))
        assert abs(est - exact) < abs(single - exact) / 10

    def test_order_two_error_scaling(self, one_qubit):
        # order-m error should fall ~ N^-m when N_m doubles
        H, A, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        exact = exact_expectation(H, A, rho, 1.0)
        e1 = abs(richardson_estimate_noiseless(H, psi0, A, 1.0, 2, 16)[0] - exact)
        e2 = abs(richardson_estimate_noiseless(H, psi0, A, 1.0, 2, 32)[0] - exact)
        assert e1 / e2 == pytest.approx(4.0, rel=0.5)

    def test_accepts_density_matrix(self, one_qubit):
        H, A, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        a, _, _ = richardson_estimate_noiseless(H, psi0, A, 1.0, 2, 16)
        b, _, _ = richardson_estimate_noiseless(H, rho, A, 1.0, 2, 16)
        assert a == pytest.approx(b, abs=1e-14)

    def test_mixed_state_is_convex(self, one_qubit):
        H, A, _ = one_qubit
        e0 = np.array([1, 0], dtype=complex)
        e1 = np.array([0, 1], dtype=complex)
        rho = 0.5 * np.eye(2, dtype=complex)
        v0, _, _ = richardson_estimate_noiseless(H, e0, A, 1.0, 2, 16)
        v1, _, _ = richardson_estimate_noiseless(H, e1, A, 1.0, 2, 16)
        vm, _, _ = richardson_estimate_noiseless(H, rho, A, 1.0, 2, 16)
        assert vm == pytest.approx(0.5 * (v0 + v1), abs=1e-12)


class TestNoiseAmplification:
    def test_constant_shift_passes_through(self, rng):
        # sum of weights is 1, so a constant data offset shifts the estimate by itself
        nodes = build_nodes(4)
        w = weights_from_steps(1.0 / nodes.y)
        f = rng.normal(size=4)
        c = 0.37
        assert extrapolate(f + c, w) == pytest.approx(extrapolate(f, w) + c, abs=1e-12)

    def test_bounded_noise_amplifies_by_one_norm(self, rng):
        nodes = build_nodes(4)
        w = weights_from_steps(1.0 / nodes.y)
        f = rng.normal(size=4)
        eta = 0.01
        for _ in range(50):
            noise = rng.uniform(-eta, eta, size=4)
            shift = abs(extrapolate(f + noise, w) - extrapolate(f, w))
            assert shift <= w.one_norm * eta + 1e-12


class TestRequestValidation:
    def _request(self, one_qubit, **kw):
        H, A, psi0 = one_qubit
        args = dict(
            hamiltonian=H, initial_state=psi0, observable=A,
            total_time=1.0, epsilon=0.1, delta=0.1, master_seed=1,
        )
        args.update(kw)
        return QfloRequest(**args)

    def test_bad_epsilon(self, one_qubit):
        with pytest.raises(ValueError):
            self._request(one_qubit, epsilon=0.0)
        with pytest.raises(ValueError):
            self._request(one_qubit, epsilon=1.5)

    def test_bad_delta(self, one_qubit):
        with pytest.raises(ValueError):
            self._request(one_qubit, delta=0.0)

    def test_bad_time(self, one_qubit):
        with pytest.raises(ValueError):
            self._request(one_qubit, total_time=-1.0)

    def test_bad_mode_and_policy(self, one_qubit):
        with pytest.raises(ValueError):
            self._request(one_qubit, mode="exactish")
        with pytest.raises(ValueError):
            self._request(one_qubit, order_policy="sqrt")
        with pytest.raises(ValueError):
            self._request(one_qubit, schedule="cubed")


class TestRunNoiseless:
    def test_within_theoretical_bound(self, one_qubit):
        H, A, psi0 = one_qubit
        T = 0.4
        req = QfloRequest(H, psi0, A, total_time=T, epsilon=0.3, delta=0.3, master_seed=1)
        res = run(req)
        exact = exact_expectation(H, A, np.outer(psi0, psi0.conj()), T)
        assert res.bound_convergent
        assert abs(res.estimate - exact) <= res.theoretical_bound
        assert res.theoretical_bound <= req.epsilon

    def test_budget_and_accounting(self, one_qubit):
        H, A, psi0 = one_qubit
        req = QfloRequest(H, psi0, A, total_time=0.4, epsilon=0.3, delta=0.3, master_seed=1)
        res = run(req)
        assert res.order == 2
        assert res.shots_per_node == 0
        assert all(n.shots == 0 and n.standard_error == 0.0 for n in res.per_node)
        counts = [n.step_count for n in res.per_node]
        assert res.max_depth == max(counts)
        assert res.total_gate_count == sum(counts)
        budget = res.error_budget
        assert budget.extrapolation + res.ideal_one_norm * budget.data == pytest.approx(
            req.epsilon
        )

    def test_builds_no_measurer(self, one_qubit, monkeypatch):
        # only |A| is read, from the eigenvalues ObservableMeasurer would take
        H, A, psi0 = one_qubit
        norm_A = channel.ObservableMeasurer(A).norm
        built = []
        monkeypatch.setattr(pipeline, "ObservableMeasurer", lambda A: built.append(A))
        res = run(QfloRequest(H, psi0, A, total_time=0.4, epsilon=0.3, delta=0.3,
                              master_seed=1))
        assert built == []
        s_m = 1.0 / res.per_node[-1].step_count
        assert (res.theoretical_bound, res.bound_convergent) == richardson_error_bound(
            H.lam, 0.4, s_m, res.order, norm_A, res.weights.one_norm)

    def test_non_finite_bound_is_refused_before_any_node_runs(self, one_qubit, monkeypatch):
        def no_node(*args):
            raise AssertionError("a node ran before the plan was refused")

        monkeypatch.setattr(pipeline, "node_values_exact", no_node)
        monkeypatch.setattr(pipeline, "sample_shots", no_node)
        H, A, psi0 = one_qubit
        request = QfloRequest(H, psi0, A, total_time=125.0, epsilon=math.exp(-400.5), delta=0.3,
                              master_seed=1)
        with pytest.raises(OverflowError,
                           match=r"error bound of order 401 at lambda T = 125.0 is not finite"):
            run(request)

    def test_to_dict_round_numbers(self, one_qubit):
        H, A, psi0 = one_qubit
        req = QfloRequest(H, psi0, A, total_time=0.4, epsilon=0.3, delta=0.3, master_seed=1)
        d = run(req).to_dict()
        assert set(d) >= {
            "estimate", "order", "weights", "error_budget", "per_node",
            "total_gate_count", "max_depth", "theoretical_bound",
        }
        assert len(d["per_node"]) == d["order"]


class TestRunShotSampled:
    def _request(self, one_qubit, seed=11):
        H, A, psi0 = one_qubit
        return QfloRequest(
            H, psi0, A, total_time=0.4, epsilon=0.3, delta=0.3,
            master_seed=seed, mode="shot_sampled",
        )

    def test_deterministic_for_master_seed(self, one_qubit):
        res1 = run(self._request(one_qubit))
        res2 = run(self._request(one_qubit))
        assert res1.estimate == res2.estimate
        assert [n.mean for n in res1.per_node] == [n.mean for n in res2.per_node]

    def test_seed_changes_estimate(self, one_qubit):
        res1 = run(self._request(one_qubit, seed=11))
        res2 = run(self._request(one_qubit, seed=12))
        assert res1.estimate != res2.estimate

    @pytest.mark.parametrize("seed", [None, 2.5, -1, "7"])
    def test_refuses_a_seed_that_cannot_be_replayed(self, one_qubit, seed, monkeypatch):
        # None would draw OS entropy, a run that can be neither replayed nor reported
        monkeypatch.setattr(channel, "substream", None)   # no stream may be made first
        with pytest.raises(ValueError, match="seed must be >= 0 and an integer"):
            run(self._request(one_qubit, seed=seed))

    def test_fixture_regression(self, one_qubit):
        res = run(self._request(one_qubit))
        assert res.shots_per_node == 220
        assert [n.step_count for n in res.per_node] == [782, 125]
        # node means 204/220 and 206/220, drawn from each node's exact law
        assert [n.mean for n in res.per_node] == [204 / 220, 206 / 220]
        assert res.estimate == pytest.approx(0.9255431022554309, abs=1e-12)

    @pytest.mark.parametrize("mode", ["noiseless", "shot_sampled"])
    def test_non_finite_state_is_refused(self, one_qubit, mode):
        # the shot path checks the vector's norm, the noiseless path its density matrix
        H, A, _ = one_qubit
        request = QfloRequest(H, np.array([np.nan, 0.0]), A, total_time=0.4, epsilon=0.3,
                              delta=0.3, master_seed=1, mode=mode)
        with pytest.raises(ValueError, match="finite"):
            run(request)

    def test_five_qubit_fixture_regression(self):
        # above the 4-qubit cap, on the law path the cost rule picks for
        # this plan; it holds the law draw of one stream per node fixed
        H = parse_hamiltonian(
            "0.6 XXIII\n0.4 IYYII\n0.5 IIZZI\n0.3 IIIXY\n0.35 ZIIIZ\n0.25 YIXIZ\n"
        )
        A = parse_hamiltonian("1.0 IIZII").dense()
        psi0 = np.zeros(32, dtype=complex)
        psi0[0b01010] = 1.0
        res = run(QfloRequest(H, psi0, A, total_time=0.5, epsilon=0.4, delta=0.3,
                              master_seed=2024, mode="shot_sampled"))
        assert res.shots_per_node == 124
        assert [n.step_count for n in res.per_node] == [6057, 969]
        assert [n.mean for n in res.per_node] == [114 / 124, 112 / 124]
        assert res.estimate == pytest.approx(0.9224265824710893, abs=1e-12)

    def test_one_observable_decomposition_per_run(self, one_qubit, monkeypatch):
        calls = []
        eig = channel.hermitian_eig
        monkeypatch.setattr(channel, "hermitian_eig", lambda A: calls.append(1) or eig(A))
        res = run(self._request(one_qubit))
        assert len(res.per_node) == 2
        assert len(calls) == 1

    def test_chunking_does_not_change_estimate(self, one_qubit, monkeypatch):
        full = run(self._request(one_qubit))
        monkeypatch.setattr(channel, "TILE_AMPLITUDES", 7 * 2)   # 7 one-qubit shots
        chunked = run(self._request(one_qubit))
        assert [n.mean for n in chunked.per_node] == [n.mean for n in full.per_node]

    def test_error_within_target(self, one_qubit):
        H, A, psi0 = one_qubit
        req = self._request(one_qubit)
        res = run(req)
        exact = exact_expectation(H, A, np.outer(psi0, psi0.conj()), 0.4)
        assert abs(res.estimate - exact) <= req.epsilon

    def test_gate_accounting_includes_shots(self, one_qubit):
        res = run(self._request(one_qubit))
        counts = [n.step_count for n in res.per_node]
        assert res.total_gate_count == sum(c * res.shots_per_node for c in counts)
        assert all(n.standard_error > 0 for n in res.per_node)

    def test_mixed_initial_state_runs(self, one_qubit):
        H, A, _ = one_qubit
        rho = np.array([[0.8, 0.0], [0.0, 0.2]], dtype=complex)
        req = QfloRequest(
            H, rho, A, total_time=0.4, epsilon=0.3, delta=0.3,
            master_seed=5, mode="shot_sampled",
        )
        res = run(req)
        exact = exact_expectation(H, A, rho, 0.4)
        assert abs(res.estimate - exact) <= req.epsilon


class TestInputChecks:
    def _run(self, H, psi, A, mode):
        return run(QfloRequest(H, psi, A, total_time=0.3, epsilon=0.5, delta=0.3,
                               master_seed=3, mode=mode))

    def test_noiseless_run_checks_each_input_once(self, two_qubit, monkeypatch):
        # hermitian_eig and the exact path check A; run itself checks
        # nothing, and a state vector takes no density-matrix check
        calls = {"require_hermitian": 0, "check_density_matrix": 0}

        def counted(name, original):
            def wrapper(M):
                calls[name] += 1
                return original(M)
            return wrapper

        for module in (linalg, channel, pipeline):
            for name in calls:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        H, A, psi0 = two_qubit
        self._run(H, psi0, A, "noiseless")
        assert calls["require_hermitian"] <= 2
        assert calls["check_density_matrix"] == 0

    def test_shot_run_decomposes_the_state_once(self, two_qubit, monkeypatch):
        # one sample_shots call for all nodes: rho0 is checked and
        # eigendecomposed once per run, not once per node
        calls = {"sample_shots": 0, "check_density_matrix": 0, "eigh of rho0": 0}
        H, A, _ = two_qubit
        rho0 = np.diag([0.7, 0.3, 0.0, 0.0]).astype(complex)

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(pipeline, "sample_shots",
                            counted("sample_shots", pipeline.sample_shots))
        for module in (linalg, channel):
            monkeypatch.setattr(module, "check_density_matrix",
                                counted("check_density_matrix", module.check_density_matrix))
        eigh = np.linalg.eigh

        def eigh_counting_rho0(M):
            calls["eigh of rho0"] += np.array_equal(M, rho0)
            return eigh(M)

        monkeypatch.setattr(np.linalg, "eigh", eigh_counting_rho0)
        res = run(QfloRequest(H, rho0, A, total_time=0.3, epsilon=0.1, delta=0.3,
                              master_seed=3, mode="shot_sampled"))
        assert res.order == 3
        assert calls == {"sample_shots": 1, "check_density_matrix": 1, "eigh of rho0": 1}

    @pytest.mark.parametrize("mode", ["noiseless", "shot_sampled"])
    def test_one_rule_for_a_state_vector(self, two_qubit, mode):
        # |psi| = 1 + 8e-11 is a unit vector within UNIT_NORM_TOL in both
        # modes, although |psi|^2 misses 1 by more than the trace tolerance
        H, A, _ = two_qubit
        psi = np.array([1.0 + 8e-11, 0, 0, 0], dtype=complex)
        assert self._run(H, psi, A, mode).bound_convergent
        with pytest.raises(ValueError, match="finite unit vector"):
            self._run(H, np.array([np.nan, 0, 0, 0]), A, mode)

    @pytest.mark.parametrize("mode", ["noiseless", "shot_sampled"])
    @pytest.mark.parametrize("wrong", ["observable", "state"])
    def test_input_of_another_dimension_is_refused(self, one_qubit, two_qubit, wrong, mode):
        H, A, psi0 = two_qubit
        _, A1, psi1 = one_qubit
        if wrong == "observable":
            A, bad = A1, A1
        else:
            psi0, bad = psi1, psi1
        with pytest.raises(ValueError) as excinfo:
            self._run(H, psi0, A, mode)
        assert f"{wrong} has shape {bad.shape}" in str(excinfo.value)
        assert "H needs (4," in str(excinfo.value)

    def test_zero_observable_shot_run_is_exact(self, two_qubit):
        H, _, psi0 = two_qubit
        res = self._run(H, psi0, np.zeros((4, 4)), "shot_sampled")
        assert res.shots_per_node == 1
        assert res.estimate == 0.0
        assert all(n.mean == 0.0 and n.standard_error == 0.0 for n in res.per_node)


CHAIN_4 = "".join(f"1.0 {'I' * i}{p}{p}{'I' * (2 - i)}\n" for i in range(3) for p in "XYZ") + \
    "".join(f"0.5 {'I' * i}X{'I' * (3 - i)}\n" for i in range(4))
GUARANTEE_CASES = {
    # id: (H, observable, initial state, T, eps, delta)
    "one-qubit": (ONE_QUBIT_TEXT, "1.0 Z", np.eye(2)[0], 0.4, 0.3, 0.3),
    "two-qubit": (TWO_QUBIT_TEXT, "1.0 ZI", np.eye(4)[0], 1.0, 0.05, 0.1),
    # <ZII> = 0 at every time from (|000><000| + |111><111|) / 2, where
    # +-1 outcomes have the largest variance
    "three-qubit-mixed": ("0.5 XYI\n0.3 IZZ\n0.4 YIX\n0.2 ZXY\n", "1.0 ZII",
                          np.diag([0.5, 0, 0, 0, 0, 0, 0, 0.5]), 1.0, 0.1, 0.1),
    "chain-4": (CHAIN_4, "1.0 ZIII", np.eye(16)[0], 0.1, 0.3, 0.3),
}


@pytest.mark.parametrize("case", GUARANTEE_CASES)
def test_shot_runs_miss_by_eps_at_rate_delta(case):
    # A shot-sampled run claims |estimate - <A>_T| <= eps |A| but with
    # probability at most delta.  Over 500 seeds the misses must not be
    # significantly more than delta: a one-sided binomial test at 1e-3.
    from scipy.stats import binomtest

    text, obs, state, T, eps, delta = GUARANTEE_CASES[case]
    H, A = parse_hamiltonian(text), parse_hamiltonian(obs).dense()
    exact = exact_expectation(H, A, state, T)
    seeds = 500
    misses = sum(abs(run(QfloRequest(H, state, A, T, eps, delta, seed, mode="shot_sampled"))
                     .estimate - exact) > eps * np.abs(np.linalg.eigvalsh(A)).max()
                 for seed in range(1, seeds + 1))
    assert binomtest(misses, seeds, delta, alternative="greater").pvalue >= 1e-3
