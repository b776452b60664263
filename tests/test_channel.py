import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflo import channel, hamiltonian, pipeline
from qflo.channel import (
    ObservableMeasurer,
    channel_iterate_exact,
    evolve_indexed_batch,
    exact_expectation,
    expectation_exact,
    node_values_exact,
    sample_shots,
    substream,
)
from qflo.benchmarks import TWO_QUBIT_TEXT
from qflo.generator import generator_probe
from qflo.hamiltonian import PauliRotations, PauliString, parse_hamiltonian
from qflo.linalg import devectorize, unitary_exp, vectorize

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
RHO0 = np.outer(KET0, KET0.conj())


def heisenberg_chain(n):
    """XX+YY+ZZ couplings 1.0 on each bond and an X field 0.5 on each site."""
    return "".join(
        f"1.0 {'I' * i}{p}{p}{'I' * (n - 2 - i)}\n" for i in range(n - 1) for p in "XYZ"
    ) + "".join(f"0.5 {'I' * i}X{'I' * (n - 1 - i)}\n" for i in range(n))


HEISENBERG_CHAIN_4 = heisenberg_chain(4)
HEISENBERG_CHAIN_5 = heisenberg_chain(5)


def kraus_iterate(H, rho, t, N):
    """Reference oracle: N steps of sum_j p_j U_j rho U_j^dag on the density
    matrix, one step at a time, with U_j the dense term unitaries."""
    U = H.term_unitaries(H.lam * t)
    Ud = U.conj().transpose(0, 2, 1)
    for _ in range(N):
        rho = np.tensordot(H.probabilities, U @ rho @ Ud, axes=1)
    return rho


def conjugation_superoperator(U):
    """Superoperator of B -> U B U^dag in the column-stacking vec basis,
    the per-term map of the Kraus oracle as a matrix."""
    return np.kron(U.conj(), U)


def state_and_observable(d, mixed, seed):
    """A random pure or mixed d x d density matrix and a random Hermitian
    observable, from one seed."""
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    if mixed:
        rho0 = M @ M.conj().T
        rho0 /= np.trace(rho0).real
    else:
        psi = M[:, 0] / np.linalg.norm(M[:, 0])
        rho0 = np.outer(psi, psi.conj())
    return rho0, 2.0 * (M + M.conj().T)


def oracle_tolerance(A):
    return 1e-12 * max(1.0, np.abs(np.linalg.eigvalsh(A)).max())


class TestSubstreams:
    def test_same_path_reproduces(self):
        a = substream(7, 3, 1).random(5)
        b = substream(7, 3, 1).random(5)
        assert np.array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = substream(7, 0).random(5)
        b = substream(7, 1).random(5)
        assert not np.array_equal(a, b)


class TestExactChannel:
    def test_single_term_is_unitary_conjugation(self):
        H = parse_hamiltonian("0.7 X")
        t = 0.3
        U = unitary_exp(0.7 * X, t)
        out = channel_iterate_exact(H, RHO0, t, 1)
        assert np.abs(out - U @ RHO0 @ U.conj().T).max() <= 1e-12

    def test_depolarizing_fixed_point(self, depolarizing):
        # equal-weight I,X,Y,Z at step angle pi/2 sends every state to I/2
        rng = np.random.default_rng(5)
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        rho = np.outer(v, v.conj())
        t = (np.pi / 2) / depolarizing.lam
        out = channel_iterate_exact(depolarizing, rho, t, 1)
        assert np.abs(out - np.eye(2) / 2).max() <= 1e-12

    def test_trace_and_hermiticity_preserved(self, two_qubit):
        H, _, psi0 = two_qubit
        rho = np.outer(psi0, psi0.conj())
        out = channel_iterate_exact(H, rho, 1.0, 7)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.abs(out - out.conj().T).max() <= 1e-12

    def test_iterate_matches_repeated_apply(self, one_qubit):
        H, _, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        N, T = 5, 1.3
        iterated = channel_iterate_exact(H, rho, T, N)
        stepped = rho
        for _ in range(N):
            stepped = channel_iterate_exact(H, stepped, T / N, 1)
        assert np.abs(iterated - stepped).max() <= 1e-12

    def test_iterate_matches_superoperator_power(self, one_qubit):
        H, _, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        N, T = 6, 0.9
        S = sum(
            p * conjugation_superoperator(U)
            for p, U in zip(H.probabilities, H.term_unitaries(H.lam * T / N))
        )
        oracle = np.linalg.matrix_power(S, N) @ vectorize(rho)
        assert np.abs(vectorize(channel_iterate_exact(H, rho, T, N)) - oracle).max() <= 1e-12

    def test_rejects_bad_step_count(self, one_qubit):
        H, _, psi0 = one_qubit
        with pytest.raises(ValueError):
            channel_iterate_exact(H, np.outer(psi0, psi0.conj()), 1.0, 0)

    def test_powers_up_to_the_cap_and_steps_above(self, monkeypatch):
        # the path is chosen by qubit count alone: powering builds Delta
        # matrices, stepping none; both match the Kraus oracle
        H4 = parse_hamiltonian("0.7 XZIY\n-0.4 ZZXI")
        H5 = parse_hamiltonian("0.7 XZIYZ\n-0.4 ZZXIX")
        built = []
        term_matrix = channel.pauli_term_matrix

        def spy(H, *args):
            built.append(H.n_qubits)
            return term_matrix(H, *args)

        monkeypatch.setattr(channel, "pauli_term_matrix", spy)
        for H in (H4, H5):
            rho = np.zeros((H.dim, H.dim), dtype=complex)
            rho[0, 0] = 1.0
            out = channel_iterate_exact(H, rho, 0.8, 5)
            assert np.abs(out - kraus_iterate(H, rho, 0.8 / 5, 5)).max() <= 1e-12
        assert built == [4]

    def test_node_values_step_each_node_above_the_cap(self):
        H = parse_hamiltonian("0.7 XZIYZ\n-0.4 ZZXIX")
        A = parse_hamiltonian("1.0 ZIIII\n0.5 IXIII").dense()
        rho = np.zeros((H.dim, H.dim), dtype=complex)
        rho[0, 0] = 1.0
        values = channel.node_values_exact(H, A, rho, 0.8, [3, 5, 3])
        expected = [np.trace(A @ kraus_iterate(H, rho, 0.8 / N, N)).real for N in (3, 5, 3)]
        assert values[0] == values[2]
        assert np.abs(values - expected).max() <= oracle_tolerance(A)

    def test_stepping_matches_powering_up_to_the_cap(self, monkeypatch):
        # with the cap lowered, the same nodes take the stepping path
        H = parse_hamiltonian(HEISENBERG_CHAIN_4)
        rho0, A = state_and_observable(H.dim, True, 11)
        counts = [1000, 37, 5, 1]
        powered = channel.node_values_exact(H, A, rho0, 1.0, counts)
        monkeypatch.setattr(channel, "SUPEROP_QUBIT_CAP", 0)
        stepped = channel.node_values_exact(H, A, rho0, 1.0, counts)
        assert np.abs(stepped - powered).max() <= oracle_tolerance(A)

    def test_overflowing_step_angle_above_the_cap(self):
        # the stepping path shares channel_delta's guard: 2 lam t is 2e308
        # at N = 2, the first of the descending N whose angle overflows
        H = parse_hamiltonian("1.5 ZIIII\n0.5 XIIII")
        A = parse_hamiltonian("1.0 ZIIII").dense()
        rho = np.zeros((H.dim, H.dim), dtype=complex)
        rho[0, 0] = 1.0
        with pytest.raises(OverflowError, match="t = 5e\\+307"):
            channel.node_values_exact(H, A, rho, 1e308, [1, 2, 3, 4])

    def test_node_values_reject_bad_step_counts(self, one_qubit):
        H, A, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        for counts in ([], [4, 0], [-1]):
            with pytest.raises(ValueError):
                channel.node_values_exact(H, A, rho, 1.0, counts)

    def test_node_values_reject_a_state_of_another_size(self, one_qubit, two_qubit):
        # a 2-qubit state and observable against a 1-qubit Hamiltonian
        H = one_qubit[0]
        _, A, psi0 = two_qubit
        with pytest.raises(ValueError, match="16 Pauli coefficients"):
            channel.node_values_exact(H, A, np.outer(psi0, psi0.conj()), 1.0, [3])

    def test_chain_powering_multiplies_coset_blocks_only(self, monkeypatch):
        # the 4-qubit chain's Delta is 2 coset blocks of 128: every product
        # takes 128 x 128 blocks, and each squaring runs over the nodes whose
        # N still has bits left (16, 64 and 1024 square 4, 6 and 10 times)
        H = parse_hamiltonian(HEISENBERG_CHAIN_4)
        A = parse_hamiltonian("1.0 ZIII").dense()
        rho = np.zeros((H.dim, H.dim), dtype=complex)
        rho[0, 0] = 1.0
        shapes = []
        matmul = np.matmul

        def spy(a, b, *args, **kwargs):
            shapes.append((np.shape(a), np.shape(b)))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        channel.node_values_exact(H, A, rho, 1.0, [64, 16, 1024])
        squared = [a for a, b in shapes if a == b]
        assert squared == [(3, 2, 128, 128)] * 4 + [(2, 2, 128, 128)] * 2 + [(1, 2, 128, 128)] * 4
        assert all(a[-2:] == (128, 128) and b[-2] == 128 for a, b in shapes)

    def test_single_term_oracle_at_a_billion_steps(self):
        # every step is exp(-i 0.7 T/N X), so E^N is the exact evolution;
        # the Kraus loop could not finish 10**9 steps
        H = parse_hamiltonian("0.7 X")
        T = 1.0
        assert abs(expectation_exact(H, Z, RHO0, T, 10**9) - np.cos(1.4 * T)) <= 1e-9

    @pytest.mark.parametrize("N, reference", [
        (806, 0.75875592606033380),
        (105345, 0.75948274648915988),
    ])
    def test_two_qubit_benchmark_at_forty_digits(self, two_qubit, N, reference):
        # tr[A E^N(rho0)] by square-and-multiply on the kron-built
        # superoperator in 40-digit mpmath arithmetic, rounded to 17 digits
        H, A, psi0 = two_qubit
        value = expectation_exact(H, A, np.outer(psi0, psi0.conj()), 1.0, N)
        assert abs(value - reference) <= 1e-14


class TestExpectations:
    def test_exact_expectation_rabi_oracle(self, one_qubit):
        # H = (X+Z)/2, A = Z, |0>: <Z>(T) = cos^2(T/sqrt(2))
        H, A, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        for T in [0.0, 0.5, 1.0, 2.0]:
            expected = np.cos(T / np.sqrt(2)) ** 2
            assert exact_expectation(H, A, rho, T) == pytest.approx(expected, abs=1e-12)

    def test_expectation_converges_to_exact(self, one_qubit):
        H, A, psi0 = one_qubit
        rho = np.outer(psi0, psi0.conj())
        T = 1.0
        target = exact_expectation(H, A, rho, T)
        errs = [abs(expectation_exact(H, A, rho, T, N) - target) for N in [8, 16, 32]]
        assert errs[0] > errs[1] > errs[2]
        # first-order convergence: halving the step roughly halves the error
        assert errs[0] / errs[1] == pytest.approx(2.0, rel=0.2)

    def test_exact_expectation_refuses_overflowing_phase(self):
        # T w = 2e308 for the top eigenvalue w of 2 Z + 0.1 X: the phases
        # of exp(-i T H) would be NaN
        H = parse_hamiltonian("2.0 Z\n0.1 X")
        with pytest.raises(OverflowError, match="theta = 1e\\+308"):
            exact_expectation(H, Z, RHO0, 1e308)

    @pytest.mark.parametrize("state", ["basis", "random"])
    def test_state_vector_or_its_density_matrix(self, state, rng):
        # the exact-channel entry points take psi as |psi><psi|, bit for bit
        H = parse_hamiltonian("0.5 XYI\n0.3 IZZ\n-0.4 YIX\n0.2 ZXY\n")
        A = parse_hamiltonian("1.0 ZIX\n0.5 IYI").dense()
        if state == "basis":
            psi = np.zeros(8, dtype=complex)
            psi[5] = 1.0
        else:
            psi = rng.normal(size=8) + 1j * rng.normal(size=8)
            psi /= np.linalg.norm(psi)
        rho = np.outer(psi, psi.conj())
        for T in (0.7, 5.0):
            assert np.array_equal(node_values_exact(H, A, psi, T, [40, 3, 7]),
                                  node_values_exact(H, A, rho, T, [40, 3, 7]))
            assert exact_expectation(H, A, psi, T) == exact_expectation(H, A, rho, T)
            assert np.array_equal(channel_iterate_exact(H, psi, T, 9),
                                  channel_iterate_exact(H, rho, T, 9))

    def test_expectation_is_real(self, two_qubit):
        H, A, psi0 = two_qubit
        rho = np.outer(psi0, psi0.conj())
        val = expectation_exact(H, A, rho, 0.8, 11)
        assert isinstance(val, float)
        assert -1.0 - 1e-12 <= val <= 1.0 + 1e-12


def sampled_indices(H, N, seed):
    """The N term indices of one trajectory, from substream(seed, 0)."""
    return H.sample_terms(substream(seed, 0), N)


def evolve(psi0, H, indices, t):
    """One trajectory of step time t through the batched engine."""
    return evolve_indexed_batch(psi0[None, :], H.pauli_rotations(H.lam * t),
                                np.asarray(indices)[None, :])[0]


def trajectory_shots(H, A, state, T, counts, shots, seed):
    """``sample_shots`` through its trajectory engine, the path it takes
    above SUPEROP_QUBIT_CAP, at any qubit count."""
    measurer = A if isinstance(A, ObservableMeasurer) else ObservableMeasurer(A)
    return channel._trajectory_shots(H, measurer, channel._ensemble(state), T, list(counts),
                                     shots, seed)


def five_qubit_pair():
    """(H, A, psi0): two commuting terms on 5 qubits, lambda = 1, Z on the
    first, |00000>."""
    H = parse_hamiltonian("0.5 XXIII\n0.5 IZZII\n")
    return H, parse_hamiltonian("1.0 ZIIII").dense(), np.eye(H.dim, dtype=complex)[0]


def replayed_shot(H, measurer, psi0, T, N, seed, node, k):
    """Shot k of node j rebuilt alone: a fresh substream(seed, j) advanced by
    k (N + 2), then the measurement uniform, the initial-state uniform and
    the N term uniforms."""
    rng = substream(seed, node)
    rng.bit_generator.advance(k * (N + 2))
    u_meas = rng.random()
    rng.random()
    psi = evolve(psi0, H, H.sample_terms(rng, N), T / N)
    return measurer.sample_batch(psi[None, :], np.array([u_meas]))[0]


class TestTrajectories:
    def test_deterministic_for_seed(self, one_qubit):
        H, A, psi0 = one_qubit
        a = sample_shots(H, A, psi0, 1.0, [50], 16, seed=123)[0]
        b = sample_shots(H, A, psi0, 1.0, [50], 16, seed=123)[0]
        assert np.array_equal(a, b)
        assert a.shape == (16,)
        assert set(np.unique(a)) <= {1.0, -1.0}
        indices = sampled_indices(H, 50, seed=123)
        assert np.array_equal(indices, sampled_indices(H, 50, seed=123))
        assert indices.shape == (50,)
        assert set(np.unique(indices)) <= {0, 1}

    def test_evolve_single_term_closed_form(self):
        H = parse_hamiltonian("1.0 Z")
        t = 0.2
        psi = evolve(KET0, H, sampled_indices(H, 4, seed=9), t)
        oracle = np.linalg.matrix_power(unitary_exp(Z, t), 4) @ KET0
        assert np.abs(psi - oracle).max() <= 1e-12

    def test_evolution_preserves_norm(self, two_qubit):
        H, _, psi0 = two_qubit
        psi = evolve(psi0, H, sampled_indices(H, 40, seed=77), 0.05)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-10)

    def test_rejects_unnormalized_state(self, one_qubit):
        H, A, _ = one_qubit
        with pytest.raises(ValueError):
            sample_shots(H, A, 2 * KET0, 0.3, [3], 1, seed=1)

    def test_rejects_non_finite_state(self, two_qubit):
        # |NaN - 1| > tol is False, so the norm check must fail a NaN norm itself
        H, A, _ = two_qubit
        with pytest.raises(ValueError, match="finite unit vector"):
            sample_shots(H, A, [np.nan, 0, 0, 0], 1.0, [10], 5, seed=1)
        with pytest.raises(ValueError, match="finite unit vector"):
            node_values_exact(H, A, [np.nan, 0, 0, 0], 1.0, [10])

    def test_overflowing_step_angle_is_refused(self):
        # 2 lam T/N = 4e308: the gates' sines, and so every outcome
        # probability, would be NaN
        H = parse_hamiltonian("1.5 ZI\n0.5 XI")
        A = parse_hamiltonian("1.0 ZI").dense()
        with pytest.raises(OverflowError, match="t = 1e\\+308"):
            sample_shots(H, A, np.eye(4)[0], 1e308, [1], 4, seed=3)

    def test_trajectory_average_approximates_channel(self, one_qubit, rng):
        # empirical mixture over sampled trajectories vs the exact channel
        H, _, psi0 = one_qubit
        T, N, runs = 0.6, 5, 4000
        t = T / N
        indices = np.array([sampled_indices(H, N, seed=s) for s in range(runs)])
        psis = evolve_indexed_batch(np.tile(psi0, (runs, 1)),
                                    H.pauli_rotations(H.lam * t), indices)
        acc = np.einsum("bi,bj->ij", psis, psis.conj()) / runs
        exact = channel_iterate_exact(H, np.outer(psi0, psi0.conj()), T, N)
        # Monte Carlo error ~ 1/sqrt(runs)
        assert np.abs(acc - exact).max() <= 5.0 / np.sqrt(runs)

    def test_shot_draw_layout(self, two_qubit, monkeypatch):
        # 12 shots in tiles of 10 and 2, drawn in slabs of 3 rows of 11
        # uniforms: every shot, on either side of a tile or slab boundary,
        # replays its own uniforms of node 2's stream
        H, A, psi0 = two_qubit
        T, N, seed, node = 0.7, 9, 31, 2
        monkeypatch.setattr(channel, "TILE_AMPLITUDES", 40)
        assert channel.shot_chunk(len(H), N, H.dim) == 10 and 40 // (N + 2) == 3
        measurer = ObservableMeasurer(A)
        expected = [replayed_shot(H, measurer, psi0, T, N, seed, node, k) for k in range(12)]
        outcomes = trajectory_shots(H, A, psi0, T, [N] * (node + 1), 12, seed)
        assert outcomes[node].tolist() == expected

    def test_many_terms_keep_indices_in_two_bytes(self, monkeypatch):
        # 300 terms on 5 qubits: each index row is uint16, and every shot is
        # still the replay of its own uniforms of its node's stream
        paulis = [np.base_repr(k, 4).zfill(5).translate(str.maketrans("0123", "IXYZ"))
                  for k in range(1, 301)]
        H = parse_hamiltonian("".join(f"{(-1) ** k * (0.2 + k % 7 / 10):.1f} {p}\n"
                                      for k, p in enumerate(paulis)))
        A = parse_hamiltonian("1.0 ZIIII\n0.5 IXIII").dense()
        psi0 = np.full(32, 1 / np.sqrt(32), dtype=complex)
        T, N, shots, seed, node = 0.3, 40, 6, 17, 1
        dtypes = []
        engine = channel.evolve_indexed_batch
        monkeypatch.setattr(channel, "evolve_indexed_batch", lambda psis, gates, indices:
                            dtypes.append(indices.dtype) or engine(psis, gates, indices))
        outcomes = sample_shots(H, A, psi0, T, [N] * (node + 1), shots, seed)[node]
        assert dtypes == [np.uint16] * (node + 1)
        measurer = ObservableMeasurer(A)
        expected = [replayed_shot(H, measurer, psi0, T, N, seed, node, k) for k in range(shots)]
        assert outcomes.tolist() == expected


    @pytest.mark.parametrize("counts", [[9, 4, 2], [5, 5, 3, 5]], ids=["distinct", "repeated"])
    def test_rows_replay_their_node_streams(self, two_qubit, counts):
        # row j is node j, whose shot k replays uniforms [k (N + 2), (k + 1) (N + 2))
        # of substream(seed, j); a repeated N is sampled again on its own stream
        H, A, psi0 = two_qubit
        T, shots, seed = 0.7, 6, 31
        measurer = ObservableMeasurer(A)
        outcomes = trajectory_shots(H, A, psi0, T, counts, shots, seed)
        assert outcomes.shape == (len(counts), shots)
        for j, N in enumerate(counts):
            expected = [replayed_shot(H, measurer, psi0, T, N, seed, j, k) for k in range(shots)]
            assert outcomes[j].tolist() == expected

    @pytest.mark.parametrize("counts", [[], [0], [5, 0, 3], [-2], [2.5], [3, 1.5]])
    def test_step_counts_are_refused_as_by_the_exact_path(self, two_qubit, counts):
        H, A, psi0 = two_qubit
        with pytest.raises(ValueError, match="N must be >= 1") as shot:
            sample_shots(H, A, psi0, 1.0, counts, 4, seed=1)
        with pytest.raises(ValueError) as exact:
            node_values_exact(H, A, psi0, 1.0, counts)
        assert str(shot.value) == str(exact.value)

    @pytest.mark.parametrize("N", [0, -2, 2.5, np.float64(3.0)])
    def test_iterate_refuses_step_counts_as_node_values_do(self, two_qubit, N):
        # a non-integral N is refused, not truncated to the N below it
        H, A, psi0 = two_qubit
        with pytest.raises(ValueError, match="N must be >= 1") as iterate:
            channel_iterate_exact(H, psi0, 1.0, N)
        with pytest.raises(ValueError) as exact:
            expectation_exact(H, A, psi0, 1.0, N)
        assert str(iterate.value) == str(exact.value)

    @pytest.mark.parametrize("counts, shots", [([10], 2 ** 61), ([10, 5], 10 ** 20),
                                               ([2 ** 63], 1)])
    def test_arrays_past_the_address_space_are_refused(self, counts, shots):
        # 2^64 bytes of outcomes, or 2^63 bytes of one shot's term indices:
        # past np.intp, so refused before any allocation.  The outcomes are
        # refused on either path; at T = 1e18 the cost rule sends the one
        # shot of 2^63 steps to the trajectories, the only path with an
        # index row
        H, A, psi0 = five_qubit_pair()
        assert channel._law_is_cheaper(H, 1e18, counts, shots) == (shots > 1)
        with pytest.raises(OverflowError, match="largest array"):
            sample_shots(H, A, psi0, 1e18, counts, shots, seed=1)

    def test_the_law_path_keeps_no_index_row(self):
        # at T = 1, 2^63 steps, whose index row would pass np.intp, are
        # drawn from their law in one or two series pieces
        H, A, psi0 = five_qubit_pair()
        assert channel._law_is_cheaper(H, 1.0, [2 ** 63], 1)
        assert sample_shots(H, A, psi0, 1.0, [2 ** 63], 1, seed=1).tolist() in ([[1.0]], [[-1.0]])


@pytest.mark.parametrize("text", [TWO_QUBIT_TEXT, HEISENBERG_CHAIN_5], ids=["2q", "5q"])
def test_calls_read_the_term_arrays(text, monkeypatch):
    # an already-built H holds its masks: no exact, shot or generator call
    # derives them from the Pauli strings again
    H = parse_hamiltonian(text)
    A = parse_hamiltonian("1.0 Z" + "I" * (H.n_qubits - 1)).dense()
    psi0 = np.eye(H.dim, dtype=complex)[0]
    calls = []
    masks = PauliString.masks
    monkeypatch.setattr(PauliString, "masks", lambda self: calls.append(self) or masks(self))
    node_values_exact(H, A, psi0, 0.5, [12, 5])
    sample_shots(H, A, psi0, 0.5, [12], 8, seed=3)
    if H.n_qubits <= channel.SUPEROP_QUBIT_CAP:
        generator_probe(H, 0.01, 1.0)
    assert calls == []


class TestBatchEvolution:
    def test_matches_sequential(self, two_qubit, rng):
        H, _, psi0 = two_qubit
        N, B = 23, 16
        t = 0.07
        U = H.term_unitaries(H.lam * t)
        indices = rng.integers(0, len(H), size=(B, N))
        gates = H.pauli_rotations(H.lam * t)
        batch = evolve_indexed_batch(np.tile(psi0, (B, 1)), gates, indices)
        for b in range(B):
            psi = psi0.copy()
            for j in indices[b]:
                psi = U[j] @ psi
            assert np.abs(batch[b] - psi).max() <= 1e-12

    def test_short_sequences_skip_grouping(self, one_qubit, rng):
        H, _, psi0 = one_qubit
        U = H.term_unitaries(0.11)
        indices = rng.integers(0, 2, size=(3, 2))
        batch = evolve_indexed_batch(np.tile(psi0, (3, 1)), H.pauli_rotations(0.11), indices)
        for b in range(3):
            psi = U[indices[b, 1]] @ (U[indices[b, 0]] @ psi0)
            assert np.abs(batch[b] - psi).max() <= 1e-12

    def test_shot_chunk_bounds_index_bytes(self):
        # at most 2^14 / d shots, fewer where their (B, N) indices pass CHUNK_INDEX_BYTES
        assert channel.shot_chunk(4, 17905, 4) == channel.TILE_AMPLITUDES // 4 == 4096
        assert channel.shot_chunk(17, 4207, 32) == 512
        assert channel.shot_chunk(17, 673, 64) == 256
        assert channel.shot_chunk(4, 10**6, 4) == channel.CHUNK_INDEX_BYTES // 10**6
        assert channel.shot_chunk(300, 10**6, 4) == channel.CHUNK_INDEX_BYTES // (2 * 10**6)
        assert channel.shot_chunk(4, 10**10, 4) == 1
        assert channel.shot_chunk(4, 1, 2 * channel.TILE_AMPLITUDES) == 1

    def test_layouts_give_the_same_bits_at_d32(self, rng):
        # the shot sampler passes pure states broadcast, mixed ones C-ordered
        H = parse_hamiltonian(HEISENBERG_CHAIN_5)
        B, N = 64, 300
        psi0 = rng.normal(size=H.dim) + 1j * rng.normal(size=H.dim)
        psi0 /= np.linalg.norm(psi0)
        indices = rng.integers(0, len(H), size=(B, N)).astype(np.uint8)
        gates = H.pauli_rotations(0.05)
        tiled = np.tile(psi0, (B, 1))
        layouts = [np.broadcast_to(psi0, (B, H.dim)), tiled, np.asfortranarray(tiled)]
        finals = [evolve_indexed_batch(psis, gates, indices) for psis in layouts]
        assert all(f.tobytes() == finals[0].tobytes() for f in finals)

    def test_result_is_c_contiguous(self, rng):
        H = parse_hamiltonian(HEISENBERG_CHAIN_5)
        psi0 = np.zeros(H.dim, dtype=complex)
        psi0[0] = 1.0
        indices = rng.integers(0, len(H), size=(8, 5))
        tiled = np.tile(psi0, (8, 1))
        for psis in (np.broadcast_to(psi0, (8, H.dim)), tiled, np.asfortranarray(tiled)):
            out = evolve_indexed_batch(psis, H.pauli_rotations(0.05), indices)
            assert out.flags.c_contiguous

    def test_rejects_out_of_range_indices(self, one_qubit):
        H, _, psi0 = one_qubit
        with pytest.raises(ValueError):
            evolve_indexed_batch(psi0[None, :], H.pauli_rotations(0.1), np.array([[0, 2]]))

    def test_strided_rescale_keeps_states_finite(self, rng):
        # |cos 1.5| ~ 0.071, so the folded steps grow a state by
        # |cos|^-400 ~ e^1060, which a double cannot hold: the factor cos
        # must go back in every few steps, not only at the end
        H = parse_hamiltonian(HEISENBERG_CHAIN_5)
        angle, B, N = 1.5, 8, 400
        psis = rng.normal(size=(B, H.dim)) + 1j * rng.normal(size=(B, H.dim))
        psis /= np.linalg.norm(psis, axis=1, keepdims=True)
        indices = rng.integers(0, len(H), size=(B, N)).astype(np.uint8)
        finals = evolve_indexed_batch(psis, H.pauli_rotations(angle), indices)
        assert np.isfinite(finals).all()
        assert np.abs(np.linalg.norm(finals, axis=1) - 1.0).max() <= 1e-12
        U = [unitary_exp(term.dense(), angle) for term in H.terms]
        for b in range(B):
            psi = psis[b]
            for j in indices[b]:
                psi = U[j] @ psi
            assert np.abs(finals[b] - psi).max() <= 1e-11

    def test_rejects_gates_with_cos_zero(self, one_qubit):
        H, _, psi0 = one_qubit
        quarter_turn = H.pauli_rotations(np.pi / 2)
        gates = PauliRotations(cos=0.0, perm=quarter_turn.perm, coef=quarter_turn.coef)
        with pytest.raises(ValueError, match="cos 0"):
            evolve_indexed_batch(psi0[None, :], gates, np.array([[0, 1]]))


@st.composite
def pauli_sums(draw, max_qubits, min_qubits=1):
    """A random Pauli-sum Hamiltonian of 1-5 terms on min_qubits-max_qubits
    qubits, negative coefficients included."""
    n = draw(st.integers(min_qubits, max_qubits))
    L = draw(st.integers(1, 5))
    lines = []
    for _ in range(L):
        coeff = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([1, -1]))
        letters = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        lines.append(f"{coeff!r} {letters}")
    return parse_hamiltonian("\n".join(lines))


@st.composite
def indexed_evolutions(draw):
    """A random Pauli-sum Hamiltonian on 1-6 qubits, a step angle and a batch
    of 1-4 index sequences of 0-31 steps."""
    H = draw(pauli_sums(6))
    angle = draw(st.floats(-3.2, 3.2))
    B = draw(st.integers(1, 4))
    N = draw(st.integers(0, 31))
    seed = draw(st.integers(0, 2**32 - 1))
    return H, angle, B, N, seed


@given(case=indexed_evolutions())
@settings(max_examples=120, deadline=None)
def test_engine_matches_sequential_dense_product(case):
    H, angle, B, N, seed = case
    rng = np.random.default_rng(seed)
    indices = rng.integers(0, len(H), size=(B, N)).astype(np.uint8)
    psis = rng.normal(size=(B, H.dim)) + 1j * rng.normal(size=(B, H.dim))
    psis /= np.linalg.norm(psis, axis=1, keepdims=True)
    # oracle: exp(-i angle sign_j P_j) from the eigendecomposition of each term
    U = [unitary_exp(term.dense(), angle) for term in H.terms]
    batch = evolve_indexed_batch(psis, H.pauli_rotations(angle), indices)
    for b in range(B):
        psi = psis[b]
        for j in indices[b]:
            psi = U[j] @ psi
        assert np.abs(batch[b] - psi).max() <= 1e-12


@st.composite
def powering_cases(draw, min_qubits=1, max_qubits=4):
    """A random Pauli-sum Hamiltonian on min_qubits-max_qubits qubits, a
    total time, a step count, a pure or mixed initial state and the seed of
    the state and the observable."""
    H = draw(pauli_sums(max_qubits, min_qubits))
    T = draw(st.floats(0.05, 3.0))
    N = draw(st.integers(1, 2000))
    mixed = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    return H, T, N, mixed, seed


def assert_matches_kraus_oracle(case):
    H, T, N, mixed, seed = case
    rho0, A = state_and_observable(H.dim, mixed, seed)
    exact = channel_iterate_exact(H, rho0, T, N)
    looped = kraus_iterate(H, rho0, T / N, N)
    assert abs(np.trace(A @ exact) - np.trace(A @ looped)) <= oracle_tolerance(A)


@given(case=powering_cases())
@settings(max_examples=60, deadline=None)
def test_powering_matches_kraus_loop(case):
    assert_matches_kraus_oracle(case)


# N = 1, and N = 27 and 28 on either side of the exact binomial sum, at
# lam T = 1; then lam T = 24 in 1000 steps, which takes 25 pieces
@example(case=(parse_hamiltonian(HEISENBERG_CHAIN_5), 1 / 14.5, 1, False, 3))
@example(case=(parse_hamiltonian(HEISENBERG_CHAIN_5), 1 / 14.5, 27, True, 4))
@example(case=(parse_hamiltonian(HEISENBERG_CHAIN_5), 1 / 14.5, 28, False, 5))
@example(case=(parse_hamiltonian(HEISENBERG_CHAIN_5), 24 / 14.5, 1000, True, 6))
@given(case=powering_cases(5, 5))
@settings(max_examples=15, deadline=None)
def test_stepping_matches_kraus_loop_above_the_cap(case):
    assert_matches_kraus_oracle(case)


@given(case=powering_cases(), extra=st.lists(st.integers(1, 2000), max_size=5))
@settings(max_examples=60, deadline=None)
def test_stacked_nodes_match_single_nodes(case, extra):
    # unsorted and repeated step counts, in one stacked powering
    H, T, N, mixed, seed = case
    counts = [N] + extra + extra[::-1] + [N]
    rho0, A = state_and_observable(H.dim, mixed, seed)
    stacked = channel.node_values_exact(H, A, rho0, T, counts)
    single = [expectation_exact(H, A, rho0, T, n) for n in counts]
    tol = 1e-13 * max(1.0, np.abs(np.linalg.eigvalsh(A)).max())
    assert stacked.shape == (len(counts),)
    assert np.abs(stacked - single).max() <= tol


@given(H=pauli_sums(4), t=st.floats(0.01, 3.0))
@settings(max_examples=60, deadline=None)
def test_pauli_channel_matches_kron_oracle(H, t):
    # sum_j p_j conj(U_j) (x) U_j with U_j from the eigendecomposition of each term
    U = [unitary_exp(term.dense(), H.lam * t) for term in H.terms]
    oracle = sum(p * np.kron(Uj.conj(), Uj) for p, Uj in zip(H.probabilities, U))
    assert np.abs(channel.channel_superoperator(H, t) - oracle).max() <= 1e-13


def test_shot_outcomes_follow_exact_distribution():
    # Chi-square of the law path's outcome counts at two nodes, from a pure
    # and from a mixed state, against p_k = tr[Pi_k S^N(rho0)], with S the
    # vec-basis superoperator of ``channel_superoperator``, which the law
    # path does not build, and Pi_k the measurer's eigenprojectors
    from scipy.stats import chi2

    H = parse_hamiltonian(THREE_QUBIT_WITH_Y)
    A = parse_hamiltonian("1.0 ZII\n0.5 IZI\n0.25 IIZ\n").dense()
    T, counts, shots = 1.5, [12, 5], 20000
    measurer = ObservableMeasurer(A)
    mixed, _ = state_and_observable(H.dim, True, 9)
    for state in (np.eye(H.dim, dtype=complex)[0], mixed):
        rho0 = state if state.ndim == 2 else np.outer(state, state.conj())
        outcomes = sample_shots(H, measurer, state, T, counts, shots, seed=2024)
        for row, N in enumerate(counts):
            S = channel.channel_superoperator(H, T / N)
            rho = devectorize(np.linalg.matrix_power(S, N) @ vectorize(rho0))
            p = np.array([np.trace(V.conj().T @ rho @ V).real for V in measurer._blocks])
            assert abs(p.sum() - 1.0) <= 1e-12 and p.min() * shots >= 5
            hits = np.array([np.sum(outcomes[row] == v) for v in measurer.values])
            assert hits.sum() == shots
            statistic = np.sum((hits - shots * p) ** 2 / (shots * p))
            assert chi2.sf(statistic, p.size - 1) >= 1e-3 / 4


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trajectories_run_only_above_the_cap(n, monkeypatch):
    # up to SUPEROP_QUBIT_CAP = 4 qubits the shots come from their law alone
    H = parse_hamiltonian(heisenberg_chain(n))
    A = parse_hamiltonian("1.0 Z" + "I" * (n - 1)).dense()
    evolved = []
    engine = channel.evolve_indexed_batch
    monkeypatch.setattr(channel, "evolve_indexed_batch", lambda psis, gates, indices:
                        evolved.append(indices.shape) or engine(psis, gates, indices))
    outcomes = sample_shots(H, A, np.eye(H.dim)[0], 0.5, [20, 7], 16, seed=3)
    assert outcomes.shape == (2, 16) and set(outcomes.ravel()) <= {-1.0, 1.0}
    assert evolved == ([(16, 20), (16, 7)] if n > channel.SUPEROP_QUBIT_CAP else [])


def test_law_shot_k_reads_uniform_k(monkeypatch):
    # shot k of node j is the outcome that uniform k of substream(seed, j)
    # picks from the node's cumulative law, also when the uniforms are
    # drawn in slabs of 7; a repeated N is drawn again on its own stream
    H = parse_hamiltonian(TWO_QUBIT_TEXT)
    rho0, A = state_and_observable(H.dim, True, 12)
    measurer = ObservableMeasurer(A)
    T, counts, shots, seed = 0.7, [9, 4, 9], 40, 31
    law = np.array([node_values_exact(H, V @ V.conj().T, rho0, T, counts)
                    for V in measurer._blocks]).T
    outcomes = sample_shots(H, measurer, rho0, T, counts, shots, seed)
    monkeypatch.setattr(channel, "TILE_AMPLITUDES", 7)
    assert sample_shots(H, measurer, rho0, T, counts, shots, seed).tobytes() == outcomes.tobytes()
    assert measurer.values.size == 4 and outcomes[0].tolist() != outcomes[2].tolist()
    for j, cum in enumerate(np.cumsum(law, axis=1)):
        u = substream(seed, j).random(shots)
        assert np.abs(u[:, None] - cum).min() > 1e-9   # no uniform at an edge
        expected = measurer.values[np.searchsorted(cum, u, side="right")]
        assert outcomes[j].tolist() == expected.tolist()


def unit_chain(n):
    """``heisenberg_chain(n)`` divided by its lambda, the chain of the
    shot_heis5 benchmark workload at n = 5."""
    H = parse_hamiltonian(heisenberg_chain(n))
    return parse_hamiltonian("".join(f"{float(w / H.lam)!r} {term.pauli.letters}\n"
                                     for w, term in zip(H.weights, H.terms)))


@pytest.mark.parametrize("H, T, counts, shots, law", [
    # shot_heis5's plan: 1.9e6 series products against 2.7e7 gathers
    (unit_chain(5), 1.0, [4207, 673], 176, True),
    # a short run: 9.4e5 against 3.2e5
    (unit_chain(5), 1.0, [200], 50, False),
    # test_trajectories_run_only_above_the_cap's run: 3.3e5 against 1.4e4
    (parse_hamiltonian(heisenberg_chain(5)), 0.5, [20, 7], 16, False),
    # up to the cap the law runs whatever the counts
    (parse_hamiltonian(heisenberg_chain(4)), 0.5, [20, 7], 16, True),
], ids=["shot_heis5", "short", "above-the-cap-test", "4-qubits"])
def test_cost_rule_picks_the_cheaper_path(H, T, counts, shots, law, monkeypatch):
    assert channel._law_is_cheaper(H, T, counts, shots) is law
    evolved = []
    engine = channel.evolve_indexed_batch
    monkeypatch.setattr(channel, "evolve_indexed_batch", lambda psis, gates, indices:
                        evolved.append(indices.shape) or engine(psis, gates, indices))
    A = parse_hamiltonian("1.0 Z" + "I" * (H.n_qubits - 1)).dense()
    sample_shots(H, A, np.eye(H.dim)[0], T, counts, shots, seed=1)
    assert evolved == ([] if law else [(shots, N) for N in counts])


def test_cost_rule_counts_the_series_pieces(monkeypatch):
    # the rule and _pauli_powers read one piece length per node: on
    # shot_heis5's plan two pieces of n = N - 1 steps, each of 27 series
    # terms, so 2 * 2 * 27 L d^2 products against shots (4207 + 673) d
    H = unit_chain(5)
    assert [channel._series_piece(H, 1.0, N)[2] for N in (4207, 673)] == [4206, 672]
    law, trajectories = 2 * 2 * 27 * len(H) * H.dim ** 2, (4207 + 673) * H.dim
    assert law // trajectories == 12   # so the law from 13 shots up
    assert channel._law_is_cheaper(H, 1.0, [4207, 673], 13)
    assert not channel._law_is_cheaper(H, 1.0, [4207, 673], 12)
    read = []
    piece = channel._series_piece
    monkeypatch.setattr(channel, "_series_piece",
                        lambda H, T, N: read.append(N) or piece(H, T, N))
    channel._pauli_powers(H, np.eye(1, H.dim ** 2)[0], 1.0, [4207, 673])
    channel._law_is_cheaper(H, 1.0, [4207, 673, 4207], 176)
    assert sorted(read) == [673, 673, 4207, 4207]


def test_law_shot_k_reads_uniform_k_above_the_cap(monkeypatch):
    # the five-qubit twin of test_law_shot_k_reads_uniform_k: where the
    # cost rule picks the law, shot k of node j is the outcome uniform k of
    # substream(seed, j) picks from the node's cumulative law, in slabs of
    # any size, and no circuit is simulated
    H = parse_hamiltonian(HEISENBERG_CHAIN_5)
    rho0, A = state_and_observable(H.dim, True, 12)
    measurer = ObservableMeasurer(A)
    T, counts, shots, seed = 0.05, [40, 12, 40], 300, 31
    assert channel._law_is_cheaper(H, T, counts, shots)
    law = np.array([node_values_exact(H, V @ V.conj().T, rho0, T, counts)
                    for V in measurer._blocks]).T
    monkeypatch.setattr(channel, "evolve_indexed_batch", None)
    outcomes = sample_shots(H, measurer, rho0, T, counts, shots, seed)
    monkeypatch.setattr(channel, "TILE_AMPLITUDES", 7)
    assert sample_shots(H, measurer, rho0, T, counts, shots, seed).tobytes() == outcomes.tobytes()
    assert measurer.values.size == H.dim and outcomes[0].tolist() != outcomes[2].tolist()
    for j, cum in enumerate(np.cumsum(law, axis=1)):
        u = substream(seed, j).random(shots)
        assert np.abs(u[:, None] - cum).min() > 1e-9   # no uniform at an edge
        expected = measurer.values[np.searchsorted(cum, u, side="right")]
        assert outcomes[j].tolist() == expected.tolist()


THREE_QUBIT_WITH_Y = "0.5 XYI\n0.3 IZZ\n0.4 YIX\n-0.2 ZXY\n0.6 XII\n"
CHAIN5_FIELDS = "1.0 ZIIII\n0.5 IZIII\n0.25 IIZII\n"
# 171 terms whose cumulative probabilities fall alternately just above and
# just below edges of the sampler's 256 guide buckets, so that the lifts,
# not the bucket, decide a third of the draws between X and Z
GUIDE_EDGES = "".join(f"{1 / 256 + 1e-5!r} X\n{2 / 256 - 1e-5 - 1e-7!r} Z\n"
                      for _ in range(85)) + f"{1 / 256 + 85e-7!r} Z\n"
ORACLE_CASES = {
    # id: (H, observable text or None for a random one, state rank, T, step counts, row);
    # the -table ids name d <= 4 cases, which once ran a table of step products
    "d2-table": ("0.6 X\n0.4 Z\n", "1.0 Z", 1, 1.0, [31], 0),
    "d4-table": (TWO_QUBIT_TEXT, None, 1, 1.0, [41], 0),
    "d8-pauli": (THREE_QUBIT_WITH_Y, None, 1, 1.5, [25], 0),
    "d32-pauli": (HEISENBERG_CHAIN_5, CHAIN5_FIELDS, 1, 1.0, [30], 0),
    # lam T / N = 1.5: |cos|^-400 overflows a double, so cos goes back in strides
    "d32-strided": (HEISENBERG_CHAIN_5, CHAIN5_FIELDS, 1, 400 * 1.5 / 14.5, [400], 0),
    "rank3-d8": (THREE_QUBIT_WITH_Y, None, 3, 1.2, [20], 0),
    "guide-lifts": (GUIDE_EDGES, "1.0 Z", 1, 1.0, [20], 0),
    "row2-d4": (TWO_QUBIT_TEXT, None, 1, 1.0, [50, 20, 9], 2),
}


@pytest.mark.parametrize("case", ORACLE_CASES, ids=list(ORACLE_CASES))
def test_shot_counts_follow_the_exact_channel(case):
    # The law of the trajectory engine's outcomes, run at every d although
    # sample_shots runs it only above 4 qubits: counts of each outcome
    # against p_k = tr[Pi_k E^N(rho0)] from node_values_exact, Pi_k the
    # measurer's eigenprojectors.  An exact binomial test for two
    # outcomes, else chi-square; fixed seeds, and a Bonferroni threshold
    # over the cases, keep it deterministic.
    from scipy.stats import binomtest, chi2

    text, obs, rank, T, counts, row = ORACLE_CASES[case]
    H = parse_hamiltonian(text)
    seed = 100 + list(ORACLE_CASES).index(case)
    rho0, A = state_and_observable(H.dim, False, seed)
    if obs is not None:
        A = parse_hamiltonian(obs).dense()
    if rank > 1:
        M = np.random.default_rng(seed).normal(size=(H.dim, rank)) * (1 + 1j)
        rho0 = M @ M.conj().T / np.trace(M @ M.conj().T).real
        assert np.linalg.matrix_rank(rho0) == rank
    state = rho0 if rank > 1 else np.linalg.eigh(rho0)[1][:, -1]
    shots = 20000
    measurer = ObservableMeasurer(A)
    p = np.array([node_values_exact(H, V @ V.conj().T, rho0, T, counts)[row]
                  for V in measurer._blocks])
    assert abs(p.sum() - 1.0) <= 1e-12 and p.min() * shots >= 5
    outcomes = trajectory_shots(H, measurer, state, T, counts, shots, seed)[row]
    hits = np.array([np.sum(outcomes == v) for v in measurer.values])
    assert hits.sum() == shots
    if p.size == 2:
        pvalue = binomtest(int(hits[0]), shots, p[0]).pvalue
    else:
        pvalue = chi2.sf(np.sum((hits - shots * p) ** 2 / (shots * p)), p.size - 1)
    assert pvalue >= 1e-3 / len(ORACLE_CASES)


@pytest.mark.parametrize("mixed, digest", [
    (False, "ab7de94e2983e7779bbf68112b5d7ea0a4986f00ff91beb5555152bdb991f182"),
    (True, "92c50a095d5a84950d95a339a9d81bfbf236b539dc397f30ffa3837dc7834562"),
], ids=["False", "True"])
def test_pinned_chain_outcomes(mixed, digest):
    # 5000 shots of 200 steps on the 5-qubit chain, in ten tiles, through
    # a random observable with 32 distinct eigenvalues.  The outcomes are
    # pinned as eigenvalue positions, whose bits do not depend on LAPACK.
    H = parse_hamiltonian(HEISENBERG_CHAIN_5)
    rho0, A = state_and_observable(H.dim, True, 5)
    state = rho0 if mixed else np.eye(H.dim)[0]
    measurer = ObservableMeasurer(A)
    assert measurer.values.size == H.dim
    outcomes = trajectory_shots(H, measurer, state, 1.0, [200], 5000, seed=7)[0]
    positions = np.searchsorted(measurer.values, outcomes).astype(np.uint8)
    assert np.array_equal(measurer.values[positions], outcomes)
    assert hashlib.sha256(positions.tobytes()).hexdigest() == digest


def dyadic_rotations(H):
    """H's Pauli gates with cos 3/4 and sin 1/2 in place of a step angle's:
    every gate entry and every product of gates is then exact, so the bits
    of an evolution depend on the engine's own arithmetic, not on the host's
    sin, cos or BLAS.  The Pauli steps divide coef by cos and put cos back
    as 0.75^k once per stride, so their bits also rest on the C library's
    pow."""
    quarter_turn = H.pauli_rotations(np.pi / 2)   # coef -i sign_j times the phases
    return PauliRotations(cos=0.75, perm=quarter_turn.perm, coef=0.5 * quarter_turn.coef)


@pytest.mark.parametrize("text, B, N, seed, digest", [
    # Pauli gates at d = 32, with the batch and step count of shot_heis5's
    # coarse node
    (HEISENBERG_CHAIN_5, 176, 673, 11,
     "031adb85fc29fdc56abe1930765bbc0753a28ca7849c967e18aa7aab6f312b5a"),
], ids=["pauli-d32"])
def test_pinned_engine_states(text, B, N, seed, digest):
    # sha256 of the final states' bytes, from the sampler's term draws and
    # its broadcast initial state; the states also match the same gates'
    # dense products applied one step at a time
    H = parse_hamiltonian(text)
    indices = np.stack([H.sample_terms(substream(seed, 0, b), N) for b in range(B)])
    psi0 = np.eye(H.dim, dtype=complex)[0]
    gates = dyadic_rotations(H)
    finals = evolve_indexed_batch(np.broadcast_to(psi0, (B, H.dim)), gates,
                                  indices.astype(np.uint8))
    assert hashlib.sha256(finals.tobytes()).hexdigest() == digest
    U = gates.dense()
    psis = np.tile(psi0, (B, 1))
    for i in range(N):
        psis = np.einsum("bij,bj->bi", U[indices[:, i]], psis)
    scale = np.linalg.norm(psis, axis=1)
    assert np.all(np.abs(finals - psis).max(axis=1) <= 1e-12 * scale)


@pytest.mark.parametrize("mixed", [False, True])
def test_tiles_give_the_same_outcomes(mixed, monkeypatch):
    # 700 shots at d = 64 run as tiles of 256, 256 and 188 shots, then as
    # one batch of 700
    H = parse_hamiltonian(heisenberg_chain(6))
    rho0, A = state_and_observable(H.dim, True, 6)
    state = rho0 if mixed else np.eye(H.dim)[0]
    measurer = ObservableMeasurer(A)
    assert channel.shot_chunk(len(H), 60, H.dim) == 256
    tiled = trajectory_shots(H, measurer, state, 1.0, [60] * 3, 700, seed=3)[2]
    monkeypatch.setattr(channel, "TILE_AMPLITUDES", 700 * H.dim)
    assert channel.shot_chunk(len(H), 60, H.dim) == 700
    whole = trajectory_shots(H, measurer, state, 1.0, [60] * 3, 700, seed=3)[2]
    assert len(set(tiled)) > 10
    assert tiled.tobytes() == whole.tobytes()


@pytest.mark.parametrize("text, N", [(TWO_QUBIT_TEXT, 100), (HEISENBERG_CHAIN_5, 200)],
                         ids=["d4-table", "d32-pauli"])
def test_slabs_give_the_same_outcomes(text, N, monkeypatch):
    # 300 trajectory shots at two nodes from a mixed state, drawn in the
    # default tiles and slabs, then in slabs of one row (tiles of 37 and 9
    # shots), then as one tile drawn as one slab
    H = parse_hamiltonian(text)
    rho0, A = state_and_observable(H.dim, True, 8)
    measurer = ObservableMeasurer(A)
    shots = 300
    outcomes = []
    for amplitudes in (channel.TILE_AMPLITUDES, 3 * N // 2, shots * (N + 2) * H.dim):
        monkeypatch.setattr(channel, "TILE_AMPLITUDES", amplitudes)
        outcomes.append(trajectory_shots(H, measurer, rho0, 1.0, [N, N // 3], shots, seed=4))
    assert 3 * N // 2 // (N + 2) == 1
    assert len(set(outcomes[0][0])) > 2
    assert outcomes[1].tobytes() == outcomes[0].tobytes() == outcomes[2].tobytes()


def test_tile_draw_peaks_near_its_slab():
    # shot_heis5's finer tile, 176 shots of 4207 steps, drawn in slabs of
    # 3 rows of uniforms: besides the tile's own arrays the draw holds one
    # slab and the lookup's intp and bool buffers, 17 bytes per uniform;
    # the lookup's full-size temporaries once took it to 3.1 slabs
    H = parse_hamiltonian(HEISENBERG_CHAIN_5)
    B, N = 176, 4207
    slab = channel.TILE_AMPLITUDES // (N + 2) * (N + 2) * 8
    rng = substream(1, 0)
    tracemalloc.start()
    try:
        heads, indices = channel._draw_tile(H, rng, B, N, np.uint8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert indices.shape == (B, N) and indices.max() == len(H) - 1
    assert peak - heads.nbytes - indices.nbytes <= 2.25 * slab


class TestMeasurement:
    def test_eigenstate_is_deterministic(self, rng):
        m = ObservableMeasurer(Z)
        u = rng.random(10)
        assert np.all(m.sample_batch(np.tile(KET0, (10, 1)), u) == 1.0)
        assert np.all(m.sample_batch(np.tile(np.array([0, 1], dtype=complex), (10, 1)), u) == -1.0)

    def test_degenerate_eigenvalues_merge(self):
        m = ObservableMeasurer(np.eye(4))
        assert m.values.shape == (1,)
        assert m.values[0] == pytest.approx(1.0)
        assert m.norm == pytest.approx(1.0)

    def test_batch_matches_expectation(self, rng):
        A = np.diag([2.0, -1.0]).astype(complex)
        psi = np.array([np.sqrt(0.7), np.sqrt(0.3)], dtype=complex)
        n = 20000
        vals = ObservableMeasurer(A).sample_batch(np.tile(psi, (n, 1)), rng.random(n))
        mean_true = 0.7 * 2.0 + 0.3 * (-1.0)
        se = np.std(vals, ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - mean_true) <= 4 * se

    @pytest.mark.parametrize("bad", [[np.nan, 0], [0, 0]], ids=["nan", "zero"])
    def test_unmeasurable_state_is_refused(self, bad):
        # such a row once measured as the lowest eigenvalue, with no warning
        psis = np.array([bad, [0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ArithmeticError, match="state 0"):
            ObservableMeasurer(Z).sample_batch(psis, np.full(3, 0.5))


class TestNegativeCoefficients:
    def test_channel_converges_to_signed_evolution(self):
        # a sign flip of -0.3 Z would converge to a different <A> (0.35 vs 0.93)
        H = parse_hamiltonian("0.5 X\n-0.3 Z\n0.2 Y\n")
        A = np.array([[0, 0.5 - 1j], [0.5 + 1j, 0]])
        psi = np.array([0.6, 0.8j])
        rho = np.outer(psi, psi.conj())
        exact = exact_expectation(H, A, rho, 1.0)
        assert abs(expectation_exact(H, A, rho, 1.0, 2000) - exact) <= 2e-3


class TestQdriftRun:
    def test_deterministic_per_seed(self, one_qubit):
        H, A, psi0 = one_qubit
        a = sample_shots(H, A, psi0, 1.0, [10], 8, seed=42)[0]
        b = sample_shots(H, A, psi0, 1.0, [10], 8, seed=42)[0]
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_step(self, one_qubit):
        H, A, psi0 = one_qubit
        with pytest.raises(ValueError):
            sample_shots(H, A, psi0, 1.0, [0], 8, seed=1)
        with pytest.raises(ValueError):
            sample_shots(H, A, psi0, 1.0, [10], 0, seed=1)
        with pytest.raises(ValueError, match="^shots must be >= 1 and an integer, got 2.5$"):
            sample_shots(H, A, psi0, 1.0, [10], 2.5, seed=1)

    @pytest.mark.parametrize("seed", [None, 2.5, -1, np.float64(3.0)])
    def test_rejects_a_seed_that_is_not_a_nonnegative_integer(self, one_qubit, seed):
        H, A, psi0 = one_qubit
        with pytest.raises(ValueError, match=f"^seed must be >= 0 and an integer, got {seed}$"):
            sample_shots(H, A, psi0, 1.0, [10], 8, seed=seed)

    def test_batch_matches_single_runs(self, two_qubit, monkeypatch):
        H, A, psi0 = two_qubit
        batch = sample_shots(H, A, psi0, 1.0, [20], 5, seed=3)[0]
        monkeypatch.setattr(channel, "TILE_AMPLITUDES", 1)
        single = sample_shots(H, A, psi0, 1.0, [20], 5, seed=3)[0]
        assert batch.tolist() == single.tolist()

    def test_mean_approximates_channel_expectation(self, one_qubit):
        H, A, psi0 = one_qubit
        T, N, runs = 1.0, 10, 3000
        rho = np.outer(psi0, psi0.conj())
        target = expectation_exact(H, A, rho, T, N)
        vals = sample_shots(H, A, psi0, T, [N], runs, seed=0)[0]
        se = np.std(vals, ddof=1) / np.sqrt(runs)
        assert abs(vals.mean() - target) <= 4 * se


def _counted_builds(monkeypatch, module, names) -> dict:
    """Replaces each builder ``names`` of ``module`` with one that counts its
    calls.  A table a Hamiltonian already keeps is not built again, so only
    Hamiltonians built inside the test show their builds."""
    calls = dict.fromkeys(names, 0)

    def counting(name):
        build = getattr(module, name)

        def count(H):
            calls[name] += 1
            return build(H)
        return count

    for name in names:
        monkeypatch.setattr(module, name, counting(name))
    return calls


def _arrays(table):
    if isinstance(table, np.ndarray):
        yield table
    elif isinstance(table, tuple):
        for item in table:
            yield from _arrays(item)


class TestDerivedTables:
    """Each Hamiltonian builds the tables that do not depend on the step
    time once, on first use, and keeps them read-only."""

    def test_second_noiseless_run_builds_no_channel_table(self, two_qubit, monkeypatch):
        _, A, psi0 = two_qubit
        request = dict(initial_state=psi0, observable=A, total_time=1.0, epsilon=0.01,
                       delta=0.1, master_seed=1)
        fresh = pipeline.run(pipeline.QfloRequest(parse_hamiltonian(TWO_QUBIT_TEXT), **request))
        calls = _counted_builds(monkeypatch, channel, ["_pauli_action", "pauli_cosets"])
        H = parse_hamiltonian(TWO_QUBIT_TEXT)
        first = pipeline.run(pipeline.QfloRequest(H, **request))
        assert calls == {"_pauli_action": 1, "pauli_cosets": 1}
        second = pipeline.run(pipeline.QfloRequest(H, **request))
        assert calls == {"_pauli_action": 1, "pauli_cosets": 1}
        assert len(first.per_node) > 1
        for r in (first, second):
            assert r.estimate.hex() == fresh.estimate.hex()
            assert [n.mean.hex() for n in r.per_node] == [n.mean.hex() for n in fresh.per_node]

    def test_stepping_path_builds_the_term_action_once(self, monkeypatch):
        # above the powering cap every node steps over the kept term action
        text = HEISENBERG_CHAIN_5
        A = parse_hamiltonian("1.0 ZIIII").dense()
        psi0 = np.eye(32, dtype=complex)[0]
        fresh = node_values_exact(parse_hamiltonian(text), A, psi0, 0.5, [12, 5])
        calls = _counted_builds(monkeypatch, channel, ["_pauli_action", "pauli_cosets"])
        H = parse_hamiltonian(text)
        for _ in range(2):
            values = node_values_exact(H, A, psi0, 0.5, [12, 5])
            assert [v.hex() for v in values] == [v.hex() for v in fresh]
        channel_iterate_exact(H, psi0, 0.5, 3)
        assert calls == {"_pauli_action": 1, "pauli_cosets": 0}
        # the kept term action is the int8 signs alone, one byte per (term, Pauli)
        action = H.derived(channel._pauli_action)
        assert isinstance(action, np.ndarray) and action.dtype == np.int8
        assert action.nbytes == len(H) * H.dim ** 2 and not action.flags.writeable

    @pytest.mark.parametrize("n", range(1, 9))
    def test_term_action_chunks_match_one_build(self, n):
        # chunks of TILE_AMPLITUDES // d^2 terms: 1 term from 7 qubits up,
        # and a part-filled last chunk at 5 and 6
        rng = np.random.default_rng(n)
        strings = sorted({"".join(rng.choice(list("IXYZ"), n)) for _ in range(3 * n + 2)})
        H = parse_hamiltonian("".join(f"{(-1) ** k * (k + 1) / 8!r} {p}\n"
                                      for k, p in enumerate(strings)))
        masks = H.x_masks * H.dim + H.z_masks
        e = channel._product_phase(masks[:, None], np.arange(H.dim ** 2), n)
        one_build = np.array([0, 1, 0, -1], dtype=np.int8)[e] * H.signs[:, None]
        action = channel._pauli_action(H)
        assert action.dtype == np.int8 and action.shape == one_build.shape
        assert action.tobytes() == one_build.tobytes()

    def test_term_action_build_peaks_near_the_signs_kept(self):
        # one build of the 8-qubit chain's (29, 65536) phases peaked at 33x
        # the 1.8 MiB it keeps
        H = parse_hamiltonian(heisenberg_chain(8))
        tracemalloc.start()
        try:
            action = channel._pauli_action(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert action.nbytes == len(H) * 4 ** 8
        assert peak <= 4 * action.nbytes

    def test_shots_build_gate_gathers_once(self, two_qubit, monkeypatch):
        _, A, psi0 = two_qubit
        fresh = trajectory_shots(parse_hamiltonian(TWO_QUBIT_TEXT), A, psi0, 0.7, [9, 4, 2], 5, 3)
        calls = _counted_builds(monkeypatch, hamiltonian, ["_term_gathers"])
        H = parse_hamiltonian(TWO_QUBIT_TEXT)
        for _ in range(2):
            outcomes = trajectory_shots(H, A, psi0, 0.7, [9, 4, 2], 5, 3)
            assert outcomes.tolist() == fresh.tolist()
        exact_expectation(H, A, psi0, 0.7)
        assert calls == {"_term_gathers": 1}

    def test_kept_tables_are_read_only_and_results_writeable(self, two_qubit):
        _, A, psi0 = two_qubit
        H = parse_hamiltonian(TWO_QUBIT_TEXT)
        probe = generator_probe(H, 0.125, 1.0)
        node_values_exact(H, A, psi0, 1.0, [7, 3])
        gates = H.pauli_rotations(0.3)
        # term action, cosets, sectors, gate gathers
        assert len(H._derived) == 4
        arrays = [a for table in H._derived.values() for a in _arrays(table)]
        assert len(arrays) > 4 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            gates.perm[0, 0] = 0
        assert all(block.flags.writeable for block in probe.blocks)
        assert gates.coef.flags.writeable
        assert H.dense().flags.writeable

    def test_density_matrix_is_decomposed_once_per_call(self, two_qubit, monkeypatch):
        # the PSD check reads the eigenvalues of the one eigh whose
        # eigenpairs the shot ensemble uses
        H, A, _ = two_qubit
        rho0 = np.diag([0.6, 0.3, 0.1, 0.0]).astype(complex)
        before = sample_shots(H, A, rho0, 0.7, [9, 4], 6, seed=2)
        calls = []
        for name in ("eigh", "eigvalsh"):
            def counting(M, _decompose=getattr(np.linalg, name), _name=name):
                if np.array_equal(M, rho0):
                    calls.append(_name)
                return _decompose(M)
            monkeypatch.setattr(np.linalg, name, counting)
        outcomes = sample_shots(H, A, rho0, 0.7, [9, 4], 6, seed=2)
        assert calls == ["eigh"]
        assert outcomes.tolist() == before.tolist()
