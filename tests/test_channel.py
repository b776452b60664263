import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflo import channel
from qflo.channel import (
    ObservableMeasurer,
    channel_iterate_exact,
    evolve_indexed_batch,
    exact_expectation,
    expectation_exact,
    sample_shots,
    substream,
)
from qflo.hamiltonian import parse_hamiltonian
from qflo.linalg import conjugation_superoperator, unitary_exp, vectorize

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
KET0 = np.array([1, 0], dtype=complex)
RHO0 = np.outer(KET0, KET0.conj())
HEISENBERG_CHAIN_4 = "".join(
    f"1.0 {'I' * i}{p}{p}{'I' * (2 - i)}\n" for i in range(3) for p in "XYZ"
) + "".join(f"0.5 {'I' * i}X{'I' * (3 - i)}\n" for i in range(4))


def kraus_iterate(H, rho, t, N):
    """Reference oracle: N steps of sum_j p_j U_j rho U_j^dag on the density
    matrix, one step at a time, with U_j the dense term unitaries."""
    U = H.term_unitaries(H.lam * t)
    Ud = U.conj().transpose(0, 2, 1)
    for _ in range(N):
        rho = np.tensordot(H.probabilities, U @ rho @ Ud, axes=1)
    return rho


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


class TestTrajectories:
    def test_deterministic_for_seed(self, one_qubit):
        H, A, psi0 = one_qubit
        a = sample_shots(H, A, psi0, 1.0, 50, 16, seed=123)
        b = sample_shots(H, A, psi0, 1.0, 50, 16, seed=123)
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
            sample_shots(H, A, 2 * KET0, 0.3, 3, 1, seed=1)

    def test_overflowing_step_angle_is_refused(self):
        # 2 lam T/N = 4e308: the gates' sines, and so every outcome
        # probability, would be NaN
        H = parse_hamiltonian("1.5 ZI\n0.5 XI")
        A = parse_hamiltonian("1.0 ZI").dense()
        with pytest.raises(OverflowError, match="t = 1e\\+308"):
            sample_shots(H, A, np.eye(4)[0], 1e308, 1, 4, seed=3)

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

    def test_shot_draw_layout(self, two_qubit):
        # shot k of node j: measurement uniform, initial-state uniform, then
        # the N term uniforms, all from substream(seed, j, k)
        H, A, psi0 = two_qubit
        T, N, seed, node = 0.7, 9, 31, 2
        measurer = ObservableMeasurer(A)
        expected = []
        for k in range(12):
            rng = substream(seed, node, k)
            u_meas = rng.random()
            rng.random()
            psi = evolve(psi0, H, H.sample_terms(rng, N), T / N)
            expected.append(measurer.sample_batch(psi[None, :], np.array([u_meas]))[0])
        assert sample_shots(H, A, psi0, T, N, 12, seed, node).tolist() == expected


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

    def test_table_only_below_cutoff(self):
        # the product table pays off while d <= 2 * group; else Pauli gates only
        assert channel._auto_group(4, 4, 100) > 1
        assert channel._auto_group(8, 8, 100) > 1
        assert channel._auto_group(17, 8, 100) == 1
        assert channel._auto_group(4, 16, 100) == 1
        assert channel._auto_group(17, 32, 4207) == 1

    def test_group_codes_fit_smallest_type(self):
        indices = np.array([[3, 1, 2, 0, 1, 3, 2]], dtype=np.uint8)
        codes = channel._group_codes(indices, 4, 3, 2)
        assert codes.dtype == np.uint8
        assert codes.tolist() == [[3 + 4 * 1 + 16 * 2, 0 + 4 * 1 + 16 * 3]]
        assert channel._group_codes(indices, 16, 3, 2).dtype == np.uint16

    def test_shot_chunk_bounds_index_bytes(self):
        assert channel.shot_chunk(4, 17905) == channel.SHOT_CHUNK
        assert channel.shot_chunk(4, 10**6) == channel.CHUNK_INDEX_BYTES // 10**6
        assert channel.shot_chunk(300, 10**6) == channel.CHUNK_INDEX_BYTES // (8 * 10**6)
        assert channel.shot_chunk(4, 10**10) == 1

    def test_rejects_out_of_range_indices(self, one_qubit):
        H, _, psi0 = one_qubit
        with pytest.raises(ValueError):
            evolve_indexed_batch(psi0[None, :], H.pauli_rotations(0.1), np.array([[0, 2]]))


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
    of index sequences whose length reaches both sides of the table cutoff
    and tails shorter than a group."""
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
    # Chi-square of sample_shots' outcome counts against
    # p_k = tr[Pi_k E^N(rho0)] from the exact channel, Pi_k the measurer's
    # eigenprojectors.
    from scipy.stats import chi2

    H = parse_hamiltonian("0.5 XYI\n0.3 IZZ\n0.4 YIX\n-0.2 ZXY\n0.6 XII\n")
    A = parse_hamiltonian("1.0 ZII\n0.5 IZI\n0.25 IIZ\n").dense()
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[0] = 1.0
    T, N, shots = 1.5, 12, 20000
    measurer = ObservableMeasurer(A)
    rho = channel_iterate_exact(H, np.outer(psi0, psi0.conj()), T, N)
    p = np.array([np.trace(V.conj().T @ rho @ V).real for V in measurer._blocks])
    assert abs(p.sum() - 1.0) <= 1e-12 and p.min() * shots >= 5
    outcomes = sample_shots(H, measurer, psi0, T, N, shots, seed=2024)
    counts = np.array([np.sum(outcomes == v) for v in measurer.values])
    assert counts.sum() == shots
    statistic = np.sum((counts - shots * p) ** 2 / (shots * p))
    assert chi2.sf(statistic, p.size - 1) >= 1e-3


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
        a = sample_shots(H, A, psi0, 1.0, 10, 8, seed=42)
        b = sample_shots(H, A, psi0, 1.0, 10, 8, seed=42)
        assert np.array_equal(a, b)

    def test_rejects_nonpositive_step(self, one_qubit):
        H, A, psi0 = one_qubit
        with pytest.raises(ValueError):
            sample_shots(H, A, psi0, 1.0, 0, 8, seed=1)
        with pytest.raises(ValueError):
            sample_shots(H, A, psi0, 1.0, 10, 0, seed=1)

    def test_batch_matches_single_runs(self, two_qubit, monkeypatch):
        H, A, psi0 = two_qubit
        batch = sample_shots(H, A, psi0, 1.0, 20, 5, seed=3)
        monkeypatch.setattr(channel, "SHOT_CHUNK", 1)
        single = sample_shots(H, A, psi0, 1.0, 20, 5, seed=3)
        assert batch.tolist() == single.tolist()

    def test_mean_approximates_channel_expectation(self, one_qubit):
        H, A, psi0 = one_qubit
        T, N, runs = 1.0, 10, 3000
        rho = np.outer(psi0, psi0.conj())
        target = expectation_exact(H, A, rho, T, N)
        vals = sample_shots(H, A, psi0, T, N, runs, seed=0)
        se = np.std(vals, ddof=1) / np.sqrt(runs)
        assert abs(vals.mean() - target) <= 4 * se
