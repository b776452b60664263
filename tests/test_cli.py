import contextlib
import gc
import inspect
import io
import json
import math
import re
import sys
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qflo import channel, cli, generator, linalg
from qflo.channel import sample_shots
from qflo.cli import main
from qflo.hamiltonian import parse_hamiltonian

ONE_QUBIT = "0.5 X\n0.5 Z\n"
OBS_Z = "1.0 Z\n"
DEPOLARIZING = "0.25 I\n0.25 X\n0.25 Y\n0.25 Z\n"
THREE_QUBIT = "0.5 XYI\n0.3 IZZ\n0.4 YIX\n0.2 ZXY\n"
TWO_QUBIT = "0.3 ZZ\n0.3 XI\n0.2 IX\n0.2 YZ\n"
OBS_ZIZ = "1.0 ZIZ\n"
CHAIN_4 = "".join(
    f"1.0 {'I' * i}{p}{p}{'I' * (2 - i)}\n" for i in range(3) for p in "XYZ"
) + "".join(f"0.5 {'I' * i}X{'I' * (3 - i)}\n" for i in range(4))

# the 5-qubit chain of the shot_heis5 benchmark workload: couplings 1 and
# fields 0.5, divided by lambda = 14.5
CHAIN_5 = "".join(f"{1 / 14.5!r} {'I' * i}{p}{p}{'I' * (3 - i)}\n"
                  for i in range(4) for p in "XYZ") + "".join(
    f"{0.5 / 14.5!r} {'I' * i}X{'I' * (4 - i)}\n" for i in range(5))


@pytest.fixture
def ham_file(tmp_path):
    path = tmp_path / "ham.txt"
    path.write_text(ONE_QUBIT)
    return str(path)


@pytest.fixture
def obs_file(tmp_path):
    path = tmp_path / "obs.txt"
    path.write_text(OBS_Z)
    return str(path)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNodes:
    def test_table_values(self, capsys):
        code, out, _ = run_cli(["nodes", "--m", "2"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "j,x_j,k_j,y_j,b_j"
        first = lines[1].split(",")
        assert first[0] == "1"
        assert first[2] == "10"
        assert first[3] == "100"
        assert float(first[4]) == pytest.approx(25 / 21)
        second = lines[2].split(",")
        assert second[2] == "4"
        assert second[3] == "16"

    def test_byte_determinism(self, capsys):
        _, out1, _ = run_cli(["nodes", "--m", "6"], capsys)
        _, out2, _ = run_cli(["nodes", "--m", "6"], capsys)
        assert out1 == out2

    def test_seventeen_digit_floats(self, capsys):
        _, out, _ = run_cli(["nodes", "--m", "2"], capsys)
        x_field = out.strip().split("\n")[1].split(",")[1]
        assert x_field == f"{math.sin(math.pi / 16) ** 2:.17g}"

    def test_json_summary(self, tmp_path, capsys):
        json_path = tmp_path / "nodes.json"
        code, _, _ = run_cli(["nodes", "--m", "2", "--json", str(json_path)], capsys)
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert payload["command"] == "nodes"
        assert payload["outputs"]["R"] == pytest.approx(math.sqrt(8) * 2 / math.pi)
        assert payload["outputs"]["one_norm"] == pytest.approx(29 / 21)

    def test_out_file(self, tmp_path, capsys):
        out_path = tmp_path / "nodes.csv"
        code, out, _ = run_cli(["nodes", "--m", "3", "--out", str(out_path)], capsys)
        assert code == 0
        assert out == ""
        assert out_path.read_text().startswith("j,x_j,k_j,y_j,b_j\n")


class TestQdrift:
    def _argv(self, ham_file, obs_file, seed="7"):
        return [
            "qdrift", "--hamiltonian", ham_file, "--observable", obs_file,
            "--time", "1.0", "--steps", "20", "--shots", "16", "--seed", seed,
        ]

    def test_shot_table(self, ham_file, obs_file, capsys):
        code, out, _ = run_cli(self._argv(ham_file, obs_file), capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "shot,value"
        assert len(lines) == 17
        for line in lines[1:]:
            value = float(line.split(",")[1])
            assert value in (1.0, -1.0)

    def test_determinism(self, ham_file, obs_file, capsys):
        _, out1, _ = run_cli(self._argv(ham_file, obs_file), capsys)
        _, out2, _ = run_cli(self._argv(ham_file, obs_file), capsys)
        assert out1 == out2

    def test_seed_zero_is_derived(self, ham_file, obs_file, capsys):
        code, _, err = run_cli(self._argv(ham_file, obs_file, seed="0"), capsys)
        assert code == 0
        assert "derived master seed:" in err

    def _three_qubit_argv(self, tmp_path, time, steps, shots):
        ham = tmp_path / "h3.txt"
        ham.write_text(THREE_QUBIT)
        obs = tmp_path / "o3.txt"
        obs.write_text(OBS_ZIZ)
        return [
            "qdrift", "--hamiltonian", str(ham), "--observable", str(obs),
            "--state", "plus^3", "--time", time, "--steps", str(steps),
            "--shots", str(shots), "--seed", "5",
        ]

    def test_pinned_shot_table(self, tmp_path, capsys):
        # pinned under the law path's draw: shot k reads uniform k of node
        # 0's stream, through p(-1) = 0.6114 from the vec-basis superoperator
        code, out, _ = run_cli(self._three_qubit_argv(tmp_path, "0.8", 30, 24), capsys)
        assert code == 0
        values = "-1 1 -1 -1 -1 -1 -1 -1 -1 -1 -1 1 -1 -1 -1 -1 1 1 -1 -1 -1 -1 -1 -1".split()
        assert out == "shot,value\n" + "".join(f"{i},{v}\n" for i, v in enumerate(values))

    @pytest.mark.parametrize("time,steps", [("0.8", 30), ("1.0", 49), ("0.1", 95)])
    def test_shots_are_pipeline_node_zero(self, tmp_path, capsys, monkeypatch,
                                          time, steps):
        # --steps is the step count N (time / steps once ran 50 steps for
        # 1.0 / 49 and 96 for 0.1 / 95), and the shots are sample_shots' node 0
        powered = []
        powers = channel._pauli_powers

        def spy(H, v0, T, counts):
            powered.append(counts)
            return powers(H, v0, T, counts)

        monkeypatch.setattr(channel, "_pauli_powers", spy)
        code, out, _ = run_cli(self._three_qubit_argv(tmp_path, time, steps, 24), capsys)
        assert code == 0
        assert powered == [[steps]]
        values = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        psi0 = np.full(8, 1 / math.sqrt(8), dtype=complex)
        expected = sample_shots(parse_hamiltonian(THREE_QUBIT),
                                parse_hamiltonian(OBS_ZIZ).dense(),
                                psi0, float(time), [steps], 24, seed=5)[0]
        assert values == expected.tolist()

    def _five_qubit_files(self, tmp_path):
        # past the 4-qubit cap; at the default --time, --steps and --shots
        # the cost rule simulates each shot's circuit
        ham = tmp_path / "h5.txt"
        ham.write_text("0.5 XXIII\n0.5 IZZII\n")
        obs = tmp_path / "o5.txt"
        obs.write_text("1.0 ZIIII\n")
        return str(ham), str(obs)

    @pytest.mark.parametrize("steps, shots, message", [
        (10, 2 ** 61, "largest array"),            # 2^64 bytes of outcomes
        (2 ** 63, 1, "largest array"),             # 2^63 bytes of term indices
        (2 ** 62, 1, "lower --shots or --steps"),  # 2^62 bytes, past any address space
    ])
    def test_oversized_request_exits_3(self, tmp_path, capsys, steps, shots, message):
        # at --time 1e18 the cost rule sends a long run to the trajectories,
        # whose index row, not only the outcomes, must fit
        argv = self._argv(*self._five_qubit_files(tmp_path))
        argv[argv.index("--time") + 1] = "1e18"
        argv[argv.index("--steps") + 1] = str(steps)
        argv[argv.index("--shots") + 1] = str(shots)
        code, _, err = run_cli(argv, capsys)
        assert code == 3
        assert message in err

    def test_long_run_on_the_law_path_exits_0(self, tmp_path, capsys):
        # 2^62 steps at --time 1 are one or two series pieces of the exact
        # law, with no index row to allocate
        argv = self._argv(*self._five_qubit_files(tmp_path))
        argv[argv.index("--steps") + 1] = str(2 ** 62)
        argv[argv.index("--shots") + 1] = "1"
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out in ("shot,value\n0,1\n", "shot,value\n0,-1\n")

    def test_unmeasurable_states_exit_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(channel, "evolve_indexed_batch",
                            lambda psis, gates, indices: np.full(psis.shape, np.nan + 0j))
        code, out, err = run_cli(self._argv(*self._five_qubit_files(tmp_path)), capsys)
        assert code == 3
        assert out == ""
        assert "not finite and positive" in err

    @pytest.mark.parametrize("scale, law", [
        ([2.0, 2.0, 2.0, 2.0], r"least entry 0\.\d+ and sum 1\.99"),
        ([1.0, 3.0, 1.0, 1.0], r"least entry -0\.\d+ and sum (1\.0|0\.99)"),
        ([1.0, np.nan, 1.0, 1.0], "least entry nan and sum nan"),
    ], ids=["sum", "negative", "nan"])
    def test_bad_outcome_law_exits_3(self, ham_file, obs_file, capsys, monkeypatch, scale, law):
        # the law of Z on one qubit from rho_N, with rho_N doubled, its Z
        # coefficient tripled (<Z> = 0.56, so p(-1) < 0) or its Z coefficient NaN
        powers = channel._pauli_powers
        monkeypatch.setattr(channel, "_pauli_powers",
                            lambda H, v0, T, counts: powers(H, v0, T, counts) * scale)
        code, out, err = run_cli(self._argv(ham_file, obs_file), capsys)
        assert code == 3
        assert out == ""
        assert re.search(f"outcome law at N = 20 has {law}\\d*: not a probability vector", err)

    def test_default_state_is_all_zeros(self, ham_file, obs_file, tmp_path, capsys):
        json_path = tmp_path / "q.json"
        argv = self._argv(ham_file, obs_file) + ["--json", str(json_path)]
        run_cli(argv, capsys)
        payload = json.loads(json_path.read_text())
        assert payload["inputs"]["state"] == "0"


class TestScan:
    def test_first_order_slope(self, ham_file, obs_file, tmp_path, capsys):
        json_path = tmp_path / "scan.json"
        code, out, _ = run_cli(
            [
                "scan", "--hamiltonian", ham_file, "--observable", obs_file,
                "--time", "1.0", "--n-list", "8,16,32,64,128",
                "--json", str(json_path),
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "N,s,value,exact,abs_error"
        errors = [float(l.split(",")[4]) for l in lines[1:]]
        assert errors == sorted(errors, reverse=True)
        payload = json.loads(json_path.read_text())
        assert payload["outputs"]["slope"] == pytest.approx(1.0, abs=0.1)
        assert payload["outputs"]["exact"] == pytest.approx(np.cos(1 / np.sqrt(2)) ** 2)

    def test_unsorted_repeated_n_list_keeps_its_order(self, ham_file, obs_file, capsys):
        code, out, _ = run_cli(
            [
                "scan", "--hamiltonian", ham_file, "--observable", obs_file,
                "--time", "1.0", "--n-list", "64,8,64,16",
            ],
            capsys,
        )
        assert code == 0
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert [int(r[0]) for r in rows] == [64, 8, 64, 16]
        H = parse_hamiltonian(ONE_QUBIT)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        A = np.diag([1.0, -1.0])
        for r in rows:
            assert float(r[2]) == pytest.approx(
                channel.expectation_exact(H, A, rho0, 1.0, int(r[0])), abs=1e-14)
        assert rows[0] == rows[2]

    def test_repeated_n_list_fits_no_slope(self, ham_file, obs_file, tmp_path, capsys):
        # four copies of one N have no log-log slope: the summary leaves it
        # out, and no rank warning is raised
        json_path = tmp_path / "scan.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                [
                    "scan", "--hamiltonian", ham_file, "--observable", obs_file,
                    "--time", "1.0", "--n-list", "64,64,64,64", "--json", str(json_path),
                ],
                capsys,
            )
        assert code == 0 and err == ""
        assert len(out.strip().split("\n")) == 5
        assert set(json.loads(json_path.read_text())["outputs"]) == {"exact"}

    def test_bad_n_list(self, ham_file, obs_file, capsys):
        code, _, err = run_cli(
            [
                "scan", "--hamiltonian", ham_file, "--observable", obs_file,
                "--time", "1.0", "--n-list", "8,sixteen",
            ],
            capsys,
        )
        assert code == 2
        assert "error:" in err


class TestGenerator:
    def test_deviation_slope(self, ham_file, tmp_path, capsys):
        json_path = tmp_path / "gen.json"
        code, out, _ = run_cli(
            [
                "generator", "--hamiltonian", ham_file, "--time", "1.0",
                "--s-list", "0.0625,0.03125,0.015625,0.0078125",
                "--json", str(json_path),
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("s,t,min_eig_modulus,log_exists,deviation\n")
        payload = json.loads(json_path.read_text())
        assert payload["outputs"]["slope"] == pytest.approx(1.0, abs=0.05)

    def test_repeated_s_list_fits_no_slope(self, ham_file, tmp_path, capsys):
        json_path = tmp_path / "gen.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(
                [
                    "generator", "--hamiltonian", ham_file, "--time", "1.0",
                    "--s-list", "0.1,0.1,0.1,0.1", "--json", str(json_path),
                ],
                capsys,
            )
        assert code == 0 and err == ""
        assert len(out.strip().split("\n")) == 5
        assert json.loads(json_path.read_text())["outputs"] == {}

    def test_missing_log_exits_numerical(self, tmp_path, capsys):
        dep = tmp_path / "dep.txt"
        dep.write_text(DEPOLARIZING)
        # s * T * lambda = pi/2 kills the superoperator spectrum
        code, out, err = run_cli(
            [
                "generator", "--hamiltonian", str(dep),
                "--time", f"{math.pi / 2}", "--s-list", "1.0",
            ],
            capsys,
        )
        assert code == 3
        assert "numerical failure" in err
        row = out.strip().split("\n")[1].split(",")
        assert row[3] == "false"
        assert row[4] == "nan"
        assert float(row[2]) <= 1e-10

    def _spy_generator(self, text, s_list, tmp_path, monkeypatch, capsys):
        """Runs ``qflo generator`` on ``text``; returns the number of channel
        builds and the (shape, dtype kind) of every ``eig`` call, each on a
        stack of sector blocks, and fails on any ``eigvals`` call."""
        path = tmp_path / "ham.txt"
        path.write_text(text)
        builds, eigs = [], []
        build, eig = generator.channel_delta, np.linalg.eig

        def counting_build(*args):
            builds.append(args)
            return build(*args)

        def recording_eig(a):
            eigs.append((a.shape, a.dtype.kind))
            return eig(a)

        def no_eigvals(*args):
            raise AssertionError("eigvals called")

        monkeypatch.setattr(generator, "channel_delta", counting_build)
        monkeypatch.setattr(np.linalg, "eig", recording_eig)
        monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
        code, out, _ = run_cli(
            ["generator", "--hamiltonian", str(path), "--time", "1.0", "--s-list", s_list],
            capsys,
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 1 + len(s_list.split(","))
        return len(builds), eigs

    def test_one_build_and_three_sector_eigs_per_step(self, tmp_path, monkeypatch, capsys):
        # the two-qubit terms span 8 of the 16 Paulis, and XX = XI.IX
        # commutes with every term: each coset of 8 splits in two sectors of
        # 4, and the complex pair of one coset takes a single eig.  The two
        # real sectors share one stacked eig
        builds, eigs = self._spy_generator(
            TWO_QUBIT, "0.125,0.0625,0.03125", tmp_path, monkeypatch, capsys)
        assert builds == 3
        assert eigs == 3 * [((2, 4, 4), "f"), ((1, 4, 4), "c")]

    def test_chain_probes_twelve_symmetry_sectors(self, tmp_path, monkeypatch, capsys):
        # the 4-qubit Heisenberg chain's two cosets of 128 split by XXXX into
        # two real sectors and one complex-conjugate pair, all 64 wide; the
        # reflection i <-> 3 - i splits each of those in two, and the
        # rotation X -> X, Y -> Z, Z -> -Y each of those six in two again:
        # 24, 16, 16, 8 and 16 four times real, and four paired 16s.  Each
        # probe takes one eig per block shape and dtype
        builds, eigs = self._spy_generator(
            CHAIN_4, "0.125,0.03125,0.0078125,0.001953125", tmp_path, monkeypatch, capsys)
        assert builds == 4
        assert eigs == 4 * [((1, 24, 24), "f"), ((6, 16, 16), "f"), ((1, 8, 8), "f"),
                            ((4, 16, 16), "c")]

    def test_chain_probes_take_svds_only_for_spectral_norms(self, tmp_path, monkeypatch, capsys):
        # the conditioning guard reads its Frobenius bound (24 to 34 here)
        # from the inverses the logarithm keeps, so each probe's only SVDs
        # are the four stacked ones of its deviation's spectral norms, one
        # per block shape and dtype
        svds, svd = [], np.linalg.svd
        norm_code = linalg.spectral_norm.__code__

        def recording_svd(*args, **kwargs):
            frame, in_norm = sys._getframe(1), False
            while frame is not None and not in_norm:
                in_norm, frame = frame.f_code is norm_code, frame.f_back
            svds.append(in_norm)
            return svd(*args, **kwargs)

        # np.linalg.norm reaches svd through its own module's globals
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setitem(inspect.unwrap(np.linalg.norm).__globals__, "svd", recording_svd)
        self._spy_generator(
            CHAIN_4, "0.125,0.03125,0.0078125,0.001953125", tmp_path, monkeypatch, capsys)
        assert svds == 16 * [True]

    @staticmethod
    def _count_structure_builds(monkeypatch):
        """Counts calls of ``pauli_sectors`` and ``pauli_adjoint`` made from
        the generator module."""
        calls = {"pauli_sectors": 0, "pauli_adjoint": 0}

        def counting(name):
            build = getattr(generator, name)

            def count(H):
                calls[name] += 1
                return build(H)
            return count

        for name in calls:
            monkeypatch.setattr(generator, name, counting(name))
        return calls

    def test_one_sector_build_per_hamiltonian(self, tmp_path, monkeypatch, capsys):
        # the sectors and ad_H do not depend on s: four probes share one build
        calls = self._count_structure_builds(monkeypatch)
        path = tmp_path / "chain4.txt"
        path.write_text(CHAIN_4)
        code, out, _ = run_cli(
            ["generator", "--hamiltonian", str(path), "--time", "1.0",
             "--s-list", "0.125,0.03125,0.0078125,0.001953125"],
            capsys,
        )
        assert code == 0 and len(out.strip().split("\n")) == 5
        assert calls == {"pauli_sectors": 1, "pauli_adjoint": 1}

    def test_ek_bound_probe_builds_sectors_once(self, monkeypatch):
        calls = self._count_structure_builds(monkeypatch)
        generator.ek_bound_probe(parse_hamiltonian(TWO_QUBIT), 1.0, 4)
        # the noise floor's |ad_H| is read from the sector blocks, too
        assert calls == {"pauli_sectors": 1, "pauli_adjoint": 1}

    def test_alternating_hamiltonians_match_single_calls(self, tmp_path, monkeypatch, capsys):
        # two Hamiltonians, each loaded once and probed in turn, give the
        # rows of one fresh call per s, and build their sectors once each
        paths = []
        for name, text in (("two_qubit", TWO_QUBIT), ("chain4", CHAIN_4)):
            paths.append(tmp_path / f"{name}.txt")
            paths[-1].write_text(text)
        s_list = ["0.125", "0.03125", "0.0078125"]

        def row(path, s):
            code, out, _ = run_cli(
                ["generator", "--hamiltonian", str(path), "--time", "1.0", "--s-list", s],
                capsys,
            )
            assert code == 0
            return out.strip().split("\n")[1]

        fresh = [[row(path, s) for s in s_list] for path in paths]
        loaded, load = {}, cli.load_hamiltonian

        def load_once(path):
            if path not in loaded:
                loaded[path] = load(path)
            return loaded[path]

        monkeypatch.setattr(cli, "load_hamiltonian", load_once)
        calls = self._count_structure_builds(monkeypatch)
        alternating = [[], []]
        for s in s_list:
            for rows, path in zip(alternating, paths):
                rows.append(row(path, s))
        assert alternating == fresh
        assert calls == {"pauli_sectors": 2, "pauli_adjoint": 2}

    def test_sector_structure_is_read_only_and_dies_with_h(self):
        H = parse_hamiltonian(CHAIN_4)
        probe = generator.generator_probe(H, 0.125, 1.0)
        structure = H.derived(generator._sector_structure)
        assert H.derived(generator._sector_structure) is structure
        arrays = [a for sector in structure.sectors for a in (sector.pos, sector.phase)]
        arrays += structure.ad_stacks
        assert len(arrays) == 28 and not any(a.flags.writeable for a in arrays)
        with pytest.raises(ValueError, match="read-only"):
            structure.ad_stacks[0][0, 0, 0] = 0.0
        assert all(block.flags.writeable for block in probe.blocks)
        alive = weakref.ref(H)
        kept = weakref.ref(structure.ad_stacks[0])
        del H, structure, arrays
        gc.collect()
        assert alive() is None and kept() is None

    def test_one_term_action_per_generator_call(self, tmp_path, monkeypatch, capsys):
        # ad_H and the Delta of each of the four probes share one build
        calls = {"_pauli_action": 0}
        build = channel._pauli_action

        def count(H):
            calls["_pauli_action"] += 1
            return build(H)

        monkeypatch.setattr(channel, "_pauli_action", count)
        path = tmp_path / "chain4.txt"
        path.write_text(CHAIN_4)
        code, out, _ = run_cli(
            ["generator", "--hamiltonian", str(path), "--time", "1.0",
             "--s-list", "0.125,0.03125,0.0078125,0.001953125"],
            capsys,
        )
        assert code == 0 and len(out.strip().split("\n")) == 5
        assert calls == {"_pauli_action": 1}

    @pytest.mark.parametrize("text, time", [(TWO_QUBIT, "2.0"), (DEPOLARIZING, repr(math.pi / 2))])
    def test_modulus_matches_existence_check(self, text, time, tmp_path, capsys):
        # the depolarizing row at s = 1 has no logarithm
        path = tmp_path / "ham.txt"
        path.write_text(text)
        H = parse_hamiltonian(text)
        _, out, _ = run_cli(
            ["generator", "--hamiltonian", str(path), "--time", time, "--s-list", "1.0,0.25,0.1"],
            capsys,
        )
        for line in out.strip().split("\n")[1:]:
            _, t, modulus = (float(v) for v in line.split(",")[:3])
            assert modulus == generator.log_existence_check(H, t)["min_eig_modulus"]

    # (min_eig_modulus, deviation) of the README's two-qubit generator
    # experiment, computed from the complex vec-basis superoperator.
    PINNED_VEC_BASIS = [
        (0.99442684786603519, 0.09302297441018198),
        (0.99860536120941867, 0.046455086475810682),
        (0.99965125583736381, 0.023220511000011566),
        (0.99991280867961274, 0.011609377026396641),
        (0.99997820183990893, 0.0058045787215062266),
    ]

    def test_pinned_two_qubit_table(self, tmp_path, capsys):
        # The README's two-qubit generator experiment, in the Pauli basis,
        # sector by sector.
        path = tmp_path / "two_qubit.txt"
        path.write_text(TWO_QUBIT)
        code, out, _ = run_cli(
            ["generator", "--hamiltonian", str(path), "--time", "1.0",
             "--s-list", "0.0625,0.03125,0.015625,0.0078125,0.00390625"],
            capsys,
        )
        assert code == 0
        assert out == (
            "s,t,min_eig_modulus,log_exists,deviation\n"
            "0.0625,0.0625,0.99442684786603486,true,0.093022974410185297\n"
            "0.03125,0.03125,0.9986053612094189,true,0.046455086475804361\n"
            "0.015625,0.015625,0.9996512558373627,true,0.02322051100007223\n"
            "0.0078125,0.0078125,0.99991280867961174,true,0.011609377026532886\n"
            "0.00390625,0.00390625,0.99997820183990949,true,0.0058045787214473562\n"
        )
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        for row, (modulus, deviation) in zip(rows, self.PINNED_VEC_BASIS):
            assert float(row[2]) == pytest.approx(modulus, rel=1e-9)
            assert float(row[4]) == pytest.approx(deviation, rel=1e-9)

    def test_pinned_chain_table(self, tmp_path, capsys):
        # The 4-qubit Heisenberg chain: the only pinned run through sectors
        # split by a qubit involution and by a single-qubit Clifford,
        # complex-conjugate pairs among them.  Against 40-digit mpmath
        # references from the same Delta, solved sector by sector with the
        # principal logarithm of each eigenvalue, the deviations' relative
        # errors are 7.4e-14 at s = 0.125, where the smallest eigenvalue
        # modulus is 0.016, and 2.8e-16, 7.6e-16 and 3.2e-15 at the others,
        # and the moduli are within 4.7e-16.
        path = tmp_path / "chain4.txt"
        path.write_text(CHAIN_4)
        code, out, _ = run_cli(
            ["generator", "--hamiltonian", str(path), "--time", "1.0",
             "--s-list", "0.125,0.03125,0.0078125,0.001953125"],
            capsys,
        )
        assert code == 0
        assert out == (
            "s,t,min_eig_modulus,log_exists,deviation\n"
            "0.125,0.125,0.016428676096594343,true,105.81095752720771\n"
            "0.03125,0.03125,0.859322374408659,true,5.4370636631958345\n"
            "0.0078125,0.0078125,0.9908677062906176,true,1.3035434831304471\n"
            "0.001953125,0.001953125,0.99942788524874027,true,0.32507742658757111\n"
        )


class TestParser:
    def test_two_in_process_calls_write_identical_outputs(self, tmp_path, capsys):
        # one parser serves every main call in a process: a call, a usage
        # error and a call of another subcommand leave nothing in it that
        # changes the next call's outputs
        path = tmp_path / "chain4.txt"
        path.write_text(CHAIN_4)
        assert cli.build_parser() is cli.build_parser()

        def generator_run(name):
            argv = ["generator", "--hamiltonian", str(path), "--time", "1.0",
                    "--s-list", "0.125,0.03125,0.0078125,0.001953125",
                    "--out", str(tmp_path / f"{name}.csv"), "--json", str(tmp_path / f"{name}.json")]
            assert run_cli(argv, capsys)[0] == 0
            return [(tmp_path / f"{name}.{ext}").read_bytes() for ext in ("csv", "json")]

        first = generator_run("first")
        with pytest.raises(SystemExit):
            main(["generator", "--hamiltonian", str(path), "--s-list", "0.1", "--json", "x.json"])
        assert run_cli(["nodes", "--m", "3", "--json", str(tmp_path / "nodes.json")], capsys)[0] == 0
        assert generator_run("second") == first


class TestQflo:
    def _argv(self, ham_file, obs_file, **kw):
        args = {
            "--time": "0.4", "--epsilon": "0.3", "--delta": "0.3", "--seed": "11",
        }
        args.update(kw)
        argv = ["qflo", "--hamiltonian", ham_file, "--observable", obs_file]
        for flag, value in args.items():
            argv += [flag, value]
        return argv

    def test_noiseless_estimate(self, ham_file, obs_file, tmp_path, capsys):
        json_path = tmp_path / "qflo.json"
        argv = self._argv(ham_file, obs_file) + ["--json", str(json_path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 0
        assert out.startswith("node,step_count,shots,mean,standard_error,weight\n")
        assert "estimate:" in err
        payload = json.loads(json_path.read_text())
        exact = np.cos(0.4 / np.sqrt(2)) ** 2
        assert payload["outputs"]["estimate"] == pytest.approx(exact, abs=0.3)
        assert payload["outputs"]["bound_convergent"] is True
        assert payload["outputs"]["order"] == 2

    def test_shot_sampled_determinism(self, ham_file, obs_file, capsys):
        argv = self._argv(ham_file, obs_file, **{"--mode": "shot_sampled"})
        _, out1, _ = run_cli(argv, capsys)
        _, out2, _ = run_cli(argv, capsys)
        assert out1 == out2

    def test_shot_plan_past_the_largest_array_exits_3(self, ham_file, obs_file, capsys):
        # eps = 1e-9 plans about 1e20 shots per node: refused before sampling
        argv = self._argv(ham_file, obs_file, **{"--mode": "shot_sampled", "--epsilon": "1e-9"})
        code, _, err = run_cli(argv, capsys)
        assert code == 3
        assert "largest array" in err and "--epsilon" in err

    def _overflow(self, time, tmp_path, capsys):
        ham = tmp_path / "two_qubit.txt"
        ham.write_text(TWO_QUBIT)
        obs = tmp_path / "zi.txt"
        obs.write_text("1.0 ZI\n")
        argv = ["qflo", "--hamiltonian", str(ham), "--observable", str(obs),
                "--time", time, "--epsilon", "0.05", "--delta", "0.1", "--seed", "1",
                "--mode", "noiseless"]
        code, _, err = run_cli(argv, capsys)
        assert code == 3
        assert "--time" in err and "--epsilon" in err
        return err

    def test_int64_overflow_names_step_count_and_flags(self, tmp_path, capsys):
        err = self._overflow("1e12", tmp_path, capsys)
        assert "step count 1.790e+28 does not fit in int64" in err

    def test_float_overflow_names_step_count_and_flags(self, tmp_path, capsys):
        # (8 lam T)^2 leaves the float range before step_counts is reached
        err = self._overflow("1e200", tmp_path, capsys)
        assert "step count inf does not fit in int64" in err

    @pytest.mark.parametrize("text, time", [(TWO_QUBIT, "1e-300"),
                                            ("1e-300 ZZ\n1e-300 XI\n", "1.0")])
    def test_vanishing_lam_t_takes_one_step_at_the_last_node(self, text, time, tmp_path,
                                                              capsys):
        # 4 (8 lam T)^2 underflows to 0 there: N_m is floored at 1 step
        ham = tmp_path / "ham.txt"
        ham.write_text(text)
        obs = tmp_path / "zi.txt"
        obs.write_text("1.0 ZI\n")
        json_path = tmp_path / "qflo.json"
        argv = ["qflo", "--hamiltonian", str(ham), "--observable", str(obs), "--time", time,
                "--epsilon", "0.05", "--delta", "0.1", "--seed", "1", "--mode", "noiseless",
                "--json", str(json_path)]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        outputs = json.loads(json_path.read_text())["outputs"]
        assert outputs["bound_convergent"] is True
        assert outputs["per_node"][-1]["step_count"] == 1

    def test_bound_underflow_keeps_its_log10(self, tmp_path, capsys):
        # at eps = 1e-300 (order 691) q^m underflows: the bound reads 0.0,
        # its log10 about -1337
        ham = tmp_path / "two_qubit.txt"
        ham.write_text(TWO_QUBIT)
        obs = tmp_path / "zi.txt"
        obs.write_text("1.0 ZI\n")
        json_path = tmp_path / "qflo.json"
        argv = ["qflo", "--hamiltonian", str(ham), "--observable", str(obs), "--time", "1.0",
                "--epsilon", "1e-300", "--delta", "0.1", "--seed", "1", "--mode", "noiseless",
                "--json", str(json_path), "--out", str(tmp_path / "nodes.csv")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        outputs = json.loads(json_path.read_text())["outputs"]
        assert outputs["theoretical_bound"] == 0.0 and outputs["bound_convergent"] is True
        assert -1400 < outputs["theoretical_bound_log10"] < -1300

    def test_long_five_qubit_shot_run_meets_epsilon(self, tmp_path, capsys):
        # lam T = 30 on the 5-qubit chain of the shot_heis5 workload: 15885
        # shots at each of 3 nodes of up to 16110648 steps, about 3.1e11
        # simulated gates; the cost rule draws them from their law
        ham = tmp_path / "chain5.txt"
        ham.write_text(CHAIN_5)
        obs = tmp_path / "z5.txt"
        obs.write_text("1.0 ZIIII\n")
        json_path = tmp_path / "qflo.json"
        argv = ["qflo", "--hamiltonian", str(ham), "--observable", str(obs), "--time", "30",
                "--epsilon", "0.05", "--delta", "0.1", "--seed", "1", "--mode", "shot_sampled",
                "--json", str(json_path), "--out", str(tmp_path / "nodes.csv")]
        code, _, _ = run_cli(argv, capsys)
        assert code == 0
        outputs = json.loads(json_path.read_text())["outputs"]
        assert outputs["shots_per_node"] == 15885
        assert [n["step_count"] for n in outputs["per_node"]] == [16110648, 2338054, 913302]
        H = parse_hamiltonian(CHAIN_5)
        exact = channel.exact_expectation(H, parse_hamiltonian("1.0 ZIIII").dense(),
                                          np.eye(H.dim)[0], 30.0)
        assert abs(outputs["estimate"] - exact) <= 0.05

    def test_bad_epsilon_is_usage_error(self, ham_file, obs_file, capsys):
        argv = self._argv(ham_file, obs_file, **{"--epsilon": "2.0"})
        code, _, err = run_cli(argv, capsys)
        assert code == 2
        assert "error:" in err


class TestOrderfit:
    def test_order_two_slope(self, ham_file, obs_file, tmp_path, capsys):
        json_path = tmp_path / "fit.json"
        code, out, _ = run_cli(
            [
                "orderfit", "--hamiltonian", ham_file, "--observable", obs_file,
                "--time", "1.0", "--m-list", "2",
                "--scale-list", "1,0.5,0.25,0.125",
                "--json", str(json_path),
            ],
            capsys,
        )
        assert code == 0
        assert out.startswith("m,scale,N_m,s_m,abs_error\n")
        payload = json.loads(json_path.read_text())
        assert payload["outputs"]["slopes"]["2"]["slope"] == pytest.approx(2.0, abs=0.3)

    def test_repeated_scale_list_fits_no_slope(self, ham_file, obs_file, tmp_path, capsys):
        json_path = tmp_path / "fit.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(
                [
                    "orderfit", "--hamiltonian", ham_file, "--observable", obs_file,
                    "--time", "1.0", "--m-list", "2", "--scale-list", "1,1,1,1",
                    "--json", str(json_path),
                ],
                capsys,
            )
        assert code == 0 and err == ""
        assert json.loads(json_path.read_text())["outputs"]["slopes"] == {}


class TestErrorHandling:
    def test_missing_hamiltonian_file(self, obs_file, capsys):
        code, _, err = run_cli(
            ["generator", "--hamiltonian", "/nonexistent.txt",
             "--time", "1.0", "--s-list", "0.1"],
            capsys,
        )
        assert code == 2
        assert "not found" in err

    def test_malformed_hamiltonian(self, tmp_path, obs_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.5 XQ\n")
        code, _, err = run_cli(
            ["generator", "--hamiltonian", str(bad), "--time", "1.0", "--s-list", "0.1"],
            capsys,
        )
        assert code == 2

    def test_state_length_mismatch(self, ham_file, obs_file, capsys):
        code, _, err = run_cli(
            [
                "qdrift", "--hamiltonian", ham_file, "--observable", obs_file,
                "--state", "00", "--time", "1.0", "--steps", "5",
                "--shots", "1", "--seed", "1",
            ],
            capsys,
        )
        assert code == 2
        assert "--state" in err

    def test_zero_order_is_usage_error(self, capsys):
        code, _, err = run_cli(["nodes", "--m", "0"], capsys)
        assert code == 2
        assert "error:" in err

    def test_nonpositive_step_count_is_usage_error(self, ham_file, obs_file, capsys):
        code, _, err = run_cli(
            [
                "scan", "--hamiltonian", ham_file, "--observable", obs_file,
                "--time", "1.0", "--n-list", "0,2",
            ],
            capsys,
        )
        assert code == 2
        assert "error:" in err

    def test_negative_step_size_is_usage_error(self, ham_file, capsys):
        code, _, err = run_cli(
            ["generator", "--hamiltonian", ham_file, "--time", "1.0", "--s-list", "-1"],
            capsys,
        )
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("argv, named", [
        (["generator", "--time", "1", "--s-list", "1e308,1e-3"], "t = 1e+308"),
        (["generator", "--time", "1e-300", "--s-list", "1e-300,1e-3"], "s = 1e-300, T = 1e-300"),
        (["scan", "--observable", "zi.txt", "--time", "1e308", "--n-list", "1,2,3,4"],
         "t = 1e+308"),
    ])
    def test_step_time_out_of_range_is_numerical_failure(self, argv, named, tmp_path,
                                                         monkeypatch, capsys):
        # 2 lam t overflows, or s T underflows to 0: exit 3 naming the step
        # time, where the channel's sines were NaN or its log divided by 0
        (tmp_path / "two_qubit.txt").write_text(TWO_QUBIT)
        (tmp_path / "zi.txt").write_text("1.0 ZI\n")
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv[:1] + ["--hamiltonian", "two_qubit.txt"] + argv[1:], capsys)
        assert code == 3
        assert "numerical failure" in err and named in err
        assert "Traceback" not in err and "nan" not in out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("s", ["1e-310", "1e-320"])
    def test_subnormal_step_time_is_numerical_failure(self, s, tmp_path, monkeypatch, capsys):
        # a step time s T below the normal range warned of an overflow in
        # the division by t, then failed an SVD with a traceback
        (tmp_path / "two_qubit.txt").write_text(TWO_QUBIT)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(
            ["generator", "--hamiltonian", "two_qubit.txt", "--time", "1", "--s-list", s], capsys)
        assert code == 3
        assert "numerical failure" in err and f"s = {float(s)!r}, T = 1.0" in err
        assert "Traceback" not in err and out == ""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("files, argv, named", [
        # past the 4-qubit powering cap: 2 lam T/N = 2e308 at N = 2
        ({"big5.txt": "1.5 ZIIII\n0.5 XIIII\n", "z5.txt": "1.0 ZIIII\n"},
         ["scan", "--hamiltonian", "big5.txt", "--observable", "z5.txt",
          "--time", "1e308", "--n-list", "1,2,3,4"], "t = 5e+307"),
        # the shot gates' step angle 2 lam T/N = 4e308
        ({"big2.txt": "1.5 ZI\n0.5 XI\n", "z2.txt": "1.0 ZI\n"},
         ["qdrift", "--hamiltonian", "big2.txt", "--observable", "z2.txt",
          "--time", "1e308", "--steps", "1", "--shots", "4", "--seed", "3"], "t = 1e+308"),
        # every step angle is finite, but exp(-i T H) is not
        ({"big.txt": "2.0 Z\n0.1 X\n", "z.txt": "1.0 Z\n"},
         ["scan", "--hamiltonian", "big.txt", "--observable", "z.txt",
          "--time", "1e308", "--n-list", "4,8,16,32"], "theta = 1e+308"),
    ])
    def test_overflowing_phase_is_numerical_failure(self, files, argv, named, tmp_path,
                                                    monkeypatch, capsys):
        # each exited 0 with NaN values or NaN-drawn outcomes
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert "numerical failure" in err and named in err
        assert "Traceback" not in err and "nan" not in out

    def _qdrift(self, ham_file, obs_file, **kw):
        args = {"--time": "1.0", "--steps": "5", "--shots": "4", "--seed": "1"}
        args.update(kw)
        argv = ["qdrift", "--hamiltonian", ham_file, "--observable", obs_file]
        for flag, value in args.items():
            argv += [flag, value]
        return argv

    def test_nan_time_is_usage_error(self, ham_file, obs_file, capsys):
        code, out, err = run_cli(self._qdrift(ham_file, obs_file, **{"--time": "nan"}), capsys)
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_bad_plus_power_is_usage_error(self, ham_file, obs_file, capsys):
        code, _, err = run_cli(
            self._qdrift(ham_file, obs_file, **{"--state": "plus^x"}), capsys
        )
        assert code == 2
        assert "error:" in err

    def test_zero_shots_is_usage_error(self, ham_file, obs_file, capsys):
        code, out, err = run_cli(self._qdrift(ham_file, obs_file, **{"--shots": "0"}), capsys)
        assert code == 2
        assert "error:" in err
        assert out == ""

    def test_orderfit_bad_inputs_are_usage_errors(self, ham_file, obs_file, capsys):
        base = ["orderfit", "--hamiltonian", ham_file, "--observable", obs_file,
                "--m-list", "2", "--scale-list", "1,0.5,0.25,0.125"]
        for extra in (["--time", "1.0", "--n-base", "0"], ["--time", "nan"]):
            code, _, err = run_cli(base + extra, capsys)
            assert code == 2
            assert "error:" in err

    def test_qubit_cap_is_usage_error(self, tmp_path, capsys):
        big = tmp_path / "big.txt"
        big.write_text("1.0 " + "Z" * 11 + "\n")
        code, _, err = run_cli(
            ["qdrift", "--hamiltonian", str(big), "--observable", str(big),
             "--time", "1.0", "--steps", "2", "--shots", "1", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert "exceeds the cap" in err

    def test_unwritable_output_is_usage_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir"
        for flag in ("--out", "--json"):
            code, _, err = run_cli(
                ["nodes", "--m", "3", flag, str(missing_dir / "table")], capsys
            )
            assert code == 2
            assert f"error: {flag}: cannot write" in err

    def test_observable_qubit_mismatch_is_usage_error(self, ham_file, tmp_path, capsys):
        obs = tmp_path / "zi.txt"
        obs.write_text("1.0 ZI\n")
        code, _, err = run_cli(
            ["scan", "--hamiltonian", ham_file, "--observable", str(obs),
             "--time", "1.0", "--n-list", "1,2"],
            capsys,
        )
        assert code == 2
        assert "has 2 qubits, Hamiltonian has 1" in err

    def test_negative_seed_is_usage_error(self, ham_file, obs_file, capsys):
        code, out, err = run_cli(self._qdrift(ham_file, obs_file, **{"--seed": "-5"}), capsys)
        assert code == 2
        assert "--seed must be >= 0" in err
        assert out == ""

    @pytest.mark.parametrize("text, named", [
        ("inf X\n1.0 Z\n", "not finite"),
        ("1e308 X\n1e308 Z\n", "overflows"),
    ], ids=["inf", "huge"])
    @pytest.mark.parametrize("argv", [
        ["scan", "--observable", "z.txt", "--time", "1.0", "--n-list", "1,2"],
        ["qdrift", "--observable", "z.txt", "--time", "1.0", "--steps", "2",
         "--shots", "3", "--seed", "1"],
        ["qflo", "--observable", "z.txt", "--time", "1.0", "--epsilon", "0.5",
         "--delta", "0.1", "--seed", "1"],
        ["generator", "--time", "1.0", "--s-list", "0.1"],
    ], ids=lambda argv: argv[0])
    def test_non_finite_coefficients_are_usage_errors(self, text, named, argv, tmp_path,
                                                      monkeypatch, capsys):
        # scan exited 1 with a traceback, the others 3 through later guards
        (tmp_path / "h.txt").write_text(text)
        (tmp_path / "z.txt").write_text(OBS_Z)
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(argv[:1] + ["--hamiltonian", "h.txt"] + argv[1:], capsys)
        assert code == 2
        assert "error: Hamiltonian h.txt" in err and named in err
        assert out == ""

    def test_missing_subcommand_is_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_nodes_past_int64_is_numerical_failure(self, capsys):
        # ratios y_j = k_j^2 past int64 are a numerical failure, like other plans past int64
        code, out, err = run_cli(["nodes", "--m", "37000"], capsys)
        assert code == 3
        assert err.startswith("numerical failure:") and "order 37000" in err
        assert out == ""


PROBLEM = {"hamiltonian": "ham.txt", "observable": "obs.txt", "time": 1.0}


@pytest.mark.parametrize("argv, inputs", [
    (["nodes", "--m", "3", "--pseudocode-schedule"],
     {"m": 3, "pseudocode_schedule": True}),
    (["nodes", "--m", "2"], {"m": 2, "pseudocode_schedule": False}),
    (["qdrift", "--steps", "5", "--shots", "4", "--seed", "0"],
     {**PROBLEM, "state": "0", "steps": 5, "shots": 4, "seed": None}),
    (["scan", "--state", "1", "--n-list", "8, 16,,4"],
     {**PROBLEM, "state": "1", "n_list": [8, 16, 4]}),
    (["generator", "--s-list", "0.1,0.05"],
     {"hamiltonian": "ham.txt", "time": 1.0, "s_list": [0.1, 0.05]}),
    (["qflo", "--epsilon", "0.3", "--delta", "0.2", "--seed", "0"],
     {**PROBLEM, "state": "0", "epsilon": 0.3, "delta": 0.2, "seed": None,
      "mode": "noiseless", "order_policy": "log", "schedule": "squared"}),
    (["qflo", "--state", "plus", "--epsilon", "0.5", "--delta", "0.3", "--seed", "5",
      "--mode", "shot_sampled", "--order-policy", "loglog", "--schedule", "pseudocode"],
     {**PROBLEM, "state": "plus", "epsilon": 0.5, "delta": 0.3, "seed": 5,
      "mode": "shot_sampled", "order_policy": "loglog", "schedule": "pseudocode"}),
    (["orderfit", "--m-list", "2,3", "--scale-list", "1,0.5"],
     {**PROBLEM, "state": "0", "m_list": [2, 3], "scale_list": [1.0, 0.5], "n_base": 8}),
], ids=["nodes-pseudocode", "nodes", "qdrift-seed0", "scan", "generator", "qflo-seed0",
        "qflo-shot", "orderfit"])
def test_json_inputs_are_the_parsed_flags(argv, inputs, tmp_path, monkeypatch, capsys):
    # every flag of the subcommand but --out and --json, parsed: lists as
    # numbers, --seed 0 as the seed derived from it, no --state as its label
    (tmp_path / "ham.txt").write_text(ONE_QUBIT)
    (tmp_path / "obs.txt").write_text(OBS_Z)
    monkeypatch.chdir(tmp_path)
    problem = [] if argv[0] == "nodes" else ["--hamiltonian", "ham.txt", "--time", "1.0"]
    if "observable" in inputs:
        problem += ["--observable", "obs.txt"]
    code, _, err = run_cli(argv[:1] + problem + argv[1:] + ["--out", "t.csv", "--json", "s.json"],
                           capsys)
    assert code == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    assert set(payload) == {"command", "inputs", "outputs"}
    assert payload["command"] == argv[0]
    if inputs.get("seed", 0) is None:
        derived = [line for line in err.splitlines() if line.startswith("derived master seed: ")]
        inputs = {**inputs, "seed": int(derived[0].split(": ")[1])}
    assert payload["inputs"] == inputs


# Argument pools for the fuzz of main: well-formed values mixed with
# malformed and out-of-range ones.  Sizes are bounded so that no case plans
# more than about 1e6 trajectory gates; noiseless values at <= 4 qubits are
# computed by superoperator powering, so a large --time stays cheap there.
BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "0", "-0", "x", "", "1e400", "0x10"]
FUZZ_FILES = {
    "one": ONE_QUBIT,
    "two": "0.3 ZZ\n0.3 XI\n0.2 IX\n-0.2 YZ\n",
    "three": THREE_QUBIT,
    "z": OBS_Z,
    "zi": "1.0 ZI\n",
    "ziz": OBS_ZIZ,
    "big": "2.0 Z\n0.1 X\n",
    "inf": "inf X\n1.0 Z\n",
    "huge": "1e308 X\n1e308 Z\n",
    "cap": "1.0 " + "Z" * 11 + "\n",
    "malformed": "0.5 XQ\n",
    "empty": "",
    "complex": "0.5j X\n",
    "zero": "1.0 ZI\n-1.0 ZI\n",
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FUZZ_FILES.items():
        (root / f"{name}.txt").write_text(text)
    return root


@st.composite
def cli_argvs(draw, root):
    """An argv for one subcommand of main.  Each value is well formed nine
    times in ten and otherwise drawn from malformed and out-of-range tokens,
    so that one bad value at a time reaches the code past the others; a flag
    is sometimes left out."""
    def pick(good, bad=BAD_NUMBERS):
        pool = bad if draw(st.integers(0, 9)) == 0 else good
        return draw(st.sampled_from(pool))

    ham, obs = pick([("one", "z"), ("two", "zi"), ("three", "ziz"), ("big", "z")],
                    [(h, o) for h in ("one", "two", "cap", "malformed", "empty",
                                      "complex", "inf", "huge", "missing")
                     for o in ("z", "zi", "ziz", "malformed", "inf", "missing")])
    ham, obs = str(root / f"{ham}.txt"), str(root / f"{obs}.txt")
    seed = pick(["1", "0", "12345678901234567890"], BAD_NUMBERS + ["-5"])
    command = draw(st.sampled_from(
        ["nodes", "qdrift", "scan", "generator", "qflo", "orderfit", "bogus"]))
    flags = {}
    if command == "nodes":
        flags["--m"] = pick(["1", "3", "40", "300"], BAD_NUMBERS + ["-2", "2.5"])
        if draw(st.booleans()):
            flags["--pseudocode-schedule"] = None
    elif command == "qdrift":
        flags.update({
            "--hamiltonian": ham, "--observable": obs,
            "--time": pick(["0.3", "1.0", "1e308"]),
            "--steps": pick(["1", "7", "1000"]), "--shots": pick(["1", "3", "500"]),
            "--seed": seed,
        })
    elif command == "scan":
        flags.update({
            "--hamiltonian": ham, "--observable": obs,
            "--time": pick(["0.3", "1.0", "1e6", "1e308"]),
            "--n-list": pick(["1,2,4,8", "8,16,32,64,128", "1000000000",
                              "10000000000000000000000"],
                             ["3,1e3", "0,2", "-4", ",", "2,,3", "nan", "x"]),
        })
    elif command == "generator":
        flags.update({
            "--hamiltonian": ham, "--time": pick(["0.3", "1.0", "1e-30"]),
            "--s-list": pick(["0.1,0.05,0.025,0.0125", "0.4,1.5707963267948966", "0.1"],
                             ["1e-300", "1e300", "1e308", "-1", "nan", "0.1,0.1", "", "x"]),
        })
    elif command == "qflo":
        mode = pick(["noiseless", "shot_sampled"], ["both", ""])
        shots = mode == "shot_sampled"
        flags.update({
            "--hamiltonian": ham, "--observable": obs,
            "--time": pick(["0.3"] if shots else ["0.3", "1.0", "1e6", "1e12"]),
            "--epsilon": pick(["0.5", "0.9"] if shots else ["0.5", "0.05", "1e-3", "1e-12"],
                              BAD_NUMBERS + ["1", "2"]),
            "--delta": pick(["0.1", "0.9"], BAD_NUMBERS + ["1"]),
            "--seed": seed,
            "--mode": mode,
            "--order-policy": pick(["log", "loglog"], ["cubic"]),
            "--schedule": pick(["squared", "pseudocode"], ["flat"]),
        })
    elif command == "orderfit":
        flags.update({
            "--hamiltonian": ham, "--observable": obs, "--time": pick(["0.3", "1.0"]),
            "--m-list": pick(["2,3", "1", "12"], ["0", "2.5", "-3", "x"]),
            "--scale-list": pick(["1,0.5,0.25,0.125", "1e-12", "1e300"],
                                 ["1e-320", "-1", "x", "nan"]),
            "--n-base": pick(["8", "1000000"]),
        })
    if command in ("qdrift", "scan", "qflo") and draw(st.booleans()):
        flags["--state"] = pick(["plus", "plus^2", "0", "01", "110"], ["plus^x", "2", "^"])
    for flag in ("--out", "--json"):
        if draw(st.booleans()):
            flags[flag] = str(root / pick([f"out{flag}"], [f"no/such/dir/out{flag}"]))
    argv = [command]
    for flag, value in flags.items():
        if draw(st.integers(0, 29)) == 0:
            continue   # a required flag left out
        argv += [flag] if value is None else [flag, value]
    return argv


def test_main_fuzz_exits_cleanly(fuzz_dir):
    big, z = str(fuzz_dir / "big.txt"), str(fuzz_dir / "z.txt")
    two, zero = str(fuzz_dir / "two.txt"), str(fuzz_dir / "zero.txt")
    zi = str(fuzz_dir / "zi.txt")
    qdrift = ["qdrift", "--hamiltonian", two, "--observable", zi, "--time", "1.0", "--seed", "1"]

    # overflowing step angles, whatever the derandomized draw reaches
    @given(argv=cli_argvs(fuzz_dir))
    @example(argv=["scan", "--hamiltonian", big, "--observable", z,
                   "--time", "1e308", "--n-list", "1,2,4,8"])
    @example(argv=["qdrift", "--hamiltonian", big, "--observable", z, "--time", "1e308",
                   "--steps", "1", "--shots", "500", "--seed", "0"])
    # an observable whose terms cancel: a budget of zero shots before the floor
    @example(argv=["qflo", "--hamiltonian", two, "--observable", zero, "--time", "0.3",
                   "--epsilon", "0.5", "--delta", "0.1", "--seed", "1", "--mode", "shot_sampled"])
    # shot arrays past np.intp (OverflowError) and 2^62 bytes of one shot's
    # term indices (MemoryError), past any address space: each exits 3
    @example(argv=qdrift + ["--steps", "10", "--shots", str(2 ** 61)])
    @example(argv=qdrift + ["--steps", "10", "--shots", str(10 ** 20)])
    @example(argv=qdrift + ["--steps", str(2 ** 62), "--shots", "1"])
    @settings(max_examples=500, deadline=None, derandomize=True)
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", RuntimeWarning)
            try:
                code = main(argv)
            except SystemExit as exc:   # argparse's own usage errors
                code = exc.code
        assert code in (0, 2, 3), (argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue()
        # a run that succeeds computed no NaN on the way, as shots drawn
        # from NaN probabilities would
        invalid = [str(w.message) for w in caught if "invalid value" in str(w.message)]
        assert code != 0 or not invalid, (argv, invalid)
        if argv[0] == "scan" and code == 0:
            csv_path = argv[argv.index("--out") + 1] if "--out" in argv else None
            table = open(csv_path).read() if csv_path else out.getvalue()
            assert "nan" not in table, (argv, table)

    check()
