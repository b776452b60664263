"""The benchmark's four workloads.

Each workload builds its inputs and its exact-evolution oracle once
(``setup``), then answers ``op``: the whole estimate a user asks for, made
through qflo's public API in calls of about a second or less, each timed.  An
operation is made of sub-operations, one per ``pipeline.run`` call or probed s
value; ``op`` checks each one and reports the reason for every sub-operation
that failed.

The expected plans were read off the seed commit; a change to them is a change
to what the workload computes, so it counts as a failure here.
"""

from __future__ import annotations

import csv
import json
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np

from qflo import benchmarks, channel, cli, hamiltonian, pipeline

import hostspeed

T = 1.0
DELTA = 0.1


def _plan(results) -> dict:
    """Plan counts of one operation, summed over its pipeline.run calls
    (max_depth is the maximum)."""
    return {
        "pipeline.order": sum(r.order for r in results),
        "pipeline.max_depth": max((r.max_depth for r in results), default=0),
        "pipeline.shots_per_node": sum(r.shots_per_node for r in results),
        "pipeline.total_gate_count": sum(r.total_gate_count for r in results),
    }


@dataclass
class OpResult:
    value: tuple        # must repeat bit for bit in a same-seed rerun
    work: int           # gates, exact channel steps or probed s values
    attempted: int      # sub-operations: pipeline.run calls or probed s values
    failures: dict = field(default_factory=dict)   # sub-operation -> reason
    plan: dict = field(default_factory=lambda: _plan([]))
    calls: list = field(default_factory=list)   # (seconds, probe) of each qflo call


def heisenberg_chain_text(n_qubits: int, J: float = 1.0, h: float = 0.5) -> str:
    """XX+YY+ZZ couplings J on each bond and transverse field h on each site,
    normalised to lambda = 1, in qflo's Hamiltonian text format."""
    terms = []
    for i in range(n_qubits - 1):
        for p in "XYZ":
            letters = ["I"] * n_qubits
            letters[i] = letters[i + 1] = p
            terms.append((J, "".join(letters)))
    for i in range(n_qubits):
        letters = ["I"] * n_qubits
        letters[i] = "X"
        terms.append((h, "".join(letters)))
    lam = sum(c for c, _ in terms)
    return "".join(f"{c / lam!r} {p}\n" for c, p in terms)


def two_qubit():
    H, A, psi0 = benchmarks.two_qubit_benchmark()
    return H, [A], psi0


def heisenberg5():
    """The 5-qubit chain on |00000>, observed through Z on each site."""
    H = hamiltonian.parse_hamiltonian(heisenberg_chain_text(5))
    observables = []
    for site in range(5):
        letters = ["I"] * 5
        letters[site] = "Z"
        observables.append(hamiltonian.parse_hamiltonian("1.0 " + "".join(letters)).dense())
    psi0 = np.zeros(H.dim, dtype=complex)
    psi0[0] = 1.0
    return H, observables, psi0


def _raised(exc) -> str:
    return "raised " + "".join(traceback.format_exception_only(type(exc), exc)).strip()


class Estimate:
    """``pipeline.run`` for each observable at each epsilon, checked against
    the oracle."""

    def __init__(self, build, mode, expected):
        self.build = build           # -> (H, observables, psi0)
        self.mode = mode
        self.expected = expected     # epsilon -> (order, step counts, shots/node)

    def setup(self, tmpdir):
        self.H, observables, self.psi0 = self.build()
        rho0 = np.outer(self.psi0, self.psi0.conj())
        self.cases = [   # (A, exact <A>, |A|, epsilon), one pipeline.run each
            (A, channel.exact_expectation(self.H, A, rho0, T),
             float(np.abs(np.linalg.eigvalsh(A)).max()), epsilon)
            for A in observables for epsilon in self.expected
        ]

    def _check(self, r, exact, norm_A, epsilon) -> str | None:
        order, steps, shots = self.expected[epsilon]
        got = (r.order, [n.step_count for n in r.per_node], r.shots_per_node)
        if got != (order, steps, shots):
            return f"plan {got} != expected {(order, steps, shots)}"
        if not r.bound_convergent:
            return "error bound is non-convergent"
        error = abs(r.estimate - exact)
        if not error <= epsilon * norm_A:
            return f"|estimate - exact| = {error:.3e} > eps |A| = {epsilon * norm_A:.3e}"
        return None

    def op(self, master_seed: int, index: int) -> OpResult:
        results, values, failures, calls = [], [], {}, []
        for i, (A, exact, norm_A, epsilon) in enumerate(self.cases):
            request = pipeline.QfloRequest(
                hamiltonian=self.H, initial_state=self.psi0, observable=A,
                total_time=T, epsilon=epsilon, delta=DELTA,
                master_seed=master_seed, mode=self.mode,
            )
            try:
                r = hostspeed.timed(calls, pipeline.run, request)
            except Exception as exc:
                failures[i] = _raised(exc)
                values.append(None)
                continue
            results.append(r)
            values.append(r.estimate.hex())
            reason = self._check(r, exact, norm_A, epsilon)
            if reason:
                failures[i] = f"call {i}, eps={epsilon}: {reason}"
        return OpResult(
            value=tuple(values),
            work=sum(r.total_gate_count for r in results),
            attempted=len(self.cases),
            failures=failures,
            plan=_plan(results),
            calls=calls,
        )


class GeneratorScan:
    """``qflo generator`` run in-process over log-spaced step sizes, as
    interleaved sub-scans that each span the whole range and fit their own
    slope."""

    N_QUBITS = 4
    S_VALUES = [2.0 ** (-3 - k / 3) for k in range(32)]
    SUB_SCANS = 8   # 4 s values each, the fewest the slope fit accepts

    def setup(self, tmpdir):
        self.tmpdir = tmpdir
        self.ham_path = os.path.join(tmpdir, "chain4.txt")
        with open(self.ham_path, "w", encoding="utf-8") as fh:
            fh.write(heisenberg_chain_text(self.N_QUBITS))

    def op(self, master_seed: int, index: int) -> OpResult:
        values, failures, calls, work = [], {}, [], 0
        for j in range(self.SUB_SCANS):
            ks = range(j, len(self.S_VALUES), self.SUB_SCANS)
            value, probed, reasons = self._scan(
                [self.S_VALUES[k] for k in ks], f"scan{index}-{j}", calls)
            values.append(value)
            work += probed
            failures.update({ks[i]: reason for i, reason in reasons.items()})
        return OpResult(value=tuple(values), work=work, attempted=len(self.S_VALUES),
                        failures=failures, calls=calls)

    def _scan(self, s_values, name, calls):
        """One ``qflo generator`` call, timed into ``calls`` and checked: its
        output, the number of s values it probed, and the failure reason by
        position in ``s_values``."""
        n = len(s_values)
        out = os.path.join(self.tmpdir, name + ".csv")
        summary = os.path.join(self.tmpdir, name + ".json")
        argv = ["generator", "--hamiltonian", self.ham_path, "--time", repr(T),
                "--s-list", ",".join(repr(s) for s in s_values),
                "--out", out, "--json", summary]
        try:
            code = hostspeed.timed(calls, cli.main, argv)
            with open(out, encoding="utf-8") as fh:
                table = fh.read()
            with open(summary, encoding="utf-8") as fh:
                fit = fh.read()
        except Exception as exc:
            return None, 0, {i: _raised(exc) for i in range(n)}
        rows = list(csv.DictReader(table.splitlines()))
        whole = []
        if code != 0:
            whole.append(f"exit code {code}")
        if [float(r["s"]) for r in rows] != s_values:
            whole.append(f"probed s values differ from the {n} requested")
        outputs = json.loads(fit)["outputs"]
        slope, r2 = outputs.get("slope", math.nan), outputs.get("r_squared", math.nan)
        if not abs(slope - 1.0) <= 0.05:
            whole.append(f"slope {slope} outside 1 +- 0.05")
        if not r2 >= 0.999:
            whole.append(f"r^2 {r2} < 0.999")
        reasons = {i: "; ".join(whole) for i in range(n)} if whole else {}
        for i, row in enumerate(rows[:n]):
            if row["log_exists"] != "true":
                reasons[i] = f"s={row['s']}: logarithm does not exist"
        return (table, fit), len(rows), reasons


EPSILON_SWEEP = {   # epsilon -> (order, step counts, shots per node) at the seed commit
    0.1: (3, [14218, 2064, 806], 0),
    0.05: (3, [17905, 2599, 1015], 0),
    0.02: (4, [34606, 4272, 1618, 910], 0),
    0.01: (5, [56021, 6662, 2399, 1349, 816], 0),
    0.005: (6, [64978, 7395, 2726, 1595, 944, 764], 0),
    0.002: (7, [95385, 10787, 3952, 2159, 1465, 904, 747], 0),
    0.001: (7, [105345, 11913, 4365, 2385, 1617, 999, 825], 0),
}

WORKLOADS = {
    "shot_2q": lambda: Estimate(
        two_qubit, "shot_sampled", {0.05: (3, [17905, 2599, 1015], 15885)}),
    "shot_heis5": lambda: Estimate(
        heisenberg5, "shot_sampled", {0.4: (2, [4207, 673], 176)}),
    "noiseless_sweep": lambda: Estimate(two_qubit, "noiseless", EPSILON_SWEEP),
    "generator_scan": GeneratorScan,
}
