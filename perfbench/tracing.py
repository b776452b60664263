"""Spans around qflo's layer boundaries, recorded from outside the library.

``Tracer.installed()`` replaces each traced function with a wrapper in every
qflo module namespace that binds it (``pipeline`` and ``cli`` import their
callees by name, so patching the defining module alone would miss those
calls), and each traced method on its class.  Leaving the block restores the
originals, so an untraced operation runs the library's own code unchanged.

A span is (id, parent id, run id, name, start ns, end ns).  Spans stay in
memory; ``Tracer.spans`` is written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable


def _arg(index, keyword, measure=int):
    """Counter measuring one call argument, passed by position or keyword."""
    def read(args, kwargs, result):
        return measure(kwargs[keyword] if keyword in kwargs else args[index])
    return read


def _one(args, kwargs, result):
    return 1


def _log_missing(args, kwargs, result):
    return 0 if result["exists"] else 1


@dataclass(frozen=True)
class Target:
    module: str                  # qflo submodule that defines the function
    attr: str
    owner: str | None = None     # class holding the method, for methods
    count: Callable | None = None  # (args, kwargs, result) -> work units done
    unit: str = ""               # name of the work unit, e.g. "draws"
    per_unit: str = ""           # busy time per unit, "ns_per_..." or "us_per_..."
    failed_result: Callable | None = None  # (args, kwargs, result) -> 1 if failed

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = [
    Target("hamiltonian", "sample_terms", "HamiltonianDecomposition",
           _arg(2, "count"), "draws", "ns_per_draw"),
    Target("hamiltonian", "term_unitaries", "HamiltonianDecomposition"),
    Target("channel", "substream", None, _one, "shots", "us_per_shot"),
    Target("channel", "evolve_indexed_batch", None,
           _arg(2, "indices", lambda a: a.size), "gates", "ns_per_gate"),
    Target("channel", "sample_batch", "ObservableMeasurer",
           _arg(2, "uniforms", len), "shots", "ns_per_shot"),
    Target("channel", "expectation_exact", None, _arg(4, "N"), "steps", "us_per_step"),
    Target("channel", "exact_expectation"),
    Target("generator", "channel_superoperator"),
    Target("generator", "log_existence_check", failed_result=_log_missing),
    Target("generator", "generator_probe"),
    Target("linalg", "matrix_log_principal"),
    Target("linalg", "spectral_norm"),
    Target("linalg", "adjoint_superoperator"),
    Target("richardson", "build_nodes"),
    Target("richardson", "weights_from_steps"),
    Target("richardson", "extrapolate"),
    Target("pipeline", "run"),
    Target("analysis", "fit_loglog_slope"),
    Target("cli", "main"),
]


@dataclass
class Stat:
    calls: int = 0
    busy_ns: int = 0
    self_ns: int = 0
    work: int = 0
    failed: int = 0


@dataclass
class Tracer:
    run_id: str
    spans: list = field(default_factory=list)
    stats: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)   # [span id, child ns]

    def _wrap(self, fn, target):
        name, counter, failed_result = target.name, target.count, target.failed_result
        stat = self.stats.setdefault(name, Stat())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1][0] if self._stack else -1
            self.spans.append(None)
            self._stack.append([span_id, 0])
            start = time.perf_counter_ns()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = bool(failed_result and failed_result(args, kwargs, result))
                if counter is not None:
                    stat.work += counter(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                _, child_ns = self._stack.pop()
                busy = end - start
                stat.calls += 1
                stat.busy_ns += busy
                stat.self_ns += busy - child_ns
                stat.failed += failed
                if self._stack:
                    self._stack[-1][1] += busy
                self.spans[span_id] = (span_id, parent, self.run_id, name, start, end)

        return wrapper

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        patches = []   # (owner, attribute, original)
        for target in TARGETS:
            module = sys.modules[f"qflo.{target.module}"]
            if target.owner is not None:
                owner = getattr(module, target.owner)
                original = owner.__dict__[target.attr]
                patches.append((owner, target.attr, original))
                setattr(owner, target.attr, self._wrap(original, target))
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(original, target)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "qflo" and not mod_name.startswith("qflo."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def self_ns_by_module(self) -> dict:
        totals: dict = {}
        for name, stat in self.stats.items():
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0) + stat.self_ns
        return totals
