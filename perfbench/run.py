#!/usr/bin/env python3
"""qflo benchmark: time to an estimate at a stated precision, on four workloads.

Run from the repository root:

    python3 perfbench/run.py --workload shot_heis5 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 0

The benchmark drives qflo's public API from ``src/`` in one process: a closed
loop with one client, no added threads and one BLAS thread.  Operations repeat
on one master seed while another still fits in ``--seconds``.  ``--trace 0``
reports the end-to-end metrics named in ``BENCHMARK.json``, with times scaled
to a fixed reference host speed by ``hostspeed.py``; ``--trace 1``
reports the per-layer metrics and writes the spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.  README.md defines every
metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The run exits with
code 2, printing no result, when the checkout holds no qflo sources.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread.  The host gives the benchmark two shared cores, and a
# second OpenBLAS thread spins on the other one: it made generator_scan slower
# (5.5 s against 4.5 s per operation) and far noisier.  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np
import scipy

import hostspeed
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 7
WORKLOAD_NAMES = ("shot_2q", "shot_heis5", "noiseless_sweep", "generator_scan")


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_library():
    """Import qflo from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "qflo" / "__init__.py").is_file():
        fail(f"no qflo sources under {src}")
    sys.path.insert(0, str(src))
    import qflo
    if Path(qflo.__file__).resolve().parent != src / "qflo":
        fail(f"imported qflo from {qflo.__file__}, not from {src}")
    import workloads
    return qflo, workloads


def master_seed(seed: int) -> int:
    state = np.random.SeedSequence(seed).generate_state(1, dtype=np.uint64)
    return int(state[0] >> 1)


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = ROOT / ".git" / ref
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def blas_threads():
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(qflo, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "qflo": qflo.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def time_setups(args) -> list:
    """(seconds from process start to the end of set-up, host probe), in fresh
    processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        before = hostspeed.probe()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.communicate(timeout=60)
        if line.strip() != "ready" or child.returncode != 0:
            fail(f"set-up process exited with code {child.returncode}")
        samples.append((elapsed, (before + hostspeed.probe()) / 2))
    return samples


def run_ops(workload, args):
    """Operations on one master seed, at least two, while one more still fits
    in ``--seconds``; each must reproduce the first bit for bit.  A traced run
    makes two, and traces the second."""
    seed = master_seed(args.seed)
    ops = []   # (OpResult, seconds, tracer or None)
    start = time.perf_counter()
    while len(ops) < 2 or (not args.trace and time.perf_counter() - start
                           + min(s for _, s, _ in ops) <= args.seconds):
        index = len(ops)
        tracer = None
        if args.trace and index == 1:
            tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-op{index}")
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            result = workload.op(seed, index)
            seconds = time.perf_counter() - t0
        if ops and result.value != ops[0][0].value:
            result.failures = {i: "same-seed rerun is not bit-identical"
                               for i in range(result.attempted)}
        ops.append((result, seconds, tracer))
    return ops


def end_to_end(ops, setups) -> dict:
    # Times at the reference host speed (hostspeed.py); an operation's is the
    # sum over its qflo calls.  Medians over the run's operations and set-ups.
    scaled_wall_s = statistics.median(
        sum(hostspeed.scaled(s, p) for s, p in r.calls) for r, _, _ in ops)
    return {
        "scaled_wall_s": scaled_wall_s,
        "setup_s": statistics.median(hostspeed.scaled(s, p) for s, p in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scaled_work_per_s": ops[0][0].work / scaled_wall_s,
    }


def per_layer(ops, setup_tracer) -> dict:
    (_, plain_s, _), (traced, traced_s, tracer) = ops
    metrics = {}
    for target in tracing.TARGETS:
        st = tracer.stats[target.name]
        if target.name == "channel.exact_expectation":
            st = setup_tracer.stats[target.name]   # the oracle runs in set-up
        prefix = target.name
        metrics.update({
            f"{prefix}.calls": st.calls,
            f"{prefix}.busy_s": st.busy_ns / 1e9,
            f"{prefix}.self_s": st.self_ns / 1e9,
            f"{prefix}.failed": st.failed,
        })
        if target.unit:
            scale = {"ns": 1.0, "us": 1e-3}[target.per_unit[:2]]
            metrics[f"{prefix}.{target.unit}"] = st.work
            metrics[f"{prefix}.{target.per_unit}"] = (
                st.busy_ns * scale / st.work if st.work else 0.0)
    for module, self_ns in tracer.self_ns_by_module().items():
        metrics[f"{module}.self_share"] = 100.0 * self_ns / (traced_s * 1e9)
    metrics.update(traced.plan)
    metrics.update({
        "trace.wall_s": traced_s,
        "trace.untraced_wall_s": plain_s,
        "trace.overhead_s": traced_s - plain_s,
    })
    return metrics


def select(computed: dict, spec_metrics: list) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in computed]
    if missing:
        fail(f"BENCHMARK.json names metrics this harness does not compute: {missing}")
    return {m["name"]: {"value": computed[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def run_one(args) -> int:
    qflo, workloads = load_library()
    OUT_DIR.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT_DIR)
    try:
        workload = workloads.WORKLOADS[args.workload]()
        if args.setup_only:
            workload.setup(tmpdir)
            print("ready", flush=True)
            return 0
        spec_path = ROOT / "BENCHMARK.json"
        if not spec_path.is_file():
            fail(f"missing {spec_path}")
        spec = json.loads(spec_path.read_text(encoding="utf-8"))
        setups = [] if args.trace else time_setups(args)
        setup_tracer = tracing.Tracer(run_id=f"{args.workload}-seed{args.seed}-setup")
        with setup_tracer.installed() if args.trace else contextlib.nullcontext():
            workload.setup(tmpdir)
        ops = run_ops(workload, args)
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    env = environment(qflo, args.seed)
    print("environment: " + json.dumps(env, sort_keys=True))
    for index, (result, seconds, tracer) in enumerate(ops):
        probe_ms = 1e3 * statistics.median(p for _, p in result.calls)
        print(f"op {index}: {seconds:.4f} s, host probe {probe_ms:.3f} ms, work {result.work}, "
              f"{len(result.failures)}/{result.attempted} failed"
              + (" (traced)" if tracer else ""))
        for sub, reason in sorted(result.failures.items()):
            print(f"  op {index} sub-operation {sub} failed: {reason}", file=sys.stderr)

    if args.trace:
        computed = per_layer(ops, setup_tracer)
        metrics = select(computed, spec["per_layer"])
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        spans = setup_tracer.spans + ops[1][2].spans
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"environment": env, "workload": args.workload,
                       "metrics": computed,
                       "span_fields": ["id", "parent", "run", "name", "start_ns", "end_ns"],
                       "spans": spans}, fh)
        print(f"trace: {trace_path.relative_to(ROOT)} ({len(spans)} spans)")
    else:
        metrics = select(end_to_end(ops, setups), spec["end_to_end"])

    for name, m in metrics.items():
        print(f"{name:48s} {m['value']:>18.6g} {m['unit']}")
    attempted = sum(r.attempted for r, _, _ in ops)
    failed = sum(len(r.failures) for r, _, _ in ops)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh process, then one table."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.splitlines()
        if done.returncode != 0 or not lines:
            fail(f"workload {name} exited with code {done.returncode}")
        results[name] = json.loads(lines[-1])
    print(f"{'workload':16s} {'metric':48s} {'value':>18s} unit")
    for name, result in results.items():
        rate = result["failed"] / result["attempted"]
        print(f"{name:16s} {'fail_rate':48s} {rate:>18.6g} "
              f"({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"{name:16s} {metric:48s} {m['value']:>18.6g} {m['unit']}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
