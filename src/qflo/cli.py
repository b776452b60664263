"""Command-line harness: node tables, channel runs, convergence scans,
generator probes, order-scaling fits, and full pipeline estimates.

Exit codes: 0 success, 2 usage errors, 3 numerical failures (no logarithm,
non-convergent error bound, step counts past int64, shots past memory).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import secrets
import sys

import numpy as np

from . import __version__
from .analysis import fit_loglog_slope
from .channel import exact_expectation, node_values_exact, sample_shots
from .generator import generator_probe
from .hamiltonian import DimensionCapError, HamiltonianFormatError, load_hamiltonian
from .linalg import LogarithmError, NearDefectiveError
from .pipeline import QfloRequest, richardson_estimate_noiseless, run
from .richardson import build_nodes, weights_from_steps

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


class UsageError(ValueError):
    pass


class NumericalFailure(RuntimeError):
    pass


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def resolve_seed(seed: int) -> int:
    """Seed 0 means: derive from entropy and report the derived value."""
    if seed < 0:
        raise UsageError(f"--seed must be >= 0, got {seed}")
    if seed != 0:
        return seed
    derived = secrets.randbits(63)
    print(f"derived master seed: {derived}", file=sys.stderr)
    return derived


def _write_csv(header, rows, out_path):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    data = buf.getvalue()
    if out_path:
        _write_file(out_path, "--out", data)
    else:
        sys.stdout.write(data)


def _write_file(path, flag, text):
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"{flag}: cannot write {path}: {exc.strerror}") from None


def _parse_list(text, cast, flag, positive=False):
    try:
        values = [cast(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag}: could not parse {text!r}") from None
    if not values:
        raise UsageError(f"{flag}: empty list")
    if positive and not all(v > 0 and math.isfinite(v) for v in values):
        raise UsageError(f"{flag}: every value must be positive and finite, got {text!r}")
    return values


def _slope_fit(x, y) -> dict:
    """Slope and r^2 of the log-log fit of y against x; empty where
    ``fit_loglog_slope`` refuses the points (fewer than 4, a zero error, or
    one x value)."""
    try:
        fit = fit_loglog_slope(x, y)
    except ValueError:
        return {}
    return {"slope": fit.slope, "r_squared": fit.r_squared}


def _require_positive(value, flag):
    if not (value > 0 and math.isfinite(value)):
        raise UsageError(f"{flag} must be positive and finite, got {value!r}")


def parse_state(spec, n_qubits: int) -> np.ndarray:
    """Computational basis labels ('0...0', '01', ...) or 'plus' / 'plus^n'."""
    dim = 2 ** n_qubits
    if set(spec) <= {"0", "1"} and spec:
        if len(spec) != n_qubits:
            raise UsageError(
                f"--state label {spec!r} has {len(spec)} qubits, Hamiltonian has {n_qubits}"
            )
        psi = np.zeros(dim, dtype=complex)
        psi[int(spec, 2)] = 1.0
        return psi
    base, _, power = spec.partition("^")
    if base == "plus":
        if power and (not power.isdigit() or int(power) != n_qubits):
            raise UsageError(
                f"--state {spec!r} does not match the {n_qubits}-qubit Hamiltonian"
            )
        return np.full(dim, 1.0 / math.sqrt(dim), dtype=complex)
    raise UsageError(f"--state {spec!r}: expected a 0/1 basis label or 'plus^n'")


def _load(path, what):
    try:
        return load_hamiltonian(path)
    except FileNotFoundError:
        raise UsageError(f"{what} file not found: {path}") from None
    except HamiltonianFormatError as exc:
        raise UsageError(f"{what} {path}: {exc}") from None


def _problem(args):
    """(H, A, psi0) from --hamiltonian, --observable and --state.  The
    default state label is written back to ``args`` for ``_report``."""
    H = _load(args.hamiltonian, "Hamiltonian")
    A = _load(args.observable, "observable")
    if A.n_qubits != H.n_qubits:
        raise UsageError(
            f"observable {args.observable} has {A.n_qubits} qubits, Hamiltonian has {H.n_qubits}"
        )
    args.state = args.state or "0" * H.n_qubits
    return H, A.dense(), parse_state(args.state, H.n_qubits)


def _report(args, outputs, **parsed):
    """Write the JSON summary: the subcommand, every flag it was given (with
    ``parsed`` values in place of their raw text) and ``outputs``."""
    if not args.json:
        return
    inputs = {k: v for k, v in vars(args).items() if k not in ("command", "func", "out", "json")}
    payload = {"command": args.command, "inputs": {**inputs, **parsed}, "outputs": outputs}
    _write_file(args.json, "--json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cmd_nodes(args) -> int:
    _require_positive(args.m, "--m")
    nodes = build_nodes(args.m, squared=not args.pseudocode_schedule)
    weights = weights_from_steps(1.0 / nodes.y.astype(float))
    rows = [
        (j + 1, nodes.x[j], int(nodes.k[j]), int(nodes.y[j]), weights.b[j])
        for j in range(args.m)
    ]
    _write_csv(["j", "x_j", "k_j", "y_j", "b_j"], rows, args.out)
    _report(args, {"R": nodes.R, "one_norm": weights.one_norm})
    return EXIT_OK


def cmd_qdrift(args) -> int:
    H, A, psi0 = _problem(args)
    _require_positive(args.steps, "--steps")
    _require_positive(args.shots, "--shots")
    seed = resolve_seed(args.seed)
    values = sample_shots(H, A, psi0, args.time, [args.steps], args.shots, seed)[0]
    _write_csv(["shot", "value"], enumerate(values.tolist()), args.out)
    std = float(values.std(ddof=1)) if args.shots > 1 else 0.0
    _report(args, {"mean": float(values.mean()), "std": std}, seed=seed)
    return EXIT_OK


def cmd_scan(args) -> int:
    H, A, psi0 = _problem(args)
    n_list = _parse_list(args.n_list, int, "--n-list", positive=True)
    exact = exact_expectation(H, A, psi0, args.time)
    values = node_values_exact(H, A, psi0, args.time, n_list).tolist()
    rows = [(N, 1.0 / N, value, exact, abs(value - exact)) for N, value in zip(n_list, values)]
    _write_csv(["N", "s", "value", "exact", "abs_error"], rows, args.out)
    fit = _slope_fit([r[1] for r in rows], [r[4] for r in rows])
    _report(args, {"exact": exact, **fit}, n_list=n_list)
    return EXIT_OK


def cmd_generator(args) -> int:
    H = _load(args.hamiltonian, "Hamiltonian")
    s_list = _parse_list(args.s_list, float, "--s-list", positive=True)
    rows = []
    for s in s_list:
        try:
            probe = generator_probe(H, s, args.time)
            rows.append((s, probe.t, probe.min_eig_modulus, True, probe.deviation))
        except LogarithmError as exc:
            rows.append((s, s * args.time, exc.min_eig_modulus, False, math.nan))
    _write_csv(["s", "t", "min_eig_modulus", "log_exists", "deviation"], rows, args.out)
    probed = [r for r in rows if r[3]]
    _report(args, _slope_fit([r[0] for r in probed], [r[4] for r in probed]), s_list=s_list)
    if not all(r[3] for r in rows):
        raise NumericalFailure("logarithm does not exist at one or more probed step sizes")
    return EXIT_OK


def cmd_qflo(args) -> int:
    H, A, psi0 = _problem(args)
    seed = resolve_seed(args.seed)
    try:
        request = QfloRequest(
            hamiltonian=H,
            initial_state=psi0,
            observable=A,
            total_time=args.time,
            epsilon=args.epsilon,
            delta=args.delta,
            master_seed=seed,
            mode=args.mode,
            order_policy=args.order_policy,
            schedule=args.schedule,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    try:
        result = run(request)
    except (OverflowError, MemoryError) as exc:
        raise NumericalFailure(f"{exc}; lower --time or raise --epsilon") from None
    rows = [
        (i, n.step_count, n.shots, n.mean, n.standard_error, result.weights.b[i])
        for i, n in enumerate(result.per_node)
    ]
    _write_csv(
        ["node", "step_count", "shots", "mean", "standard_error", "weight"],
        rows,
        args.out,
    )
    _report(args, result.to_dict(), seed=seed)
    if not result.bound_convergent:
        raise NumericalFailure(
            "extrapolation-error bound is non-convergent (8 lambda T s_m >= 1)"
        )
    print(f"estimate: {_fmt(result.estimate)}", file=sys.stderr)
    return EXIT_OK


def cmd_orderfit(args) -> int:
    H, A, psi0 = _problem(args)
    m_list = _parse_list(args.m_list, int, "--m-list", positive=True)
    scale_list = _parse_list(args.scale_list, float, "--scale-list", positive=True)
    _require_positive(args.n_base, "--n-base")
    exact = exact_expectation(H, A, psi0, args.time)
    rows = []
    slopes = {}
    for m in m_list:
        s_values, errors = [], []
        for scale in scale_list:
            N_m = math.ceil(args.n_base / scale)
            estimate, counts, _ = richardson_estimate_noiseless(
                H, psi0, A, args.time, m, N_m
            )
            s_m = 1.0 / int(counts[-1])
            err = abs(estimate - exact)
            rows.append((m, scale, int(counts[-1]), s_m, err))
            s_values.append(s_m)
            errors.append(err)
        fit = _slope_fit(s_values, errors)
        if fit:
            slopes[str(m)] = fit
    _write_csv(["m", "scale", "N_m", "s_m", "abs_error"], rows, args.out)
    _report(args, {"exact": exact, "slopes": slopes}, m_list=m_list, scale_list=scale_list)
    return EXIT_OK


def _add_problem(p):
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--observable", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--time", type=float, required=True)


def _add_common(p):
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.add_argument("--json", help="JSON summary output path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qflo`` argument parser, built once per process: parsing reads
    it and keeps nothing in it, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="qflo",
        description="Randomized-compilation time evolution with Richardson extrapolation",
    )
    parser.add_argument("--version", action="version", version=f"qflo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nodes", help="print the Chebyshev node/weight table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--pseudocode-schedule", action="store_true",
                   help="use unsquared step-count ratios")
    _add_common(p)
    p.set_defaults(func=cmd_nodes)

    p = sub.add_parser("qdrift", help="run measurement shots of the randomized channel")
    _add_problem(p)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--shots", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=cmd_qdrift)

    p = sub.add_parser("scan", help="noiseless first-order convergence scan over N")
    _add_problem(p)
    p.add_argument("--n-list", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("generator", help="logarithm existence and generator deviation probe")
    p.add_argument("--hamiltonian", required=True)
    p.add_argument("--time", type=float, required=True)
    p.add_argument("--s-list", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_generator)

    p = sub.add_parser("qflo", help="full shot-budgeted pipeline estimate")
    _add_problem(p)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["noiseless", "shot_sampled"], default="noiseless")
    p.add_argument("--order-policy", choices=["log", "loglog"], default="log")
    p.add_argument("--schedule", choices=["squared", "pseudocode"], default="squared")
    _add_common(p)
    p.set_defaults(func=cmd_qflo)

    p = sub.add_parser("orderfit", help="noiseless estimator error vs coarsest step size")
    _add_problem(p)
    p.add_argument("--m-list", required=True)
    p.add_argument("--scale-list", required=True)
    p.add_argument("--n-base", type=int, default=8)
    _add_common(p)
    p.set_defaults(func=cmd_orderfit)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "time"):
            _require_positive(args.time, "--time")
        return args.func(args)
    except (UsageError, DimensionCapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (LogarithmError, NearDefectiveError, NumericalFailure, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except MemoryError as exc:
        print(f"numerical failure: {exc}; lower --shots or --steps", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
