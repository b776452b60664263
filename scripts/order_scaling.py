"""Sweep the extrapolation order m and the coarsest node's step count, then fit
the error of the noiseless extrapolated estimate against its step size.
The fitted slope should track the order m.
"""

import argparse
import math

import numpy as np

from qflo.analysis import fit_loglog_slope
from qflo.benchmarks import one_qubit_benchmark, two_qubit_benchmark
from qflo.channel import exact_expectation
from qflo.pipeline import richardson_estimate_noiseless

BENCHMARKS = {"one_qubit": one_qubit_benchmark, "two_qubit": two_qubit_benchmark}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--benchmark", choices=sorted(BENCHMARKS), default="one_qubit")
    parser.add_argument("--time", type=float, default=1.0)
    parser.add_argument("--orders", default="2,3,4")
    parser.add_argument("--n-base", type=int, default=8,
                        help="coarsest node step count at scale 1")
    parser.add_argument("--scales", default="1,0.5,0.25,0.125")
    args = parser.parse_args()

    H, A, psi0 = BENCHMARKS[args.benchmark]()
    rho0 = np.outer(psi0, psi0.conj())
    exact = exact_expectation(H, A, rho0, args.time)
    orders = [int(tok) for tok in args.orders.split(",")]
    scales = [float(tok) for tok in args.scales.split(",")]
    print(f"benchmark: {args.benchmark}, T = {args.time}, exact = {exact:.12f}")
    for m in orders:
        s_values, errors = [], []
        print(f"order m = {m}")
        for scale in scales:
            N_m = math.ceil(args.n_base / scale)
            estimate, sched, _ = richardson_estimate_noiseless(
                H, psi0, A, args.time, m, N_m
            )
            s_m = 1.0 / int(sched.step_counts[-1])
            err = abs(estimate - exact)
            print(f"  N_m = {int(sched.step_counts[-1]):>5}  s_m = {s_m:.6g}  "
                  f"error = {err:.4e}")
            s_values.append(s_m)
            errors.append(err)
        fit = fit_loglog_slope(s_values, errors)
        print(f"  fitted slope: {fit.slope:.4f}  (r^2 = {fit.r_squared:.6f})")


if __name__ == "__main__":
    main()
