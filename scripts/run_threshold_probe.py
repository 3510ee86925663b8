#!/usr/bin/env python3
"""Probe the measured small-data threshold of the quintic line equation.

Sweeps Gaussian amplitudes and reports the largest one whose Picard run
keeps every contraction factor below 1/2, together with the sum-space
smallness bound of each data set.
"""

import argparse

import numpy as np

from modlab.datagen import gaussian
from modlab.grid import make_grid
from modlab.modspace import make_window
from modlab.solver import NLSProblem, picard_solve, sum_space_smallness


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=256)
    ap.add_argument("--length", type=float, default=16 * np.pi)
    ap.add_argument("--horizon", type=float, default=0.1)
    ap.add_argument(
        "--amplitudes", type=float, nargs="+",
        default=[0.1, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
    )
    args = ap.parse_args()

    grid = make_grid(1, args.n, args.length)
    window = make_window(grid)
    profile = gaussian(grid)

    # a measured stand-in for the unquantified smallness constant: the
    # largest amplitude whose Picard run (at most 12 iterates) converges with
    # every contraction factor below 1/2, probed in increasing order
    largest = None
    for amp in sorted(args.amplitudes):
        problem = NLSProblem(u0=amp * profile, horizon=args.horizon, time_nodes=65, sign=1)
        _, rep = picard_solve(problem, max_iters=12)
        contracting = rep.converged and rep.contracting()
        if contracting:
            largest = amp
        bound = sum_space_smallness(problem.u0, window, s=0.5)
        state = "contracting" if contracting else "NOT contracting"
        print(
            f"amplitude {amp:6.2f}: {state:16s} "
            f"sum-space bound {bound['bound']:.4f} "
            f"factors {['%.2e' % f for f in rep.contraction_factors[:3]]}"
        )
    print(f"largest contracting amplitude: {largest}")


if __name__ == "__main__":
    main()
