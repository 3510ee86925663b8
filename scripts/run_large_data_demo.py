#!/usr/bin/env python3
"""Large-data frequency-cutoff contraction demo on mollified-indicator data.

Shows the certified run next to the divergence of the naive iteration on the
full horizon.
"""

import argparse

import numpy as np

from modlab.datagen import mollified_indicator, norm_report
from modlab.grid import make_grid
from modlab.modspace import make_window
from modlab.solver import NLSProblem, large_data_protocol, picard_solve


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--n-radius", type=float, default=2.0)
    ap.add_argument("--c0", type=float, default=0.4)
    ap.add_argument("--c1", type=float, default=0.1)
    args = ap.parse_args()

    grid = make_grid(3, args.n, 8 * np.pi)
    window = make_window(grid)
    u0 = mollified_indicator(args.n_radius, grid)
    rep = norm_report(u0, window)
    print(
        f"data: n_radius={args.n_radius:g} l4={rep['l4']:.4f} l2={rep['l2']:.4f} "
        f"h1={rep['h1']:.4f} m_norm={rep['m_norm']:.4f} "
        f"boundary_decay={rep['boundary_decay']:.1e}"
    )

    problem = NLSProblem(u0=u0, horizon=1.0, time_nodes=17, sign=1)
    path, report = large_data_protocol(
        problem, window=window, c0=args.c0, c1=args.c1
    )
    cert = report.certificate
    print(
        f"certificate: A={cert.A:.4f} delta={cert.delta:.4f} N={cert.cutoff:g} "
        f"T={cert.horizon:.3e} holds={cert.holds()}"
    )
    print(f"picard: iterations={report.iterations} converged={report.converged}")

    naive = NLSProblem(u0=40.0 * u0, horizon=1.0, time_nodes=33, sign=1)
    _, naive_report = picard_solve(naive, max_iters=10)
    print(
        f"naive large-amplitude run on [0,1]: diverged={naive_report.diverged} "
        f"factors={['%.2e' % c for c in naive_report.contraction_factors[:4]]}"
    )


if __name__ == "__main__":
    main()
