"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are fixed here, not configurable.
"""

import time
from functools import partial

import numpy as np
import pytest

from modlab.datagen import mollified_indicator, norm_report, random_field
from modlab.estimates import (
    ExperimentConfig,
    bilinear_ratio,
    decoupling_ratio,
    fit_exponent,
    sdec,
    smoothing_ratio,
)
from modlab.grid import Field, Trajectory, lp_norm, make_grid
from modlab.modspace import ModNormSpec, make_window, modulation_norm
from modlab.propagator import free_evolve, galilean_shift, mass
from modlab.solver import (
    NLSProblem,
    cross_validate,
    large_data_protocol,
    picard_solve,
    splitstep_solve,
)
from modlab.variation import duality_pairing, make_atom, vp_norm, vp_norm_bruteforce


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number:02d} [{name}] {status}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


class TestAcceptance:
    def test_criterion_01_plancherel(self):
        t0 = time.time()
        worst = 0.0
        for d, n in ((1, 256), (2, 32), (3, 16)):
            grid = make_grid(d, n, 8 * np.pi)
            window = make_window(grid)
            spec = ModNormSpec(0.0, 2.0, 2.0)
            for seed in range(100):
                f = random_field(grid, seed)
                m = modulation_norm(f, spec, window)
                l2 = lp_norm(f, 2)
                worst = max(worst, abs(m - l2) / l2)
        report(
            1,
            "plancherel",
            worst <= 1e-10,
            f"max rel deviation {worst:.3e} over 100 fields x d in {{1,2,3}} "
            f"({time.time() - t0:.1f}s)",
        )

    def test_criterion_02_sdec_table(self):
        table = {(6.0, 1): 0.0, (8.0, 1): 1 / 16, (4.0, 3): 1 / 8, (4.0, 2): 0.0}
        exact = all(sdec(p, d) == expect for (p, d), expect in table.items())
        report(2, "sdec-table", exact, f"values {[sdec(p, d) for p, d in table]}")

    def test_criterion_03_smoothing_exponent(self):
        t0 = time.time()
        cfg = ExperimentConfig(
            d=1, n=2048, length=8 * np.pi, scales=(4.0, 8.0, 16.0, 32.0),
            family="focusing", p=8.0, time_nodes=2049, margin=0.15,
        )
        fit = smoothing_ratio(cfg)
        target = 2 * sdec(8.0, 1)
        ok = target - 0.15 <= fit.slope <= target + 0.15
        report(
            3,
            "smoothing-d1-p8",
            ok,
            f"slope {fit.slope:.4f} vs 2*sdec = {target:.4f} +- 0.15 "
            f"({time.time() - t0:.1f}s)",
        )

    def test_criterion_04_bilinear_refinement(self):
        t0 = time.time()
        cfg = ExperimentConfig(
            d=3, n=32, length=4 * np.pi, cube=2.0, scales=(1.0, 2.0, 4.0),
            fixed_scale=1.0, family="band_noise", time_nodes=129,
            min_separation=1.0, margin=0.15, seed=11,
        )
        fit_high, fit_low = bilinear_ratio(cfg)
        ok_high = fit_high.slope <= 0.15
        ok_low = fit_low.slope <= 0.5 + 0.15
        chain = fit_low.meta["chain"]
        ok_chain = chain["cover_ok"] and chain["holder_ok"]
        report(
            4,
            "bilinear-d3",
            ok_high and ok_low and ok_chain,
            f"N1-slope {fit_high.slope:.4f} <= 0.15, N2-slope {fit_low.slope:.4f} "
            f"<= 0.65, chain ok ({time.time() - t0:.1f}s)",
        )

    def test_criterion_05_decoupling(self):
        t0 = time.time()
        cfg = ExperimentConfig(
            d=1, scales=(16.0, 64.0, 256.0), p=6.0, profile="constant", margin=0.2
        )
        fit = decoupling_ratio(cfg)
        report(
            5,
            "decoupling-d1-p6",
            fit.slope <= 0.2,
            f"slope {fit.slope:.4f} <= 0.2 over R in {cfg.scales} "
            f"({time.time() - t0:.1f}s)",
        )

    def test_criterion_06_vp_dp_oracle(self):
        t0 = time.time()
        unit = make_grid(1, 8, 1.0)
        norm = partial(lp_norm, p=2.0)
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(500):
            m = int(rng.integers(2, 13))
            vals = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            samples = np.stack([np.full(unit.shape, v, dtype=complex) for v in vals])
            path = Trajectory(unit, np.arange(m), samples)
            p = float(rng.choice([1.0, 2.0, 4.0]))
            terminal = bool(rng.integers(0, 2))
            a = vp_norm(path, p, norm, terminal)
            b = vp_norm_bruteforce(path, p, norm, terminal)
            worst = max(worst, abs(a - b))
        report(
            6,
            "vp-dynamic-program",
            worst <= 1e-12,
            f"max |DP - bruteforce| = {worst:.2e} over 500 paths "
            f"({time.time() - t0:.1f}s)",
        )

    def test_criterion_07_duality_inequality(self):
        t0 = time.time()
        unit = make_grid(1, 8, 1.0)
        norm = partial(lp_norm, p=2.0)
        rng = np.random.default_rng(7)
        ok = True
        worst = 0.0
        for p in (2.0, 4.0):
            q = p / (p - 1.0)
            for trial in range(200):
                k = int(rng.integers(1, 6))
                mk = lambda: Field(
                    unit,
                    rng.standard_normal(unit.shape)
                    + 1j * rng.standard_normal(unit.shape),
                )
                partition = tuple(np.cumsum(rng.uniform(0.1, 1.0, k + 1)))
                atom = make_atom(partition, tuple(mk() for _ in range(k)), p, norm)
                samples = np.stack([mk().values for _ in range(k + 1)])
                v = Trajectory(unit, partition, samples)
                ratio = abs(duality_pairing(atom, v)) / vp_norm(v, q, norm)
                worst = max(worst, ratio)
                ok = ok and ratio <= 1.0001
        report(
            7,
            "duality-holder",
            ok,
            f"max |B(a,v)| / ||v||_Vq = {worst:.6f} <= 1.0001 over 2x200 pairs "
            f"({time.time() - t0:.1f}s)",
        )

    def test_criterion_08_small_data_contraction(self):
        t0 = time.time()
        grid = make_grid(1, 256, 16 * np.pi)
        x = grid.axis_coords()
        u0 = Field(grid, 0.2 * np.exp(-(x**2) / 2).astype(complex))
        problem = NLSProblem(u0=u0, horizon=0.1, time_nodes=129, sign=1)
        _, rep = picard_solve(problem, tol=1e-12)
        factors_ok = len(rep.contraction_factors) >= 1 and all(
            c < 0.5 for c in rep.contraction_factors
        )
        cv = cross_validate(problem, tol=1e-5)
        report(
            8,
            "small-data-contraction",
            factors_ok and cv["agrees"],
            f"factors {[f'{c:.2e}' for c in rep.contraction_factors]} < 1/2; "
            f"cross-validation distance {cv['distance']:.2e} <= 1e-5 "
            f"({time.time() - t0:.1f}s)",
        )

    def test_criterion_09_large_data_certificate(self):
        t0 = time.time()
        grid = make_grid(3, 16, 8 * np.pi)
        window = make_window(grid)
        u0 = mollified_indicator(2.0, grid)
        problem = NLSProblem(u0=u0, horizon=1.0, time_nodes=17, sign=1)
        _, rep = large_data_protocol(problem, window=window, c0=0.4)
        cert = rep.certificate
        checked = len(cert.total_norms) == rep.iterations + 1
        report(
            9,
            "large-data-certificate",
            cert.holds() and rep.converged and checked,
            f"A={cert.A:.4f} delta={cert.delta:.4f} N={cert.cutoff:g} "
            f"T={cert.horizon:.3e}; ball conditions verified on "
            f"{len(cert.total_norms)} iterates ({time.time() - t0:.1f}s)",
        )

    def test_criterion_10_infinite_energy_family(self):
        t0 = time.time()
        grid = make_grid(1, 512, 64.0)
        window = make_window(grid)
        radii = (2.0, 4.0, 8.0, 16.0)
        m_norms, h1_norms = [], []
        for nr in radii:
            rep = norm_report(mollified_indicator(nr, grid), window)
            m_norms.append(rep["m_norm"])
            h1_norms.append(rep["h1"])
        ratio = max(m_norms) / min(m_norms)
        slope, _, _ = fit_exponent(radii, h1_norms)
        ok = ratio <= 2.0 and abs(slope - 0.25) <= 0.1
        report(
            10,
            "infinite-energy-family",
            ok,
            f"M-norm spread {ratio:.3f} <= 2, H1 exponent {slope:.3f} = 0.25 +- 0.1 "
            f"({time.time() - t0:.1f}s)",
        )

    def test_criterion_11_conservation(self):
        t0 = time.time()
        drifts, identities = [], []

        # split-step mass conservation across the solver matrix
        matrix = []
        g1 = make_grid(1, 256, 16 * np.pi)
        x1 = g1.axis_coords()
        matrix.append(
            NLSProblem(
                u0=Field(g1, 0.3 * np.exp(-(x1**2) / 2).astype(complex)),
                horizon=0.1, time_nodes=33, sign=1,
            )
        )
        matrix.append(
            NLSProblem(
                u0=Field(g1, 0.3 * np.exp(-(x1**2) / 2).astype(complex)),
                horizon=0.1, time_nodes=33, sign=-1,
            )
        )
        g2 = make_grid(2, 32, 8 * np.pi)
        r2 = sum(c**2 for c in g2.coords())
        matrix.append(
            NLSProblem(
                u0=Field(g2, 0.3 * np.exp(-r2 / 2).astype(complex)),
                horizon=0.1, time_nodes=33, sign=1,
            )
        )
        g3 = make_grid(3, 16, 8 * np.pi)
        r3 = sum(c**2 for c in g3.coords())
        matrix.append(
            NLSProblem(
                u0=Field(g3, 0.2 * np.exp(-r3 / 2).astype(complex)),
                horizon=0.05, time_nodes=33, sign=1,
            )
        )
        for prob in matrix:
            path = splitstep_solve(prob, dt=prob.horizon / 128)
            m0 = mass(prob.u0)
            drifts.append(max(abs(mass(f) - m0) for _, f in path) / m0)

        # unitarity and Galilean identities
        gw = make_grid(1, 1024, 64 * np.pi)
        xw = gw.axis_coords()
        f = Field(gw, np.exp(-(xw**2) / 2).astype(complex))
        for t in (0.1, 0.5, 1.0):
            u = free_evolve(f, t)
            identities.append(abs(lp_norm(u, 2) - lp_norm(f, 2)) / lp_norm(f, 2))
        xi0 = 2.0
        ts = np.pi / 16
        shift = int(round(2 * ts * xi0 / gw.h))
        lhs = free_evolve(galilean_shift(f, [xi0]), ts)
        rhs = np.exp(1j * (xw * xi0 - ts * xi0**2)) * np.roll(
            free_evolve(f, ts).values, shift
        )
        identities.append(float(np.max(np.abs(lhs.values - rhs))))
        g_shift = galilean_shift(f, [xi0])
        identities.append(float(np.max(np.abs(np.abs(g_shift.values) - np.abs(f.values)))))

        worst = max(max(drifts), max(identities))
        report(
            11,
            "conservation",
            worst <= 1e-10,
            f"mass drifts {[f'{v:.1e}' for v in drifts]}, identity residues "
            f"{[f'{v:.1e}' for v in identities]} ({time.time() - t0:.1f}s)",
        )
