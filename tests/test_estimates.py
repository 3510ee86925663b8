import numpy as np
import pytest

import modlab.estimates as est
from modlab import datagen
from modlab.estimates import (
    ExperimentConfig,
    bilinear_ratio,
    decoupling_ratio,
    fit_exponent,
    sdec,
    smoothing_ratio,
    strichartz_l4_ratio,
    v2_bilinear_ratio,
)
from modlab.grid import make_grid
from tests.conftest import direct_ball_norm


class TestSdec:
    @pytest.mark.parametrize(
        "p,d,expect",
        [(6.0, 1, 0.0), (8.0, 1, 1.0 / 16), (4.0, 3, 1.0 / 8), (4.0, 2, 0.0)],
    )
    def test_table(self, p, d, expect):
        assert sdec(p, d) == pytest.approx(expect, abs=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_continuity_at_threshold(self, d):
        pc = 2.0 * (d + 2.0) / d
        assert sdec(pc, d) == pytest.approx(0.0, abs=1e-14)
        assert sdec(pc + 1e-9, d) == pytest.approx(0.0, abs=1e-9)

    def test_p_below_two_rejected(self):
        with pytest.raises(ValueError):
            sdec(1.5, 1)


class TestFitExponent:
    def test_exact_power_law(self):
        scales = (2.0, 4.0, 8.0, 16.0)
        ratios = tuple(s**0.5 for s in scales)
        slope, intercept, resid = fit_exponent(scales, ratios)
        assert slope == pytest.approx(0.5, abs=1e-12)
        assert resid <= 1e-12

    def test_constant_ratios(self):
        slope, _, _ = fit_exponent((1.0, 2.0, 4.0), (3.0, 3.0, 3.0))
        assert slope == pytest.approx(0.0, abs=1e-14)

    def test_two_samples_rejected(self):
        with pytest.raises(ValueError, match="3 scales"):
            fit_exponent((1.0, 2.0), (1.0, 2.0))

    def test_repeated_scales_count_once(self):
        # three equal scales leave a rank-1 system, whose minimum-norm
        # solution is no slope at all
        with pytest.raises(est.InvalidScales, match="got 1 distinct"):
            fit_exponent((16.0, 16.0, 16.0), (1.0, 2.0, 4.0))
        with pytest.raises(est.InvalidScales, match="got 2 distinct"):
            fit_exponent((2.0, 4.0, 4.0, 2.0), (1.0, 2.0, 2.0, 1.0))

    def test_nonpositive_ratio_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            fit_exponent((1.0, 2.0, 4.0), (1.0, 0.0, 2.0))


class TestConfig:
    def test_non_dyadic_scales_rejected(self):
        with pytest.raises(ValueError, match="dyadic"):
            ExperimentConfig(scales=(3.0,))

    def test_invalid_scales_lives_in_grid(self):
        from modlab.grid import InvalidScales

        assert est.InvalidScales is InvalidScales and "InvalidScales" in est.__all__

    def test_to_dict_roundtrips_scales(self):
        cfg = ExperimentConfig(scales=(2.0, 4.0))
        assert cfg.to_dict()["scales"] == [2.0, 4.0]


class TestReproducibility:
    def test_fit_is_bit_for_bit_deterministic(self):
        cfg = ExperimentConfig(
            d=1, n=512, length=8 * np.pi, scales=(2.0, 4.0, 8.0),
            family="random_phase", p=4.0, time_nodes=129, seed=21,
        )
        a = smoothing_ratio(cfg)
        b = smoothing_ratio(cfg)
        assert a.ratios == b.ratios
        assert a.slope == b.slope


class TestSmoothing:
    def test_below_threshold_slope_is_flat(self):
        cfg = ExperimentConfig(
            d=1, n=512, length=8 * np.pi, scales=(2.0, 4.0, 8.0),
            family="focusing", p=4.0, time_nodes=513,
        )
        fit = smoothing_ratio(cfg)
        assert fit.predicted == 0.0
        assert fit.slope <= 0.15
        assert fit.passed

    def test_scale_beyond_band_rejected(self):
        cfg = ExperimentConfig(
            d=1, n=256, length=8 * np.pi, scales=(2.0, 4.0, 16.0), family="focusing"
        )
        with pytest.raises(ValueError, match="xi_max"):
            smoothing_ratio(cfg)

    def test_zero_family_degenerate(self, monkeypatch):
        # the table refuses a zero datum: a bump centered past the band, and
        # every band-noise datum once the annulus multiplier is zeroed, before
        # any cell is measured
        grid = make_grid(1, 256, 8 * np.pi)
        with pytest.raises(ValueError, match="zero field"):
            datagen.scale_family("bump", 64.0, 0, 1.0, grid)
        cfg = ExperimentConfig(
            d=1, n=256, length=8 * np.pi, scales=(2.0, 4.0, 8.0), family="band_noise"
        )
        monkeypatch.setattr(datagen, "dyadic_multiplier", lambda g, b: np.zeros(g.shape))
        monkeypatch.setattr(est, "free_flow_lp_norms", pytest.fail)
        with pytest.raises(ValueError, match="zero field"):
            smoothing_ratio(cfg)

    def test_unknown_family_rejected(self):
        cfg = ExperimentConfig(scales=(2.0, 4.0, 8.0), family="nope", n=512)
        with pytest.raises(ValueError, match="family"):
            smoothing_ratio(cfg)

    def test_scale_count_checked_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(datagen, "scale_family", pytest.fail)
        monkeypatch.setattr(est, "free_flow_lp_norms", pytest.fail)
        cfg = ExperimentConfig(d=1, n=256, length=8 * np.pi, scales=(2.0, 4.0), family="focusing")
        with pytest.raises(est.InvalidScales, match="at least 3 scales for a fit, got 2"):
            smoothing_ratio(cfg)


class TestStrichartz:
    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="d in"):
            strichartz_l4_ratio(ExperimentConfig(d=1))

    def test_single_cube_data_flat(self):
        cfg = ExperimentConfig(
            d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0, 2.0),
            family="bump", time_nodes=65,
        )
        # two scales: compare the measured ratios directly instead of a fit
        grid = cfg.grid()
        window = cfg.window()
        from modlab.modspace import ModNormSpec, modulation_norm
        from modlab.propagator import free_flow_lp_norms

        ratios = []
        for N in cfg.scales:
            u0 = datagen.scale_family(cfg.family, N, cfg.seed, cfg.cube, grid)
            lhs = free_flow_lp_norms([[u0]], 1.0, cfg.time_nodes, 4.0)[0]
            rhs = modulation_norm(u0, ModNormSpec(0, 4, 2), window)
            ratios.append(lhs / rhs)
        assert max(ratios) / min(ratios) <= 1.5

    def test_focusing_slope_within_loss_budget(self):
        cfg = ExperimentConfig(
            d=3, n=32, length=2 * np.pi, cube=4.0, scales=(1.0, 2.0, 4.0),
            family="focusing", time_nodes=129, margin=0.15,
        )
        fit = strichartz_l4_ratio(cfg)
        assert fit.predicted == pytest.approx(2 * sdec(4.0, 3))
        assert fit.passed

    def test_galilean_family_gives_constant_ratio(self):
        # identical bump modulated to centers at cube-lattice multiples:
        # both sides are exactly shift-invariant
        cfg = ExperimentConfig(
            d=3, n=64, length=2 * np.pi, cube=4.0, scales=(4.0, 8.0),
            family="bump", time_nodes=65,
        )
        grid = cfg.grid()
        window = cfg.window()
        from modlab.modspace import ModNormSpec, modulation_norm
        from modlab.propagator import free_flow_lp_norms

        ratios = []
        for N in cfg.scales:
            u0 = datagen.scale_family(cfg.family, N, cfg.seed, cfg.cube, grid)
            lhs = free_flow_lp_norms([[u0]], 1.0, cfg.time_nodes, 4.0)[0]
            rhs = modulation_norm(u0, ModNormSpec(0, 4, 2), window)
            ratios.append(lhs / rhs)
        assert abs(ratios[1] / ratios[0] - 1.0) <= 1e-8


class TestBilinear:
    def small_config(self, **kw):
        base = dict(
            d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0, 2.0, 4.0),
            fixed_scale=1.0, family="band_noise", time_nodes=65,
            min_separation=1.0, margin=0.15, seed=2,
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_runs_and_chain_inequalities_hold(self):
        fit_high, fit_low = bilinear_ratio(self.small_config())
        assert len(fit_high.ratios) == 3
        chain = fit_low.meta["chain"]
        assert chain["cover_ok"]
        assert chain["holder_ok"]
        assert chain["lhs_sq"] > 0

    def test_bits_pinned(self):
        # float.hex of the sweep and the chain log.  The products run on the
        # smallest exact grid of their fields' boxes; PADDED holds the bits
        # they had on the 2x zero-padded grid, and the two grids give the
        # same exact quadrature, so they agree to round-off
        fit_high, fit_low = bilinear_ratio(self.small_config())
        chain = fit_low.meta["chain"]
        lhs = [*fit_high.lhs, chain["lhs_sq"], chain["sampled_product_sq_sum"]]
        padded = [
            "0x1.2e59a54d9f580p+0", "0x1.a6dc1bd9aaf6dp+1", "0x1.385e1fddd4064p+3",
            "0x1.7d273b9110146p+6", "0x1.7f6f503be5646p-1",
        ]
        for value, old in zip(lhs, padded):
            assert value == pytest.approx(float.fromhex(old), rel=1e-14, abs=0.0)
        assert [v.hex() for v in lhs] == [
            "0x1.2e59a54d9f57dp+0", "0x1.a6dc1bd9aaf70p+1", "0x1.385e1fddd4060p+3",
            "0x1.7d273b911013fp+6", "0x1.7f6f503be5646p-1",
        ]
        assert [v.hex() for v in fit_low.rhs] == [
            "0x1.ae46809f6e0fap+3", "0x1.48a75d6415245p+5", "0x1.d93901fd44333p+6",
        ]

    def test_pairs_checked_before_any_cell(self, monkeypatch):
        # a regime violation in the last high pair, too few scales for the
        # high fit, or too few low scales is reported before a single cell
        # is measured, or a single field built
        monkeypatch.setattr(est, "free_flow_lp_norms", pytest.fail)
        monkeypatch.setattr(datagen, "scale_family", pytest.fail)
        cfg = self.small_config(scales=(4.0, 2.0, 1.0), min_separation=2.0)
        with pytest.raises(ValueError, match="regime violated: N2=1.0 > N1/2.0=1.0"):
            bilinear_ratio(cfg)
        cfg = self.small_config(scales=(1.0, 2.0, 4.0), min_separation=2.0, fixed_scale=0.5)
        with pytest.raises(est.InvalidScales, match="fewer than 3 admissible"):
            bilinear_ratio(cfg)
        with pytest.raises(est.InvalidScales, match="at least 3 scales for a fit, got 2"):
            bilinear_ratio(self.small_config(scales=(1.0, 2.0)))

    def test_one_field_and_norm_per_distinct_band(self, monkeypatch):
        # 5 cells over 3 high and 3 low fields: each field is built once, takes
        # one M_{4,2} norm, and is the same object in every product it enters
        built, normed, sweeps = [], [], []

        def spy(module, name, record):
            real = getattr(module, name)

            def wrapper(*args, **kwargs):
                record(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        spy(datagen, "scale_family", lambda args: built.append(args[:3]))
        spy(est, "modulation_norm", lambda args: normed.append(args[0]))
        spy(est, "free_flow_lp_norms", lambda args: sweeps.append(args[0]))
        _, fit_low = bilinear_ratio(self.small_config())
        # the chain log builds no field of its own: it adds one norm per sampled
        # piece and two sweeps
        boxes = fit_low.meta["chain"]["sampled_boxes"]
        assert len(built) == len(set(built)) == 6
        assert {family for family, _, _ in built} == {"band_noise"}
        assert len(normed) == len({id(f) for f in normed}) == 6 + boxes
        products = sweeps[0]
        assert len(products) == 5
        assert products[1][1] is products[0][1] and products[3][0] is products[2][0]

    def test_chain_log_keeps_no_ball_masks(self):
        # the chain log keeps the occupied centers and rebuilds the masks of
        # the sampled balls only; a full-grid mask kept for each of the
        # ~3000 occupied balls peaked at 16 MiB on this 16^3 cell
        import tracemalloc

        from modlab.modspace import ModNormSpec, modulation_norm

        cfg = self.small_config()
        window = cfg.window()
        bands = (4.0, 1.0)
        f1, f2 = (
            datagen.scale_family("band_noise", b, cfg.seed + j, cfg.cube, cfg.grid())
            for j, b in enumerate(bands)
        )
        f1_norm = modulation_norm(f1, ModNormSpec(0.0, 4.0, 2.0), window)
        est.bilinear_chain_log(cfg, window, bands, f1, f2, f1_norm)  # fill the caches
        tracemalloc.start()
        try:
            chain = est.bilinear_chain_log(cfg, window, bands, f1, f2, f1_norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert chain["total_boxes"] > 1000
        assert peak < 6 * 2**20

    def test_chain_energy_matches_full_mask_oracle(self):
        # each ball's energy summed over its per-axis reaches has the bits of
        # the full-grid mask's sum, so the ratio and the count keep theirs
        from modlab.modspace import ModNormSpec, modulation_norm
        from tests.oracles import chain_cover_energy

        cfg = self.small_config(seed=11)
        window = cfg.window()
        bands = (4.0, 1.0)
        f1, f2 = (
            datagen.scale_family("band_noise", b, cfg.seed + j, cfg.cube, cfg.grid())
            for j, b in enumerate(bands)
        )
        f1_norm = modulation_norm(f1, ModNormSpec(0.0, 4.0, 2.0), window)
        chain = est.bilinear_chain_log(cfg, window, bands, f1, f2, f1_norm)
        ratio, occupied = chain_cover_energy(f1, *bands)
        assert chain["cover_energy_ratio"].hex() == ratio.hex()
        assert chain["total_boxes"] == occupied > 1000

    def test_products_on_their_smallest_exact_grids(self, monkeypatch):
        # the half cell: band-noise boxes span 3, 7 and 15 of 16 modes per
        # axis and a ball piece 2, so the five cells take 6, 10, 18, 24 and
        # 30 points per axis, the chain's products 18 and 4, its L^4 norms
        # 6 and 4 (first node of each sweep, in product order)
        import modlab.propagator as prop

        sweeps = []
        real_sweep, real_inverse = est.free_flow_lp_norms, prop.inverse_pruned

        def sweep(products, *args, **kwargs):
            sweeps.append([])
            return real_sweep(products, *args, **kwargs)

        def inverse(grid, coefficients, modes):
            sweeps[-1].append(grid.n)
            return real_inverse(grid, coefficients, modes)

        monkeypatch.setattr(est, "free_flow_lp_norms", sweep)
        monkeypatch.setattr(prop, "inverse_pruned", inverse)
        cfg = self.small_config(seed=11, time_nodes=5)
        _, fit_low = bilinear_ratio(cfg)
        boxes = fit_low.meta["chain"]["sampled_boxes"]
        assert len(sweeps) == 3
        cells, products, norms = (s[: len(s) // m] for s, m in zip(sweeps, (5, 33, 33)))
        assert cells == [6, 6, 10, 10, 18, 18, 24, 24, 30, 30]
        assert products == [18, 18] + [4] * (boxes + 1)
        assert norms == [6] + [4] * boxes

    def test_high_frequency_slope_flat(self):
        fit_high, _ = bilinear_ratio(self.small_config())
        assert abs(fit_high.slope) <= 0.15

    def test_shared_cell_measured_once(self, monkeypatch):
        # both sweeps use the cell (max scale, fixed scale) = (4, 1)
        calls, bands, real_family = [], {}, datagen.scale_family

        def noise(family, band, seed, cube, grid):
            f = real_family(family, band, seed, cube, grid)
            bands[f] = band  # a field is its own key
            return f

        def sweep(products, *args):
            calls.extend(products)
            return np.array([bands[f1] * bands[f2] for f1, f2 in products])

        # each cell's lhs is the product of its bands, so cells tell apart
        monkeypatch.setattr(datagen, "scale_family", noise)
        monkeypatch.setattr(est, "modulation_norm", lambda *args: 1.0)
        monkeypatch.setattr(est, "free_flow_lp_norms", sweep)
        monkeypatch.setattr(est, "bilinear_chain_log", lambda *args: {})
        fit_high, fit_low = bilinear_ratio(self.small_config())
        assert len(calls) == len(set(calls)) == 5
        assert list(fit_high.rhs) == list(fit_low.rhs) == [1.0] * 3
        assert list(fit_high.lhs) == [1.0, 2.0, 4.0]
        assert list(fit_low.lhs) == [4.0, 8.0, 16.0]

    def test_regime_guard(self):
        cfg = self.small_config(min_separation=4.0, fixed_scale=2.0)
        with pytest.raises(ValueError, match="regime"):
            bilinear_ratio(cfg)

    def test_zero_input_rejected(self, monkeypatch):
        # band noise past the grid's band is zero, and so is every band once
        # the annulus multiplier is zeroed: refused before any cell
        cfg = self.small_config()
        with pytest.raises(ValueError, match="zero field"):
            datagen.scale_family("band_noise", 32.0, cfg.seed, cfg.cube, cfg.grid())
        monkeypatch.setattr(datagen, "dyadic_multiplier", lambda g, b: np.zeros(g.shape))
        monkeypatch.setattr(est, "free_flow_lp_norms", pytest.fail)
        monkeypatch.setattr(est, "modulation_norm", pytest.fail)
        with pytest.raises(ValueError, match="zero field"):
            bilinear_ratio(cfg)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="d in"):
            bilinear_ratio(self.small_config(d=1, n=64))

    def test_d4_cell_runs_on_tiny_grid(self):
        # the d = 4 machinery stays exercised at demo scale: one measured
        # cell, no sweep
        from modlab.modspace import ModNormSpec, band_box, modulation_norm

        cfg = ExperimentConfig(
            d=4, n=16, length=2 * np.pi, cube=4.0, scales=(2.0,),
            fixed_scale=1.0, family="band_noise", time_nodes=17, seed=3,
        )
        grid, window, spec = cfg.grid(), cfg.window(), ModNormSpec(0.0, 4.0, 2.0)
        f1 = datagen.scale_family("band_noise", 2.0, 3, cfg.cube, grid)
        f2 = datagen.scale_family("band_noise", 1.0, 4, cfg.cube, grid)
        boxes = {f1: band_box(grid, 2.0), f2: band_box(grid, 1.0)}
        [lhs] = est.free_flow_lp_norms([(f1, f2)], cfg.horizon, cfg.time_nodes, 2.0, boxes)
        rhs = modulation_norm(f1, spec, window) * modulation_norm(f2, spec, window)
        assert lhs > 0 and rhs > 0 and np.isfinite(lhs / rhs)

    def test_galilean_pair_invariance(self):
        # translating both spectra by a common lattice vector moves the
        # measured ratio by round-off only: on the 2x zero-padded grid of
        # the oracle, and on the smallest exact grid (10 points per axis)
        # with each field's band box moved along, where it also agrees with
        # the padded grid
        from modlab.grid import Trajectory
        from modlab.modspace import ModNormSpec, band_box, make_window, modulation_norm
        from modlab.propagator import free_flow_lp_norms, galilean_shift
        from tests.oracles import scanned_piece_norm

        grid = make_grid(3, 16, 2 * np.pi)
        window = make_window(grid, 4.0)
        spec = ModNormSpec(0, 4, 2)
        f1 = datagen.scale_family("band_noise", 2.0, 5, 4.0, grid)
        f2 = datagen.scale_family("band_noise", 1.0, 6, 4.0, grid)
        boxes = {f1: band_box(grid, 2.0), f2: band_box(grid, 1.0)}

        def ratio(a, b, boxes=None):
            if boxes is None:
                paths = [Trajectory(grid, [0.0], f.values[None]) for f in (a, b)]
                lhs = scanned_piece_norm(paths, 1.0, 33, 2.0, pad=2)
            else:
                lhs = free_flow_lp_norms([[a, b]], 1.0, 33, 2.0, boxes)[0]
            return lhs / (
                modulation_norm(a, spec, window) * modulation_norm(b, spec, window)
            )

        shift = 4  # one cube over: xi0 = (4, 0, 0) at dxi = 1
        g1, g2 = (galilean_shift(f, [shift * grid.dxi, 0.0, 0.0]) for f in (f1, f2))
        for f, g in ((f1, g1), (f2, g2)):
            (lo, hi), *rest = boxes[f]
            boxes[g] = ((lo + shift, hi + shift), *rest)
        assert boxes[g1] == ((1, 7), (-3, 3), (-3, 3))
        r0, r1 = ratio(f1, f2), ratio(g1, g2)
        assert abs(r1 - r0) <= 1e-8 * r0
        b0, b1 = ratio(f1, f2, boxes), ratio(g1, g2, boxes)
        assert abs(b1 - b0) <= 1e-13 * b0
        assert abs(b0 - r0) <= 1e-13 * r0


class TestV2Bilinear:
    def test_free_trajectories_match_bilinear(self):
        cfg = ExperimentConfig(
            d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0, 2.0, 4.0),
            fixed_scale=4.0, family="band_noise", time_nodes=65,
            min_separation=1.0, seed=4, atoms=1,
        )
        fit = v2_bilinear_ratio(cfg)
        bi_high, bi_low = bilinear_ratio(
            ExperimentConfig(
                d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0, 2.0, 4.0),
                fixed_scale=1.0, family="band_noise", time_nodes=65,
                min_separation=1.0, seed=4,
            ),
        )
        # adapted V^2 of a free trajectory equals its single terminal jump,
        # so the measured cells agree with the plain bilinear ones
        for a, b in zip(fit.ratios, bi_low.ratios):
            assert 0.5 <= a / b <= 2.0

    def test_two_atoms_bounded_by_triangle(self):
        base = dict(
            d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0, 2.0, 4.0),
            fixed_scale=4.0, family="band_noise", time_nodes=65,
            min_separation=1.0, seed=4,
        )
        two = v2_bilinear_ratio(ExperimentConfig(**base, atoms=2))
        assert two.passed

    @pytest.mark.parametrize("atoms", [1, 3])
    def test_atomic_path_is_a_profile_step_path(self, atoms):
        # one profile per atom on linspace(0, horizon, atoms + 1), the last
        # repeated at the horizon so that even one atom has two nodes
        cfg = ExperimentConfig(d=3, n=16, length=2 * np.pi, horizon=0.5, atoms=atoms)
        grid = cfg.grid()
        path = est._atomic_path(cfg, grid, 2.0, 4)
        assert np.array_equal(path.times, np.linspace(0.0, 0.5, atoms + 1))
        for j in range(atoms):
            profile = datagen.scale_family("band_noise", 2.0, 4 + 101 * j, cfg.cube, grid)
            assert np.array_equal(path.values[j], profile.values)
        assert np.array_equal(path.values[-1], path.values[-2])

    def test_zero_piece_rejected(self, monkeypatch):
        cfg = ExperimentConfig(
            d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0, 2.0, 4.0),
            fixed_scale=4.0, time_nodes=65, min_separation=1.0, atoms=1,
        )
        with pytest.raises(ValueError, match="zero field"):
            datagen.scale_family("band_noise", 32.0, cfg.seed + 7, cfg.cube, cfg.grid())
        monkeypatch.setattr(datagen, "dyadic_multiplier", lambda g, b: np.zeros(g.shape))
        monkeypatch.setattr(est, "free_flow_lp_norms", pytest.fail)
        with pytest.raises(ValueError, match="zero field"):
            v2_bilinear_ratio(cfg)

    def test_scale_count_checked_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(datagen, "scale_family", pytest.fail)
        monkeypatch.setattr(est, "free_flow_lp_norms", pytest.fail)
        cfg = ExperimentConfig(
            d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0,),
            fixed_scale=4.0, time_nodes=65, min_separation=1.0, atoms=1,
        )
        with pytest.raises(est.InvalidScales, match="at least 3 scales for a fit, got 1"):
            v2_bilinear_ratio(cfg)


class TestDecoupling:
    def test_single_cap_profile_ratio_is_one(self):
        for R in (16.0, 64.0):
            cfg = ExperimentConfig(d=1, scales=(R,), p=6.0, profile="single_cap")
            value, cap_sq, _ = est._decoupling_cell(cfg, R, R**-0.5)
            assert value == pytest.approx(np.sqrt(cap_sq), rel=1e-12)

    @pytest.mark.parametrize("profile", ["constant", "bump"])
    def test_d2_cell_matches_direct_quadrature(self, monkeypatch, profile):
        # every norm the cell gets from the ball quadrature (the full mesh,
        # then one per cap) against direct extension sums on the masked ball
        calls = []
        ball_norms = est.extension_ball_norms

        def spy(*args):
            calls.append((args, ball_norms(*args)))
            return calls[-1][1]

        monkeypatch.setattr(est, "extension_ball_norms", spy)
        cfg = ExperimentConfig(d=2, scales=(4.0,), p=4.0, mesh=12, profile=profile)
        value, cap_sq, caps_measured = est._decoupling_cell(cfg, 4.0, 0.5)
        ((profile_, pts, w, R, p, spu, cuts), norms) = calls[0]
        # 16 caps of width 0.5 cut the cap-sorted mesh into contiguous runs
        assert len(cuts) == 1 + 16 and cuts[0] == 0 and cuts[-1] == len(pts)
        assert np.all(np.diff(cuts) > 0) and len(norms) == len(cuts)
        caps = np.floor((pts + 1.0) / 0.5)
        runs = list(zip(cuts[:-1], cuts[1:]))
        assert all((caps[a:b] == caps[a]).all() for a, b in runs)
        assert len({tuple(caps[a]) for a, _ in runs}) == 16 == caps_measured
        for (a, b), norm in zip([(0, len(pts)), *runs], norms):
            direct = direct_ball_norm(profile_[a:b], pts[a:b], w, R, p, spu)
            assert norm == pytest.approx(direct, rel=1e-12)
        assert value == norms[0]
        assert cap_sq == pytest.approx(np.sum(norms[1:] ** 2), rel=1e-14)

    @pytest.mark.parametrize("R", [16.0, 64.0])
    def test_single_cap_whole_mesh_is_its_cap_bit_for_bit(self, monkeypatch, R):
        # Ef is the sum of the cap blocks, and every cap but the first holds
        # an exact zero profile, so the whole mesh's norm is that cap's
        calls = []
        ball_norms = est.extension_ball_norms

        def spy(*args):
            calls.append(ball_norms(*args))
            return calls[-1]

        monkeypatch.setattr(est, "extension_ball_norms", spy)
        cfg = ExperimentConfig(d=1, scales=(R,), p=6.0, profile="single_cap")
        est._decoupling_cell(cfg, R, R**-0.5)
        [norms] = calls
        assert norms[1] > 0 and np.all(norms[2:] == 0.0)
        assert norms[0] == norms[1]

    def test_d1_p6_constant_profile(self):
        cfg = ExperimentConfig(
            d=1, scales=(16.0, 64.0, 256.0), p=6.0, profile="constant", margin=0.2
        )
        fit = decoupling_ratio(cfg)
        assert fit.predicted == 0.0
        assert fit.slope <= 0.2
        assert fit.passed

    def test_d1_p10_constant_profile(self):
        cfg = ExperimentConfig(
            d=1, scales=(16.0, 64.0, 256.0), p=10.0, profile="constant", margin=0.2
        )
        fit = decoupling_ratio(cfg)
        assert fit.predicted == pytest.approx(0.1)
        assert fit.passed

    def test_d2_small_sweep(self):
        cfg = ExperimentConfig(
            d=2, scales=(4.0, 8.0, 16.0), p=4.0, profile="constant", margin=0.2
        )
        fit = decoupling_ratio(cfg)
        assert fit.passed

    def test_too_few_caps_rejected(self):
        cfg = ExperimentConfig(d=1, scales=(2.0, 4.0, 8.0), p=6.0)
        with pytest.raises(ValueError, match="caps"):
            decoupling_ratio(cfg)

    def test_caps_checked_before_any_cell(self, monkeypatch):
        # the smallest scale has the fewest caps, wherever it sits in the list
        monkeypatch.setattr(est, "extension_ball_norms", pytest.fail)
        cfg = ExperimentConfig(d=1, scales=(64.0, 16.0, 2.0), p=6.0)
        with pytest.raises(ValueError, match="R=2.0 yields fewer than 4 caps"):
            decoupling_ratio(cfg)

    def test_d2_reports_the_caps_it_measured(self):
        # (2/width)^2 counts 32 and 64 cubes at R = 8 and 16, but the
        # 12-point mesh of the unit disc falls in 28 and 54 of them, and only
        # those are measured
        from modlab.propagator import unit_ball_mesh

        cfg = ExperimentConfig(d=2, scales=(4.0, 8.0, 16.0), p=4.0, mesh=12)
        points, _ = unit_ball_mesh(2, 12)
        occupied = [
            len(np.unique(np.floor((points + 1.0) / R**-0.5), axis=0)) for R in cfg.scales
        ]
        assert occupied == [16, 28, 54]
        assert decoupling_ratio(cfg).meta["caps"] == occupied

    def test_scale_count_checked_before_any_cell(self, monkeypatch):
        monkeypatch.setattr(est, "extension_ball_norms", pytest.fail)
        cfg = ExperimentConfig(d=2, scales=(16.0,), p=4.0, mesh=12)
        with pytest.raises(est.InvalidScales, match="at least 3 scales for a fit, got 1"):
            decoupling_ratio(cfg)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="d in"):
            decoupling_ratio(ExperimentConfig(d=3, scales=(16.0,)))
