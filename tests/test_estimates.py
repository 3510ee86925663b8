import numpy as np
import pytest

import modlab.estimates as est
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
from modlab.grid import Field, make_grid
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
        cfg = ExperimentConfig(
            d=1, n=256, length=8 * np.pi, scales=(2.0, 4.0, 8.0), family="focusing"
        )
        grid = cfg.grid()
        monkeypatch.setattr(
            est, "scale_family", lambda c, s, g: Field.zero(grid)
        )
        with pytest.raises(ValueError, match="zero field"):
            smoothing_ratio(cfg)

    def test_unknown_family_rejected(self):
        cfg = ExperimentConfig(scales=(2.0, 4.0, 8.0), family="nope", n=512)
        with pytest.raises(ValueError, match="family"):
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
        from modlab.estimates import scale_family
        from modlab.modspace import ModNormSpec, modulation_norm
        from modlab.propagator import free_flow_lp_norms

        ratios = []
        for N in cfg.scales:
            u0 = scale_family(cfg, N, grid)
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
        from modlab.estimates import scale_family
        from modlab.modspace import ModNormSpec, modulation_norm
        from modlab.propagator import free_flow_lp_norms

        ratios = []
        for N in cfg.scales:
            u0 = scale_family(cfg, N, grid)
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
        # float.hex of the sweep and the chain log as the per-cell kernel
        # measured them, one product per call; the sweep kernel must give
        # the same bits
        fit_high, fit_low = bilinear_ratio(self.small_config())
        chain = fit_low.meta["chain"]
        assert [v.hex() for v in fit_high.lhs] == [
            "0x1.2e59a54d9f580p+0", "0x1.a6dc1bd9aaf6dp+1", "0x1.385e1fddd4064p+3",
        ]
        assert [v.hex() for v in fit_low.rhs] == [
            "0x1.ae46809f6e0fap+3", "0x1.48a75d6415245p+5", "0x1.d93901fd44333p+6",
        ]
        assert chain["lhs_sq"].hex() == "0x1.7d273b9110146p+6"
        assert chain["sampled_product_sq_sum"].hex() == "0x1.7f6f503be5646p-1"

    def test_pairs_checked_before_any_cell(self, monkeypatch):
        # a regime violation in the last high pair, too few scales for the
        # high fit, or too few low scales is reported before a single cell
        # is measured
        monkeypatch.setattr(est, "_bilinear_cells", pytest.fail)
        cfg = self.small_config(scales=(4.0, 2.0, 1.0), min_separation=2.0)
        with pytest.raises(ValueError, match="regime violated: N2=1.0 > N1/2.0=1.0"):
            bilinear_ratio(cfg, log_chain=False)
        cfg = self.small_config(scales=(2.0, 4.0, 4.0), min_separation=2.0)
        with pytest.raises(est.InvalidScales, match="fewer than 3 admissible"):
            bilinear_ratio(cfg, log_chain=False)
        with pytest.raises(est.InvalidScales, match="at least 3 scales for a fit, got 2"):
            bilinear_ratio(self.small_config(scales=(1.0, 2.0)), log_chain=False)

    def test_one_field_and_norm_per_distinct_band(self, monkeypatch):
        # 5 cells over 3 high and 3 low fields: each field is built once, takes
        # one M_{4,2} norm, and is the same object in every product it enters
        built, normed, sweeps = [], [], []

        def spy(name, record):
            real = getattr(est, name)

            def wrapper(*args, **kwargs):
                record(args)
                return real(*args, **kwargs)

            monkeypatch.setattr(est, name, wrapper)

        spy("_band_noise", lambda args: built.append(args[1:]))
        spy("modulation_norm", lambda args: normed.append(args[0]))
        spy("free_flow_lp_norms", lambda args: sweeps.append(args[0]))
        bilinear_ratio(self.small_config(), log_chain=False)
        assert len(built) == len(set(built)) == 6
        assert len(normed) == len({id(f) for f in normed}) == 6
        [products] = sweeps
        assert len(products) == 5
        assert products[1][1] is products[0][1] and products[3][0] is products[2][0]

    def test_high_frequency_slope_flat(self):
        fit_high, _ = bilinear_ratio(self.small_config(), log_chain=False)
        assert abs(fit_high.slope) <= 0.15

    def test_shared_cell_measured_once(self, monkeypatch):
        # both sweeps use the cell (max scale, fixed scale) = (4, 1)
        calls = []

        def cells(config, grid, window, pairs):
            calls.extend(pairs)
            return [(n_high * n_low, 1.0) for n_high, n_low in pairs]

        monkeypatch.setattr(est, "_bilinear_cells", cells)
        fit_high, fit_low = bilinear_ratio(self.small_config(), log_chain=False)
        assert len(calls) == len(set(calls)) == 5
        assert list(fit_high.lhs) == [1.0, 2.0, 4.0]
        assert list(fit_low.lhs) == [4.0, 8.0, 16.0]

    def test_regime_guard(self):
        cfg = self.small_config(min_separation=4.0, fixed_scale=2.0)
        with pytest.raises(ValueError, match="regime"):
            bilinear_ratio(cfg, log_chain=False)

    def test_zero_input_rejected(self, monkeypatch):
        cfg = self.small_config()
        grid = cfg.grid()
        monkeypatch.setattr(est, "_band_noise", lambda g, b, s: Field.zero(grid))
        with pytest.raises(ValueError, match="zero field"):
            bilinear_ratio(cfg, log_chain=False)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="d in"):
            bilinear_ratio(self.small_config(d=1, n=64), log_chain=False)

    def test_d4_cell_runs_on_tiny_grid(self):
        # the d = 4 machinery stays exercised at demo scale: one measured
        # cell, no sweep
        from modlab.estimates import _bilinear_cells

        cfg = ExperimentConfig(
            d=4, n=16, length=2 * np.pi, cube=4.0, scales=(2.0,),
            fixed_scale=1.0, family="band_noise", time_nodes=17, seed=3,
        )
        [(lhs, rhs)] = _bilinear_cells(cfg, cfg.grid(), cfg.window(), [(2.0, 1.0)])
        assert lhs > 0 and rhs > 0 and np.isfinite(lhs / rhs)

    def test_galilean_pair_invariance(self):
        # translating both spectra by a common lattice vector moves the
        # measured ratio by round-off only
        from modlab.estimates import _band_noise
        from modlab.modspace import ModNormSpec, make_window, modulation_norm
        from modlab.propagator import free_flow_lp_norms, galilean_shift

        grid = make_grid(3, 16, 2 * np.pi)
        window = make_window(grid, 4.0)
        spec = ModNormSpec(0, 4, 2)
        f1 = _band_noise(grid, 2.0, 5)
        f2 = _band_noise(grid, 1.0, 6)

        def ratio(a, b):
            lhs = free_flow_lp_norms([[a, b]], 1.0, 33, 2.0, pad=2)[0]
            return lhs / (
                modulation_norm(a, spec, window) * modulation_norm(b, spec, window)
            )

        xi0 = [4.0, 0.0, 0.0]  # one cube over
        r0 = ratio(f1, f2)
        r1 = ratio(galilean_shift(f1, xi0), galilean_shift(f2, xi0))
        assert abs(r1 - r0) <= 1e-8 * r0


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
            log_chain=False,
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
            profile = est._band_noise(grid, 2.0, 4 + 101 * j)
            assert np.array_equal(path.values[j], profile.values)
        assert np.array_equal(path.values[-1], path.values[-2])

    def test_zero_piece_rejected(self, monkeypatch):
        cfg = ExperimentConfig(
            d=3, n=16, length=2 * np.pi, cube=4.0, scales=(1.0,),
            fixed_scale=4.0, time_nodes=65, min_separation=1.0, atoms=1,
        )
        grid = cfg.grid()
        monkeypatch.setattr(est, "_band_noise", lambda g, b, s: Field.zero(grid))
        with pytest.raises(ValueError, match="zero path"):
            v2_bilinear_ratio(cfg)


class TestDecoupling:
    def test_single_cap_profile_ratio_is_one(self):
        for R in (16.0, 64.0):
            cfg = ExperimentConfig(d=1, scales=(R,), p=6.0, profile="single_cap")
            value, cap_sq = est._decoupling_cell(cfg, R, R**-0.5)
            assert value == pytest.approx(np.sqrt(cap_sq), rel=1e-12)

    @pytest.mark.parametrize("profile", ["constant", "bump"])
    def test_d2_cell_matches_direct_quadrature(self, monkeypatch, profile):
        # every slice the cell hands to the ball quadrature (the full mesh,
        # then one per cap) against direct extension sums on the masked ball
        calls = []
        ball_norms = est.extension_ball_norms

        def spy(*args):
            calls.append((args, ball_norms(*args)))
            return calls[-1][1]

        monkeypatch.setattr(est, "extension_ball_norms", spy)
        cfg = ExperimentConfig(d=2, scales=(4.0,), p=4.0, mesh=12, profile=profile)
        value, cap_sq = est._decoupling_cell(cfg, 4.0, 0.5)
        ((profile_, pts, w, R, p, spu, slices), norms) = calls[0]
        # slice 0 is the whole mesh, then one slice per cap of width 0.5
        assert len(slices) == 1 + 16 and slices[0] == (0, len(pts))
        cuts = [a for a, _ in slices[1:]] + [len(pts)]
        assert cuts[0] == 0 and slices[1:] == list(zip(cuts[:-1], cuts[1:]))
        caps = np.floor((pts + 1.0) / 0.5)
        assert all((caps[a:b] == caps[a]).all() for a, b in slices[1:])
        assert len({tuple(caps[a]) for a, _ in slices[1:]}) == 16
        for (a, b), norm in zip(slices, norms):
            direct = direct_ball_norm(profile_[a:b], pts[a:b], w, R, p, spu)
            assert norm == pytest.approx(direct, rel=1e-12)
        assert value == norms[0]
        assert cap_sq == pytest.approx(np.sum(norms[1:] ** 2), rel=1e-14)

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
        cfg = ExperimentConfig(d=1, scales=(2.0,), p=6.0)
        with pytest.raises(ValueError, match="caps"):
            decoupling_ratio(cfg)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="d in"):
            decoupling_ratio(ExperimentConfig(d=3, scales=(16.0,)))
