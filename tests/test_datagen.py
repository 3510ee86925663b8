import hashlib

import numpy as np
import pytest

from modlab.datagen import (
    boundary_decay,
    load_field,
    mollified_indicator,
    norm_report,
    random_field,
    save_field,
    scale_family,
)
from modlab.estimates import fit_exponent
from modlab.grid import lp_norm, make_grid, to_spectrum
from modlab.modspace import ModNormSpec, make_window, modulation_norm


class TestMollifiedIndicator:
    def setup_method(self):
        self.grid = make_grid(1, 512, 64.0)
        self.window = make_window(self.grid)

    def test_l4_normalization(self):
        f = mollified_indicator(4.0, self.grid)
        report = norm_report(f, self.window)
        assert report["l4"] == pytest.approx(1.0, rel=1e-12)
        assert lp_norm(f, 4) == pytest.approx(1.0, rel=1e-12)

    def test_bounded_modulation_family(self):
        norms = [
            norm_report(mollified_indicator(nr, self.grid), self.window)["m_norm"]
            for nr in (2.0, 4.0, 8.0, 16.0)
        ]
        assert max(norms) / min(norms) <= 2.0

    def test_h1_growth_exponent(self):
        radii = (2.0, 4.0, 8.0, 16.0)
        h1s = [norm_report(mollified_indicator(nr, self.grid), self.window)["h1"] for nr in radii]
        slope, _, _ = fit_exponent(radii, h1s)
        assert abs(slope - 0.25) <= 0.1

    def test_too_large_ball_rejected(self):
        with pytest.raises(ValueError, match="fit"):
            mollified_indicator(31.0, self.grid)

    def test_boundary_decay_clean(self):
        f = mollified_indicator(4.0, self.grid)
        assert boundary_decay(f) <= 1e-10
        report = norm_report(f, self.window)
        assert report["boundary_decay"] == boundary_decay(f)
        assert report["boundary_flagged"] is False


class TestRandomPhase:
    def setup_method(self):
        self.grid = make_grid(1, 256, 8 * np.pi)

    def test_seed_determinism(self):
        a = scale_family("random_phase", 4.0, 7, 1.0, self.grid)
        b = scale_family("random_phase", 4.0, 7, 1.0, self.grid)
        ha = hashlib.sha256(a.values.tobytes()).hexdigest()
        hb = hashlib.sha256(b.values.tobytes()).hexdigest()
        assert ha == hb
        c = scale_family("random_phase", 4.0, 8, 1.0, self.grid)
        assert hashlib.sha256(c.values.tobytes()).hexdigest() != ha

    def test_plancherel(self):
        w = make_window(self.grid)
        f = scale_family("random_phase", 4.0, 3, 1.0, self.grid)
        m = modulation_norm(f, ModNormSpec(0, 2, 2), w)
        assert m == pytest.approx(lp_norm(f, 2), rel=1e-10)

    def test_support_exactly_in_ball(self):
        N = 4.0
        f = scale_family("random_phase", N, 5, 1.0, self.grid)
        F = to_spectrum(f).coefficients
        outside = np.abs(self.grid.axis_freqs()) > N
        peak = np.max(np.abs(F))
        assert np.max(np.abs(F[outside])) <= 1e-13 * peak
        inside = np.abs(self.grid.axis_freqs()) <= N
        assert np.min(np.abs(F[inside])) > 0.99  # unit-modulus phases


class TestFocusing:
    def test_peak_value_at_origin(self):
        g = make_grid(2, 64, 8 * np.pi)
        N = 2.0
        f = scale_family("focusing", N, 0, 1.0, g)
        F = to_spectrum(f).coefficients
        count = int(np.sum(np.abs(F) > 0.5))
        expect = g.dxi**2 * count * (2 * np.pi) ** -1.0
        center = tuple(np.argmin(np.abs(ax + g.length / 2)) for ax in [g.axis_coords()] * 2)
        origin_index = tuple(np.argmin(np.abs(g.axis_coords())) for _ in range(2))
        assert f.values[origin_index] == pytest.approx(expect, rel=1e-12)

    def test_single_cube_at_unit_scale(self):
        g = make_grid(1, 256, 8 * np.pi)
        f = scale_family("focusing", 1.0, 0, 1.0, g)
        F = to_spectrum(f).coefficients
        peak = np.max(np.abs(F))
        assert np.max(np.abs(F[np.abs(g.axis_freqs()) > 1.0])) <= 1e-13 * peak

    def test_band_guard(self):
        g = make_grid(1, 256, 8 * np.pi)
        with pytest.raises(ValueError, match="xi_max"):
            scale_family("focusing", g.xi_max, 0, 1.0, g)

    def test_m42_scaling_matches_cube_count(self):
        g = make_grid(1, 2048, 8 * np.pi)
        w = make_window(g)
        spec = ModNormSpec(0.0, 4.0, 2.0)
        scales = (4.0, 8.0, 16.0, 32.0)
        norms = [modulation_norm(scale_family("focusing", N, 0, 1.0, g), spec, w) for N in scales]
        slope, _, _ = fit_exponent(scales, norms)
        # cube-counting: ~ (2N)^{1/2} times a fixed per-cube norm in d = 1
        assert abs(slope - 0.5) <= 0.1


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        g = make_grid(2, 16, 4 * np.pi)
        f = random_field(g, 123)
        path = tmp_path / "field.bin"
        save_field(f, path)
        back = load_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_header_layout(self, tmp_path):
        g = make_grid(1, 8, 2.5)
        f = random_field(g, 0)
        path = tmp_path / "field.bin"
        save_field(f, path)
        raw = path.read_bytes()
        import struct

        d, n, length = struct.unpack_from("<iid", raw)
        assert (d, n, length) == (1, 8, 2.5)
        assert len(raw) == 16 + 16 * 8

    def test_truncated_file_rejected(self, tmp_path):
        g = make_grid(1, 8, 2.5)
        save_field(random_field(g, 0), tmp_path / "f.bin")
        data = (tmp_path / "f.bin").read_bytes()
        (tmp_path / "bad.bin").write_bytes(data[:-8])
        with pytest.raises(ValueError, match="bytes"):
            load_field(tmp_path / "bad.bin")
