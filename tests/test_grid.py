import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlab.grid import (
    Field,
    SpectralField,
    Trajectory,
    fourier_multiply,
    inverse,
    inverse_pruned,
    lp_norm,
    make_grid,
    spacetime_lp_norm,
    to_spectrum,
    trapezoid,
)
from tests.conftest import complex_noise, gaussian_field


class TestMakeGrid:
    def test_derived_quantities(self):
        g = make_grid(1, 256, 64 * np.pi)
        assert g.h == pytest.approx(64 * np.pi / 256)
        assert g.dxi == pytest.approx(1 / 32)
        assert g.xi_max == pytest.approx(np.pi * 256 / (64 * np.pi))

    def test_point_count_3d(self):
        g = make_grid(3, 32, 16 * np.pi)
        assert g.size == 32768

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            make_grid(1, 100, 10.0)

    @pytest.mark.parametrize("d", [0, 5])
    def test_rejects_bad_dimension(self, d):
        with pytest.raises(ValueError, match="dimension"):
            make_grid(d, 64, 10.0)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError, match="positive"):
            make_grid(1, 64, 0.0)

    @pytest.mark.parametrize("length", [np.inf, np.nan])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(ValueError, match="period length"):
            make_grid(1, 64, length)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            make_grid(1, 4, 10.0)


class TestTransforms:
    def test_delta_has_flat_spectrum(self, grid1d):
        vals = np.zeros(grid1d.shape, dtype=complex)
        vals[grid1d.n // 2] = 1.0  # the sample at x = 0
        F = to_spectrum(Field(grid1d, vals))
        mags = np.abs(F.coefficients)
        assert np.allclose(mags, mags.flat[0])

    def test_lattice_tone_is_single_coefficient(self, grid1d):
        x = grid1d.axis_coords()
        xi0 = 16 * grid1d.dxi
        F = to_spectrum(Field(grid1d, np.exp(1j * xi0 * x)))
        coeffs = F.coefficients.copy()
        peak = coeffs[16]
        coeffs[16] = 0.0
        assert abs(peak - grid1d.length / np.sqrt(2 * np.pi)) < 1e-9 * abs(peak)
        assert np.max(np.abs(coeffs)) < 1e-12 * abs(peak)

    def test_gaussian_spectrum_closed_form(self, wide1d):
        f = gaussian_field(wide1d)
        F = to_spectrum(f)
        xi = wide1d.axis_freqs()
        exact = np.exp(-(xi**2) / 2)
        err = np.linalg.norm(F.coefficients - exact) / np.linalg.norm(exact)
        assert err <= 1e-8

    @pytest.mark.parametrize("d,n", [(1, 256), (2, 32), (3, 16)])
    def test_roundtrip(self, d, n):
        g = make_grid(d, n, 8 * np.pi)
        for seed in range(100):
            f = complex_noise(g, seed)
            back = Field(g, inverse(g, to_spectrum(f).coefficients))
            rel = np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values))
            assert rel <= 1e-12

    @pytest.mark.parametrize("d,n", [(1, 256), (2, 32), (3, 16)])
    def test_parseval(self, d, n):
        g = make_grid(d, n, 8 * np.pi)
        for seed in range(10):
            f = complex_noise(g, seed + 100)
            F = to_spectrum(f)
            phys = lp_norm(f, 2) ** 2
            freq = g.dxi**d * np.sum(np.abs(F.coefficients) ** 2)
            assert abs(phys - freq) <= 1e-10 * phys

    @pytest.mark.parametrize("pad", [1, 2, 4])
    @pytest.mark.parametrize("d,n", [(1, 64), (2, 16), (3, 16)])
    def test_pruned_inverse_is_inverse_of_embedded(self, d, n, pad):
        # a batch of three spectra of the n-point lattice embedded in the
        # pad * n one; the second has whole lines of zeros inside the block
        # and at its band edge, the third an all-zero leading slab
        fine = make_grid(d, pad * n, 8 * np.pi)
        modes = (np.fft.fftfreq(n) * n).astype(int) % fine.n
        rng = np.random.default_rng(10 * d + pad)
        shape = (3,) + (n,) * d
        coarse = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        coarse[1, ..., 3] = 0.0
        coarse[1, ..., n // 2] = 0.0
        coarse[2, : n // 4] = 0.0
        embedded = np.zeros((3, *fine.shape), dtype=np.complex128)
        embedded[(slice(None), *np.ix_(*[modes] * d))] = coarse
        assert np.array_equal(inverse_pruned(fine, coarse, modes), inverse(fine, embedded))

    def test_pruned_inverse_prunes_by_index(self, monkeypatch):
        # the same 1-d transforms run whatever the values: a spectrum with
        # zero lines takes exactly the work of a full one, and each axis
        # transforms only the lines the axes already done can have filled
        fine = make_grid(3, 32, 8 * np.pi)
        modes = (np.fft.fftfreq(16) * 16).astype(int) % 32
        sizes = []
        ifft = np.fft.ifft

        def counted(a, axis):
            sizes.append(a.shape)
            return ifft(a, axis=axis)

        monkeypatch.setattr(np.fft, "ifft", counted)
        rng = np.random.default_rng(0)
        full = rng.standard_normal((16, 16, 16)) + 0j
        sparse = full.copy()
        sparse[:, :, 1:] = 0.0
        for coarse in (full, sparse, np.zeros_like(full)):
            inverse_pruned(fine, coarse, modes)
        assert sizes == [(16, 16, 32), (16, 32, 32), (32, 32, 32)] * 3

    def test_shape_mismatch_rejected(self, grid1d):
        other = make_grid(1, 512, 64 * np.pi)
        f = complex_noise(other, 0)
        with pytest.raises(ValueError, match="match"):
            Field(grid1d, f.values)

    def test_nonfinite_rejected(self, grid1d):
        vals = np.zeros(grid1d.shape, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            Field(grid1d, vals)

    @pytest.mark.parametrize("kind", [Field, SpectralField])
    def test_compared_by_identity(self, grid1d, kind):
        # array members make value equality ambiguous; equality is identity
        zeros = kind(grid1d, np.zeros(grid1d.shape))
        ones = kind(grid1d, np.ones(grid1d.shape))
        same = kind(grid1d, np.zeros(grid1d.shape))
        assert (zeros == ones) is False and (zeros == same) is False
        assert zeros == zeros and zeros != ones
        assert len({zeros, ones, zeros}) == 2


class TestLpNorm:
    def test_constant_field(self):
        g = make_grid(2, 16, 4.0)
        c = 2.0 - 1.0j
        f = Field(g, np.full(g.shape, c))
        vol = g.volume
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(abs(c) * vol ** (1 / p))
        assert lp_norm(f, np.inf) == pytest.approx(abs(c))

    def test_half_indicator(self):
        g = make_grid(1, 64, 10.0)
        vals = np.zeros(g.shape, dtype=complex)
        vals[: g.n // 2] = 1.0
        assert lp_norm(Field(g, vals), 2) == pytest.approx(np.sqrt(g.volume / 2))

    def test_gaussian_l4_closed_form(self, wide1d):
        f = gaussian_field(wide1d)
        assert abs(lp_norm(f, 4) - (np.pi / 2) ** 0.125) <= 1e-6

    def test_p_below_one_rejected(self, grid1d):
        with pytest.raises(ValueError):
            lp_norm(gaussian_field(grid1d), 0.5)

    @given(scale=st.floats(0.01, 100.0), seed=st.integers(0, 50))
    @settings(max_examples=25, deadline=None)
    def test_absolute_homogeneity(self, scale, seed):
        g = make_grid(1, 32, 5.0)
        f = complex_noise(g, seed)
        for p in (1.0, 2.0, 3.0, np.inf):
            assert lp_norm(scale * f, p) == pytest.approx(
                scale * lp_norm(f, p), rel=1e-12
            )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        g = make_grid(1, 32, 5.0)
        f = complex_noise(g, seed)
        h = complex_noise(g, seed + 1000)
        for p in (1.0, 2.0, 4.0, np.inf):
            assert lp_norm(f + h, p) <= lp_norm(f, p) + lp_norm(h, p) + 1e-12


class TestSpacetime:
    def test_constant_trajectory(self):
        g = make_grid(1, 64, 8.0)
        c = 1.5 + 0.5j
        f = Field(g, np.full(g.shape, c))
        ts = np.linspace(0.0, 2.0, 9)
        for p in (2.0, 6.0):
            expect = abs(c) * g.volume ** (1 / p) * 2.0 ** (1 / p)
            path = Trajectory(g, ts, np.stack([f.values] * len(ts)))
            assert spacetime_lp_norm(path, p) == pytest.approx(expect)

    def test_sup_norm(self):
        g = make_grid(1, 64, 8.0)
        small = Field(g, np.full(g.shape, 0.1 + 0j))
        big = Field(g, np.full(g.shape, 3.0 + 0j))
        path = Trajectory(g, [0.0, 1.0], np.stack([small.values, big.values]))
        val = spacetime_lp_norm(path, np.inf)
        assert val == pytest.approx(3.0)

    def test_decreasing_nodes_rejected(self):
        g = make_grid(1, 64, 8.0)
        with pytest.raises(ValueError, match="increasing"):
            Trajectory(g, [1.0, 0.5], np.zeros((2, *g.shape)))

    def test_is_the_nodewise_formula(self):
        # exact: Picard residuals are reported to the last bit, and a
        # vectorized power differs from the scalar one on a few nodes
        g = make_grid(1, 8, 1.0)
        for seed in range(0, 200, 2):
            values = np.stack([complex_noise(g, seed).values, complex_noise(g, seed + 1).values])
            path = Trajectory(g, [0.0, 0.7], values)
            for p in (3.0, 6.0):
                powers = np.array([lp_norm(f, p) ** p for _, f in path])
                expect = trapezoid(powers, path.times) ** (1.0 / p)
                assert spacetime_lp_norm(path, p) == expect

    def test_trapezoid_linear_exact(self):
        nodes = np.array([0.0, 0.5, 2.0])
        assert trapezoid(3.0 * nodes, nodes) == pytest.approx(6.0)

    @pytest.mark.parametrize(
        "nodes",
        [[0.0, np.nan, 1.0], [0.0, 0.5, np.nan], [0.0, 0.5, np.inf], [-np.inf, 0.0, 1.0]],
        ids=["nan_inside", "nan_last", "inf_last", "minus_inf_first"],
    )
    def test_trapezoid_rejects_nonfinite_nodes(self, nodes):
        # nan steps compare False both ways, and an infinite end node makes
        # an infinite but positive step: neither may pass as increasing
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            trapezoid(np.ones(3), nodes)


class TestTrajectory:
    def make(self, grid, m=5, seed=0):
        values = np.stack([complex_noise(grid, seed + j).values for j in range(m)])
        return Trajectory(grid, np.linspace(0.0, 1.0, m), values)

    def test_shape_mismatch_rejected(self, grid3d):
        with pytest.raises(ValueError, match="do not match"):
            Trajectory(grid3d, [0.0, 1.0], np.zeros((3, *grid3d.shape)))
        with pytest.raises(ValueError, match="do not match"):
            Trajectory(grid3d, [0.0, 1.0], np.zeros((2, 16, 16)))
        with pytest.raises(ValueError, match="do not match"):
            Trajectory(grid3d, [[0.0, 1.0]], np.zeros((2, *grid3d.shape)))

    @pytest.mark.parametrize(
        "times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0]], ids=["repeat", "decrease"]
    )
    def test_non_increasing_times_rejected(self, grid1d, times):
        with pytest.raises(ValueError, match="strictly increasing"):
            Trajectory(grid1d, times, np.zeros((3, *grid1d.shape)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1j * np.inf])
    def test_nonfinite_sample_rejected(self, grid1d, bad):
        values = np.zeros((3, *grid1d.shape), dtype=complex)
        values[2, 17] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(grid1d, [0.0, 0.5, 1.0], values)

    def test_read_only(self, grid1d):
        path = self.make(grid1d)
        with pytest.raises(ValueError):
            path.values[0, 0] = 1.0
        with pytest.raises(ValueError):
            path.times[0] = -1.0

    def test_times_are_copied(self, grid1d):
        ts = np.array([0.0, 1.0])
        path = Trajectory(grid1d, ts, np.zeros((2, *grid1d.shape)))
        ts[1] = 0.0
        assert path.times[1] == 1.0

    def test_index_gives_time_and_field(self, grid3d):
        path = self.make(grid3d, m=4)
        assert len(path) == 4
        for j in (0, 2, -1):
            t, f = path[j]
            assert isinstance(t, float) and t == path.times[j]
            assert isinstance(f, Field) and f.grid == grid3d
            assert np.array_equal(f.values, path.values[j])
        assert [t for t, _ in path] == list(path.times)

    def test_node_index(self, grid1d):
        path = self.make(grid1d)
        assert path.node_index(0.75) == 3
        with pytest.raises(ValueError, match="node"):
            path.node_index(0.7)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 6.0, np.inf])
    def test_lp_norms_are_the_scalar_quadrature(self, p):
        # exact: a vectorized final power differs from the scalar one in the
        # last bit on a few percent of nodes, which would move reported norms
        grid = make_grid(1, 8, 1.0)
        path = self.make(grid, m=200)
        norms = path.lp_norms(p)
        for j, (_, f) in enumerate(path):
            a = np.abs(f.values)
            expect = a.max() if np.isinf(p) else (grid.cell * np.sum(a**p)) ** (1.0 / p)
            assert norms[j] == expect == lp_norm(f, p)

    def test_fourier_multiply_is_nodewise(self, grid3d):
        # the batched transform pair acts on each node exactly as on a field
        path = self.make(grid3d)
        mult = np.exp(-0.3j * grid3d.freq_sq())
        out = fourier_multiply(path, mult)
        assert isinstance(out, Trajectory) and np.array_equal(out.times, path.times)
        for j, (_, f) in enumerate(path):
            expect = Field(grid3d, inverse(grid3d, mult * to_spectrum(f).coefficients))
            assert np.array_equal(out.values[j], expect.values)
