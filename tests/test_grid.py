import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlab.grid import (
    Field,
    Grid,
    SpectralField,
    Trajectory,
    abs_power,
    fourier_multiply,
    inverse,
    inverse_pruned,
    lp_norm,
    make_grid,
    spacetime_lp_norm,
    to_spectrum,
    trapezoid,
    two_thread_map,
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
        assert np.array_equal(inverse_pruned(fine, coarse, [modes] * d), inverse(fine, embedded))

    @pytest.mark.parametrize("d,size", [(1, 6), (2, 18), (3, 10), (3, 30)])
    def test_pruned_inverse_embeds_signed_modes(self, d, size):
        # a block of signed modes per axis, some past size / 2 and so not
        # increasing once embedded at m mod size, on an even length that is
        # not a power of two: the result is ``inverse`` of the embedded
        # spectrum, bit for bit, and the trigonometric polynomial itself
        grid = Grid(d, size, 7.3)
        modes = [range(-size // 2 - 1, -1), range(2, size // 2 + 3), range(-1, 3)][:d]
        rng = np.random.default_rng(size)
        shape = tuple(len(m) for m in modes)
        block = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        embedded = np.zeros(grid.shape, dtype=np.complex128)
        embedded[np.ix_(*[np.array(m) % size for m in modes])] = block
        out = inverse_pruned(grid, block, modes)
        assert np.array_equal(out, inverse(grid, embedded))
        waves = [
            np.exp(1j * grid.dxi * np.outer(np.array(m), grid.axis_coords())) for m in modes
        ]
        poly = block
        for wave in waves:  # contracts the leading mode axis, appends x last
            poly = np.tensordot(poly, wave, axes=([0], [0]))
        poly *= grid.dxi**d * (2 * np.pi) ** (-d / 2)
        assert np.max(np.abs(out - poly)) <= 1e-13 * np.max(np.abs(poly))

    def test_pruned_inverse_needs_an_even_length_and_distinct_slots(self):
        block = np.ones(3, dtype=np.complex128)
        with pytest.raises(ValueError, match="even grid length"):
            inverse_pruned(Grid(1, 9, 7.3), block, [range(3)])
        with pytest.raises(ValueError, match="collide"):
            inverse_pruned(Grid(1, 8, 7.3), block, [[-1, 0, 7]])

    def test_pruned_inverse_prunes_by_index(self, monkeypatch):
        # the same 1-d transforms run whatever the values: a spectrum with
        # zero lines takes exactly the work of a full one, and each axis
        # transforms only the lines the axes already done can have filled
        fine = make_grid(3, 32, 8 * np.pi)
        modes = (np.fft.fftfreq(16) * 16).astype(int) % 32
        sizes = []
        ifft = np.fft.ifft

        def counted(a, axis, out=None):
            sizes.append(a.shape)
            return ifft(a, axis=axis, out=out)

        monkeypatch.setattr(np.fft, "ifft", counted)
        rng = np.random.default_rng(0)
        full = rng.standard_normal((16, 16, 16)) + 0j
        sparse = full.copy()
        sparse[:, :, 1:] = 0.0
        for coarse in (full, sparse, np.zeros_like(full)):
            inverse_pruned(fine, coarse, [modes] * 3)
        assert sizes == [(16, 16, 32), (16, 32, 32), (32, 32, 32)] * 3

    def test_pruned_inverse_peak_memory(self):
        # 16^3 modes into 32^3: the last axis holds the 32^3 embed, which it
        # transforms in place, and the 16 x 32^2 array of the axes before
        # it, 0.75 MiB in all; a separate 32^3 result would make it 1 MiB
        fine = make_grid(3, 32, 8 * np.pi)
        modes = (np.fft.fftfreq(16) * 16).astype(int) % 32
        coarse = np.random.default_rng(0).standard_normal((16, 16, 16)) + 0j
        inverse_pruned(fine, coarse, [modes] * 3)  # the cached twist of these modes is built
        tracemalloc.start()
        try:
            out = inverse_pruned(fine, coarse, [modes] * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 2**19
        assert peak <= 1.1 * 0.75 * 2**20

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
        vol = g.length**g.d
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(f, p) == pytest.approx(abs(c) * vol ** (1 / p))

    def test_half_indicator(self):
        g = make_grid(1, 64, 10.0)
        vals = np.zeros(g.shape, dtype=complex)
        vals[: g.n // 2] = 1.0
        assert lp_norm(Field(g, vals), 2) == pytest.approx(np.sqrt(g.length**g.d / 2))

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
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(scale * f, p) == pytest.approx(
                scale * lp_norm(f, p), rel=1e-12
            )

    @given(seed=st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_triangle_inequality(self, seed):
        g = make_grid(1, 32, 5.0)
        f = complex_noise(g, seed)
        h = complex_noise(g, seed + 1000)
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(f + h, p) <= lp_norm(f, p) + lp_norm(h, p) + 1e-12


class TestAbsPower:
    # magnitudes over 2^-40..2^40, well inside the float range at p = 14
    z = complex_noise(make_grid(1, 4096, 1.0), 0).values * np.exp2(
        np.linspace(-40.0, 40.0, 4096)
    )

    @pytest.mark.parametrize("scale", [1.0, 3.7])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 5.0, 1.5, 2.5])
    def test_np_power_bits_for_p_2_odd_and_non_integer(self, p, scale):
        expect = np.power(np.abs(self.z) * scale, p)
        assert np.array_equal(abs_power(self.z, p, scale), expect)

    @pytest.mark.parametrize("scale", [1.0, 3.7])
    @pytest.mark.parametrize("p", [4.0, 6.0, 8.0, 10.0, 14.0])
    def test_even_p_within_p_ulps(self, p, scale):
        # k = p/2 of 2 and 4 squares in place, 3, 5 and 7 keep a second array
        expect = np.power(np.abs(self.z) * scale, p)
        ulps = np.abs(abs_power(self.z, p, scale) - expect) / np.spacing(expect)
        assert ulps.max() <= p

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
    def test_new_float_array_input_untouched(self, p):
        z = self.z.copy()
        z.flags.writeable = False
        out = abs_power(z, p, 3.7)
        assert np.array_equal(z, self.z)
        assert out.dtype == np.float64 and out.shape == z.shape
        assert not np.shares_memory(out, z)


class TestSpacetime:
    def test_constant_trajectory(self):
        g = make_grid(1, 64, 8.0)
        c = 1.5 + 0.5j
        f = Field(g, np.full(g.shape, c))
        ts = np.linspace(0.0, 2.0, 9)
        for p in (2.0, 6.0):
            expect = abs(c) * (g.length**g.d) ** (1 / p) * 2.0 ** (1 / p)
            path = Trajectory(g, ts, np.stack([f.values] * len(ts)))
            assert spacetime_lp_norm(path, p) == pytest.approx(expect)

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
        "times",
        [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan], [0.0, np.inf], [np.nan]],
        ids=["repeat", "decrease", "nan", "inf", "lone_nan"],
    )
    def test_non_increasing_times_rejected(self, grid1d, times):
        # a nan step compares False both ways, so "strictly increasing"
        # includes "finite"
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            Trajectory(grid1d, times, np.zeros((len(times), *grid1d.shape)))

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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 6.0])
    def test_lp_norms_are_the_scalar_quadrature(self, p):
        # exact: a vectorized final power differs from the scalar one in the
        # last bit on a few percent of nodes, which would move reported norms
        grid = make_grid(1, 8, 1.0)
        path = self.make(grid, m=200)
        norms = path.lp_norms(p)
        for j, (_, f) in enumerate(path):
            expect = (grid.cell * np.sum(abs_power(f.values, p))) ** (1.0 / p)
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


class TestTwoThreadMap:
    """The caller takes the even items and a helper thread the odd ones; the
    results must come back in item order, and what the helper raised, or the
    caller's errstate it ran under, must reach the caller."""

    @pytest.mark.parametrize("count", [0, 1, 2, 17])
    def test_results_come_back_in_item_order(self, count):
        import threading

        threads = {}

        def work(i):
            threads[i] = threading.get_ident()
            return i * i

        assert two_thread_map(work, count) == [i * i for i in range(count)]
        caller = threading.get_ident()
        assert all((threads[i] == caller) == (i % 2 == 0) for i in range(count))
        assert len({threads[i] for i in range(1, count, 2)}) == (count > 1)

    def test_an_odd_item_failure_is_raised_by_the_caller(self, monkeypatch):
        import threading

        def fail_at_item_1(i):
            if i == 1:
                raise RuntimeError("item 1 failed")
            return i

        unhandled = []
        monkeypatch.setattr(threading, "excepthook", unhandled.append)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="item 1 failed"):
            two_thread_map(fail_at_item_1, 17)
        assert unhandled == [] and threading.active_count() == before

    def test_the_callers_errstate_holds_in_the_helper(self):
        # 1e300^2 overflows at item 1 only, on the helper; the caller's
        # errstate must silence it there, and without it the warning, raised
        # as an error, reaches the caller
        import warnings

        def square(i):
            return float(np.square(np.float64(1e300 if i == 1 else 2.0)))

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore"):
                assert two_thread_map(square, 3) == [4.0, np.inf, 4.0]
            with pytest.raises(RuntimeWarning, match="overflow"):
                two_thread_map(square, 3)
