import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from modlab.grid import (
    Field,
    Trajectory,
    inverse,
    inverse_pruned,
    lp_norm,
    make_grid,
    to_spectrum,
    trapezoid,
)
from modlab.modspace import ModNormSpec, make_window, modulation_norm
from modlab.propagator import (
    duhamel_path,
    extension_ball_norms,
    free_evolve,
    free_flow_lp_norms,
    galilean_shift,
    gradient_sq_integral,
    mass,
    unit_ball_mesh,
)
from tests.conftest import complex_noise, direct_ball_norm, gaussian_field
from tests.oracles import duhamel, energy, extension_values, scanned_piece_norm


class TestFreeEvolve:
    def test_t_zero_is_identity(self, grid1d):
        f = complex_noise(grid1d, 0)
        assert free_evolve(f, 0.0) is f

    def test_unitary(self, grid1d):
        f = complex_noise(grid1d, 1)
        for t in (0.1, 1.0, 5.0):
            assert abs(lp_norm(free_evolve(f, t), 2) - lp_norm(f, 2)) <= 1e-12 * lp_norm(
                f, 2
            )

    def test_group_law(self, grid1d):
        f = complex_noise(grid1d, 2)
        a = free_evolve(free_evolve(f, 0.3), 0.2)
        b = free_evolve(f, 0.5)
        assert np.max(np.abs(a.values - b.values)) <= 1e-12 * np.max(np.abs(b.values))

    def test_gaussian_closed_form(self, wide1d):
        f = gaussian_field(wide1d)
        t = 0.5
        u = free_evolve(f, t)
        x = wide1d.axis_coords()
        exact = (1 + 2j * t) ** -0.5 * np.exp(-(x**2) / (2 * (1 + 2j * t)))
        err = np.linalg.norm(u.values - exact) / np.linalg.norm(exact)
        assert err <= 1e-8

    def test_mass_conserved(self, grid3d):
        f = complex_noise(grid3d, 3)
        assert abs(mass(free_evolve(f, 0.7)) - mass(f)) <= 1e-12 * mass(f)

    def test_modulation_quasi_invariance(self, wide1d):
        w = make_window(wide1d)
        f = gaussian_field(wide1d)
        spec = ModNormSpec(0.0, 4.0, 2.0)
        base = modulation_norm(f, spec, w)
        cs = [modulation_norm(free_evolve(f, t), spec, w) / base for t in (0.25, 0.5, 1.0)]
        assert max(cs) < 4.0  # recorded growth constant stays bounded on [0,1]
        # p = q = 2 is exactly invariant
        spec2 = ModNormSpec(0.0, 2.0, 2.0)
        m0 = modulation_norm(f, spec2, w)
        m1 = modulation_norm(free_evolve(f, 1.0), spec2, w)
        assert abs(m1 - m0) <= 1e-10 * m0


def step_path(times, fields):
    return Trajectory(fields[0].grid, times, np.stack([f.values for f in fields]))


class TestFreeFlowNorm:
    def test_repeated_piece_equals_one_piece(self, grid3d):
        f = complex_noise(grid3d, 4)
        g = complex_noise(grid3d, 5)
        one = free_flow_lp_norms([[f, g]], 1.0, 9, 2.0)[0]
        split = step_path((0.0, 0.3, 0.5), (f, f, f))
        two = free_flow_lp_norms([[split, g]], 1.0, 9, 2.0)[0]
        assert two == pytest.approx(one, rel=1e-13)

    def test_piece_j_used_on_half_open_interval(self, grid1d):
        # cuts at a node (0.5) and between nodes (0.3): on [t_k, t_{k+1})
        # each factor is the free flow of its profile k
        f, g, h = (complex_noise(grid1d, s) for s in (6, 7, 8))
        ts = np.linspace(0.0, 1.0, 9)
        powers = []
        for t in ts:
            u = free_evolve(f if t < 0.5 else g, t).values
            v = free_evolve(h if t < 0.3 else f, t).values
            powers.append(grid1d.cell * np.sum(np.abs(u * v) ** 3))
        expect = trapezoid(np.array(powers), ts) ** (1.0 / 3.0)
        factors = [step_path((0.0, 0.5), (f, g)), step_path((0.0, 0.3), (h, f))]
        value = free_flow_lp_norms([factors], 1.0, 9, 3.0)[0]
        assert value == pytest.approx(expect, rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bitwise_equal_to_scanned_pieces(self, d, seed):
        # random cut times, some on a sample node (multiples of 1/8), and a
        # factor whose last profile repeats at the horizon, which must read
        # the same bits as the same path without that node.  Unboxed, a
        # product runs on the n-point grid; every factor boxed with the
        # whole band, k factors at p = 2 run on k n points, the oracle's pad k
        grid = make_grid(d, 8, 2 * np.pi)
        rng = np.random.default_rng(seed)
        f, g, h = (complex_noise(grid, 10 * seed + j) for j in range(3))
        between = np.sort(rng.uniform(0.05, 0.95, 2))
        on_node = rng.integers(1, 8) / 8
        paths = [step_path((0.0, *between), (f, g, h)), step_path((0.0, on_node), (h, f))]
        repeated = step_path((0.0, 0.5, 1.0), (f, g, g))
        trimmed = step_path((0.0, 0.5), (f, g))
        plain = step_path((0.0,), (f,))
        for factors, reference in [
            ([*paths, f], [*paths, plain]),
            ([repeated, paths[0]], [trimmed, paths[0]]),
        ]:
            value = free_flow_lp_norms([factors], 1.0, 9, 2.0)[0]
            assert value == scanned_piece_norm(reference, 1.0, 9, 2.0)
            boxes = dict.fromkeys(factors, ((-4, 3),) * d)
            value = free_flow_lp_norms([factors], 1.0, 9, 2.0, boxes)[0]
            padded = scanned_piece_norm(reference, 1.0, 9, 2.0, pad=len(factors))
            if len(factors) == 2:
                assert value == padded  # 2n points: the n grid's |xi|^2 is 2n's
            else:  # on 3n points the oracle's |xi|^2 may differ in the last bit
                assert value == pytest.approx(padded, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "d, n, length",
        [(3, 32, 4 * np.pi), (3, 16, 2 * np.pi), (3, 16, 8 * np.pi), (1, 2048, 8 * np.pi),
         (1, 256, 16 * np.pi), (2, 16, 7.3)],
    )
    def test_phase_modes_carry_the_2n_grids_frequencies(self, d, n, length):
        # make_grid keeps n a power of two, so L/(2n) is L/n halved exactly:
        # the n grid's |xi|^2, which the kernel's phase reads on any grid
        # size, is the 2n grid's at every embedded mode, bit for bit
        g = make_grid(d, n, length)
        fine = make_grid(d, 2 * n, length)
        modes = np.ix_(*[(np.fft.fftfreq(n) * n).astype(int) % (2 * n)] * d)
        assert np.array_equal(g.freq_sq(), fine.freq_sq()[modes])

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"p": -np.inf}, "p must be >= 1"),
            ({"m": 0}, "m must be an integer >= 2"),
            ({"horizon": -np.inf}, "horizon must be finite and positive"),
            ({"p": 0.5}, "p must be >= 1"),
            ({"p": np.nan}, "p must be >= 1"),
            ({"p": np.inf}, "finite"),
            # nan and inf nodes used to pass the trapezoid rule and return nan
            ({"horizon": np.nan}, "horizon must be finite and positive"),
            ({"horizon": np.inf}, "horizon must be finite and positive"),
            ({"horizon": 0.0}, "horizon must be finite and positive"),
            ({"horizon": -1.0}, "horizon must be finite and positive"),
            ({"m": 1}, "m must be an integer >= 2"),
            ({"m": 2.5}, "m must be an integer >= 2"),
            ({"m": 9.0}, "m must be an integer >= 2"),
        ],
    )
    def test_bad_arguments_rejected(self, grid1d, kwargs, match):
        args = {"horizon": 1.0, "m": 9, "p": 2.0, **kwargs}
        with pytest.raises(ValueError, match=match):
            free_flow_lp_norms([[complex_noise(grid1d, 1)]], **args)

    def test_empty_product_rejected(self, grid1d):
        f = complex_noise(grid1d, 1)
        with pytest.raises(ValueError, match=r"products\[1\] holds no factors"):
            free_flow_lp_norms([[f], [], [f]], 1.0, 9, 2.0)

    def test_no_factors_rejected(self):
        with pytest.raises(ValueError, match="factors"):
            free_flow_lp_norms([], 1.0, 9, 2.0)

    def test_factors_on_different_grids_rejected(self, grid1d):
        other = make_grid(1, 256, 32 * np.pi)
        with pytest.raises(ValueError, match="different grids"):
            free_flow_lp_norms([[complex_noise(grid1d, 1), complex_noise(other, 2)]], 1.0, 9, 2.0)

    def test_path_starting_after_zero_rejected(self, grid1d):
        late = step_path((0.1, 0.5), (complex_noise(grid1d, 1), complex_noise(grid1d, 2)))
        with pytest.raises(ValueError, match="t = 0"):
            free_flow_lp_norms([[complex_noise(grid1d, 3), late]], 1.0, 9, 2.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sweep_is_each_product_alone_bitwise(self, d):
        # Fields and a step Trajectory, the shared factor f first and last,
        # a repeated factor, and a copy of f that is another object
        grid = make_grid(d, 8, 2 * np.pi)
        f, g, h = (complex_noise(grid, 40 + j) for j in range(3))
        path = step_path((0.0, 0.3, 0.625), (g, h, f))
        twin = Field(grid, f.values.copy())
        products = [[f, g], [path, f], [f], [h, path, f], [path], [g, g], [twin, h]]
        for p in (2.0, 3.0):
            sweep = free_flow_lp_norms(products, 1.0, 9, p)
            alone = [free_flow_lp_norms([product], 1.0, 9, p)[0] for product in products]
            assert [v.hex() for v in sweep.tolist()] == [v.hex() for v in alone]

    def test_each_distinct_factor_transformed_once_per_node(self, monkeypatch):
        # distinct means the same object: an equal copy is transformed again
        import modlab.propagator as prop

        calls = []

        def spy(*args):
            calls.append(args[0])
            return inverse_pruned(*args)

        monkeypatch.setattr(prop, "inverse_pruned", spy)
        grid = make_grid(2, 8, 2 * np.pi)
        f, g = complex_noise(grid, 1), complex_noise(grid, 2)
        twin = Field(grid, f.values.copy())
        path = step_path((0.0, 0.5), (g, f))
        products = [[f, g], [g, f], [twin, g], [path, f], [f], [f, f]]
        free_flow_lp_norms(products, 1.0, 9, 2.0)
        assert len(calls) == 4 * 9  # f, g, twin and path at each of 9 nodes

    def test_bilinear_sweep_peaks_like_one_cell(self):
        # the five cells of the bilinear sweep, three high and three low
        # fields, in the order the sweep measures them, each boxed with the
        # whole band so that every cell runs on 2n points: the sweep keeps
        # at most two such flows live, as one cell does, and holds each of
        # its six distinct spectra (one cell: two) through the whole sweep
        import tracemalloc

        grid = make_grid(3, 16, 2 * np.pi)
        h1, h2, h4, l1, l2, l4 = (complex_noise(grid, j) for j in range(6))
        cells = [[h1, l1], [h2, l1], [h4, l1], [h4, l2], [h4, l4]]
        boxes = dict.fromkeys((h1, h2, h4, l1, l2, l4), ((-8, 7),) * 3)
        spectrum = grid.size * np.dtype(np.complex128).itemsize

        def peak(products):
            tracemalloc.start()
            try:
                free_flow_lp_norms(products, 1.0, 3, 2.0, boxes)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(cells)  # fill the grids' caches, which no later call grows
        one, five = peak(cells[:1]), peak(cells)
        assert five <= 1.10 * one + 4 * spectrum


def boxed_noise(grid, box, seed):
    """A field whose spectrum is random on the signed modes of ``box`` and 0 elsewhere."""
    rng = np.random.default_rng(seed)
    signed = (np.fft.fftfreq(grid.n) * grid.n).astype(int)
    inside = np.ones(grid.shape, dtype=bool)
    for axis, (lo, hi) in enumerate(box):
        inside &= ((signed >= lo) & (signed <= hi)).reshape(grid._axis_shape(axis))
    F = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return Field(grid, inverse(grid, inside * F))


def record_sizes(monkeypatch):
    """(grid length, modes) of every pruned inverse the kernel takes, in order."""
    import modlab.propagator as prop

    calls = []

    def spy(grid, coefficients, modes):
        calls.append((grid.n, modes))
        return inverse_pruned(grid, coefficients, modes)

    monkeypatch.setattr(prop, "inverse_pruned", spy)
    return calls


class TestBoxedProducts:
    # off-centre boxes, some reaching the band edge, on d = 1 and d = 3
    BOXES = {
        1: (((5, 20),), ((-30, -12),), ((-3, 4),)),
        2: (((2, 6), (-7, -3)), ((-5, -2), (0, 4)), ((-8, -6), (5, 7))),
        3: (
            ((2, 6), (-7, -3), (-1, 2)),
            ((-5, -2), (0, 4), (3, 7)),
            ((-8, -6), (5, 7), (-2, 0)),
        ),
    }
    GRIDS = {1: (1, 64, 8 * np.pi), 2: (2, 16, 2 * np.pi), 3: (3, 16, 2 * np.pi)}

    def factors(self, d):
        grid = make_grid(*self.GRIDS[d])
        a, b, c = self.BOXES[d]
        f = boxed_noise(grid, a, 1)
        path = step_path((0.0, 0.4), (boxed_noise(grid, b, 2), boxed_noise(grid, b, 3)))
        g = boxed_noise(grid, c, 4)
        return [[f, path], [path, g], [f], [g, f, g]], {f: a, path: b, g: c}

    @pytest.mark.parametrize("p", [2.0, 4.0])
    @pytest.mark.parametrize("d", [1, 3])
    def test_box_path_agrees_with_padded_path(self, monkeypatch, d, p):
        # both quadratures are exact, so they agree to round-off; every
        # product takes a grid smaller than the oracle's padded one
        products, boxes = self.factors(d)
        calls = record_sizes(monkeypatch)
        boxed = free_flow_lp_norms(products, 1.0, 9, p, boxes)
        assert max(size for size, _ in calls) < 2 * products[0][0].grid.n
        paths = [[f if isinstance(f, Trajectory) else step_path((0.0,), (f,)) for f in product]
                 for product in products]
        padded = np.array([scanned_piece_norm(path, 1.0, 9, p, pad=2) for path in paths])
        assert np.max(np.abs(boxed - padded) / padded) <= 1e-13

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sweep_is_each_product_alone_bitwise(self, d):
        # boxed and unboxed factors, the same factor at several sizes
        products, boxes = self.factors(d)
        f, path = products[0]
        bare = complex_noise(f.grid, 5)
        products += [[bare, f], [f, f], [path]]
        for p in (2.0, 3.0, 4.0):
            sweep = free_flow_lp_norms(products, 1.0, 9, p, boxes)
            alone = [free_flow_lp_norms([product], 1.0, 9, p, boxes)[0] for product in products]
            assert [v.hex() for v in sweep.tolist()] == [v.hex() for v in alone]

    def test_each_distinct_factor_and_size_transformed_once_per_node(self, monkeypatch):
        # sizes 6, 16, 16, 6 and 4: f enters at 6, 16 and 4, g at 6 and 16,
        # h at 16
        grid = make_grid(2, 16, 2 * np.pi)
        boxes = [((-1, 1),) * 2, ((0, 3),) * 2, ((-6, 6),) * 2]
        f, g, h = (boxed_noise(grid, box, j) for j, box in enumerate(boxes))
        calls = record_sizes(monkeypatch)
        products = [[f, g], [f, h], [g, h], [f, g], [f]]
        free_flow_lp_norms(products, 1.0, 9, 2.0, dict(zip((f, g, h), boxes)))
        per_node = calls[: len(calls) // 9]
        assert [size for size, _ in per_node] == [6, 6, 16, 16, 16, 4]
        assert calls == per_node * 9

    def test_size_rule_follows_p_and_the_boxes(self, monkeypatch):
        # an even p with every factor boxed: the smallest even 5-smooth M
        # >= W, also beyond n; any other product: the n-point grid.  A
        # boxed factor keeps its box's modes on either
        grid = make_grid(3, 16, 2 * np.pi)
        small, wide = ((-1, 1),) * 3, ((-7, 7),) * 3
        f, g = boxed_noise(grid, small, 1), boxed_noise(grid, wide, 2)
        bare = complex_noise(grid, 3)
        boxes = {f: small, g: wide}
        calls = record_sizes(monkeypatch)

        def sizes(products, p):
            calls.clear()
            free_flow_lp_norms(products, 1.0, 2, p, boxes)
            return [size for size, _ in calls[: len(calls) // 2]]

        assert sizes([[f, g]], 2.0) == [18, 18]  # W = 2 + 14 + 1 = 17 > 16
        assert sizes([[g, g]], 4.0) == [60]  # W = 2 * 28 + 1 = 57
        assert sizes([[f, g]], 3.0) == [16, 16]  # odd p
        assert sizes([[f]], 2.5) == [16]  # non-integer p / 2
        assert sizes([[f, bare]], 2.0) == [16, 16]  # a factor without a box
        full = tuple((np.fft.fftfreq(16) * 16).astype(int).tolist())
        assert [modes for _, modes in calls[:2]] == [(tuple(range(-1, 2)),) * 3, (full,) * 3]
        assert sizes([[f, f]], 4.0) == [10]  # W = 2 * 4 + 1 = 9
        # the product of W = 57 > n on 60 points against the oracle on 64
        value = free_flow_lp_norms([[g, g]], 1.0, 3, 4.0, boxes)[0]
        path = step_path((0.0,), (g,))
        assert value == pytest.approx(
            scanned_piece_norm([path, path], 1.0, 3, 4.0, pad=4), rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize(
        "box",
        [((-1, 1),) * 2, ((-1, 1),) * 3 + ((0, 0),), ((2, 1),) * 3, ((-9, 0),) * 3,
         ((0, 8),) * 3],
    )
    def test_bad_box_rejected(self, box):
        grid = make_grid(3, 16, 2 * np.pi)
        f = complex_noise(grid, 1)
        with pytest.raises(ValueError, match="a box is one"):
            free_flow_lp_norms([[f]], 1.0, 9, 2.0, boxes={f: box})


class TestGalilean:
    def test_zero_shift_identity(self, grid1d):
        f = complex_noise(grid1d, 4)
        out = galilean_shift(f, [0.0])
        assert np.allclose(out.values, f.values)

    def test_modulus_preserved(self, grid1d):
        f = complex_noise(grid1d, 5)
        out = galilean_shift(f, [2.0])
        assert np.max(np.abs(np.abs(out.values) - np.abs(f.values))) <= 1e-14

    def test_spectrum_translates_exactly(self, grid1d):
        f = complex_noise(grid1d, 6)
        shift_cells = 64
        xi0 = shift_cells * grid1d.dxi
        S0 = to_spectrum(f).coefficients
        S1 = to_spectrum(galilean_shift(f, [xi0])).coefficients
        assert np.max(np.abs(S1 - np.roll(S0, shift_cells))) <= 1e-12 * np.max(np.abs(S0))

    def test_off_lattice_rejected(self, grid1d):
        with pytest.raises(ValueError, match="lattice"):
            galilean_shift(complex_noise(grid1d, 7), [grid1d.dxi * 0.5])

    def test_composition_identity_on_lattice_shift(self, wide1d):
        # exp(itL)(e^{ix xi0} f) = e^{i(x xi0 - t xi0^2)} (exp(itL) f)(x - 2 t xi0)
        g = wide1d
        f = gaussian_field(g)
        xi0 = 2.0
        t = np.pi / 16  # 2 t xi0 = pi/4 = 4 cells of h = pi/16
        cells = 2 * t * xi0 / g.h
        assert abs(cells - round(cells)) < 1e-12
        lhs = free_evolve(galilean_shift(f, [xi0]), t)
        ut = free_evolve(f, t)
        x = g.axis_coords()
        rhs = np.exp(1j * (x * xi0 - t * xi0**2)) * np.roll(ut.values, int(round(cells)))
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-10


def constant_path(ts, f):
    return Trajectory(f.grid, ts, np.stack([f.values] * len(ts)))


class TestDuhamel:
    def test_zero_forcing(self, grid1d):
        zero = Field(grid1d, np.zeros(grid1d.shape, complex))
        forcing = constant_path(np.linspace(0, 1, 17), zero)
        out = duhamel(forcing, 1.0)
        assert lp_norm(out, 2) == 0.0

    def test_at_first_node(self, grid1d):
        forcing = constant_path(np.linspace(0, 1, 17), complex_noise(grid1d, 8))
        assert lp_norm(duhamel(forcing, 0.0), 2) == 0.0

    def test_off_node_rejected(self, grid1d):
        zero = Field(grid1d, np.zeros(grid1d.shape, complex))
        forcing = constant_path(np.linspace(0, 1, 17), zero)
        with pytest.raises(ValueError, match="node"):
            duhamel(forcing, 0.123)

    def test_single_mode_closed_form_second_order(self, grid1d):
        x = grid1d.axis_coords()
        mode = Field(grid1d, np.exp(1j * x))
        omega = 1.0
        exact = (np.exp(-1j * omega) - 1.0) / (-1j * omega)

        def error(m):
            ts = np.linspace(0, 1, m)
            out = duhamel(constant_path(ts, mode), 1.0)
            return np.max(np.abs(out.values - exact * mode.values))

        e_coarse, e_fine = error(129), error(257)
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.05)

    def test_path_matches_pointwise(self, grid1d):
        ts = np.linspace(0, 0.5, 9)
        values = np.stack([complex_noise(grid1d, 20 + j).values for j in range(len(ts))])
        forcing = Trajectory(grid1d, ts, values)
        path = duhamel_path(forcing)
        assert np.array_equal(path.times, ts)
        for t, acc in list(path)[1:]:
            direct = duhamel(forcing, t)
            assert np.max(np.abs(acc.values - direct.values)) <= 1e-12

    @pytest.mark.parametrize(
        "grid", [make_grid(1, 256, 64 * np.pi), make_grid(3, 16, 8 * np.pi)], ids=["d1", "d3"]
    )
    @pytest.mark.parametrize("nodes", ["random", "linspace"])
    def test_path_is_the_free_evolve_recurrence(self, grid, nodes):
        # exact, not to round-off: the summation order of the sweep is what
        # the solver's recorded contraction factors depend on; uniform nodes
        # repeat a few dt values, whose flows the sweep builds once
        if nodes == "random":
            rng = np.random.default_rng(5)
            ts = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.05, 8))])
        else:
            ts = np.linspace(0.0, 0.3, 17)
            assert len(set(np.diff(ts))) < len(ts) - 1
        fields = [complex_noise(grid, 40 + j) for j in range(len(ts))]
        path = duhamel_path(Trajectory(grid, ts, np.stack([f.values for f in fields])))
        acc = Field(grid, np.zeros(grid.shape, complex))
        assert np.array_equal(path.values[0], acc.values)
        for j in range(1, len(ts)):
            dt = ts[j] - ts[j - 1]
            step = 0.5 * dt * (free_evolve(fields[j - 1], dt) + fields[j])
            acc = free_evolve(acc, dt) + step
            assert np.array_equal(path.values[j], acc.values)


class TestExtension:
    def test_constant_profile_at_origin(self):
        pts, w = unit_ball_mesh(1, 200)
        vals = extension_values(np.ones(len(pts)), pts, w, [0.0], np.array([[0.0]]))
        assert vals[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_single_wave_constant_modulus(self):
        pts, w = unit_ball_mesh(1, 128)
        profile = np.zeros(len(pts))
        profile[17] = 1.0
        ts = np.linspace(-2, 2, 5)
        xs = np.linspace(-3, 3, 7)[:, None]
        vals = extension_values(profile, pts, w, ts, xs)
        assert np.max(np.abs(np.abs(vals) - np.abs(vals[0, 0]))) <= 1e-13

    def test_parseval_at_time_zero(self):
        # integrate |Ef(0,x)|^2 over one aliasing period of the quadrature:
        # the discrete sum is a trigonometric identity, exact to round-off
        m = 64
        pts, w = unit_ball_mesh(1, m)
        profile = np.cos(2.1 * pts[:, 0]) + 0.3
        period = 2 * np.pi / w
        nx = 512
        dx = period / nx
        xs = (-period / 2 + dx * np.arange(nx))[:, None]
        vals = extension_values(profile, pts, w, [0.0], xs)[0]
        lhs = dx * np.sum(np.abs(vals) ** 2)
        rhs = 2 * np.pi * w * np.sum(np.abs(profile) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_dimension_guard(self):
        with pytest.raises(ValueError, match="d in"):
            unit_ball_mesh(3, 16)

    def test_ball_norm_matches_direct_quadrature(self):
        R, spu = 4.0, 2.0
        pts, w = unit_ball_mesh(1, 48)
        profile = np.ones(len(pts))
        norm, _ = extension_ball_norms(profile, pts, w, R, 4.0, spu, [0, len(pts)])
        m = int(np.ceil(2 * R * spu))
        step = 2 * R / m
        axis = -R + step * (np.arange(m) + 0.5)
        vals = extension_values(profile, pts, w, axis, axis[:, None])
        tt, xx = np.meshgrid(axis, axis, indexing="ij")
        inside = tt**2 + xx**2 <= R**2
        direct = (step**2 * np.sum(np.abs(vals[inside]) ** 4)) ** 0.25
        assert norm == pytest.approx(direct, rel=1e-12)

        # d = 2: a non-symmetric profile, so each block's plane waves must
        # pair every mesh point with its own coordinates on both axes
        pts, w = unit_ball_mesh(2, 12)
        profile = np.cos(2.0 * pts[:, 0]) + 0.5j * pts[:, 1] + 0.3
        norm, _ = extension_ball_norms(profile, pts, w, R, 4.0, spu, [0, len(pts)])
        assert norm == pytest.approx(
            direct_ball_norm(profile, pts, w, R, 4.0, spu), rel=1e-12
        )

    @pytest.mark.parametrize("budget", ["one row", "mid-range"])
    @pytest.mark.parametrize("d, mesh, R, spu", [(1, 48, 6.0, 2.0), (2, 12, 4.0, 1.5)])
    def test_ball_norms_in_blocks_match_direct(self, monkeypatch, d, mesh, R, spu, budget):
        # the row budget splits the ball's shadow into single points, or into
        # blocks whose last one is partial; the whole mesh and each of three
        # caps must match the per-row oracle on f 1_S.  The profile is
        # complex and has no symmetry, so t -> -t changes every norm.
        from modlab import propagator

        pts, w = unit_ball_mesh(d, mesh)
        profile = np.cos(2.0 * pts[:, 0] + 0.4) + 0.5j * pts[:, -1] ** 3 + 0.3
        m = int(np.ceil(2 * R * spu))
        axis = -R + 2 * R / m * (np.arange(m) + 0.5)
        r_sq = np.add.reduce(np.meshgrid(*[axis**2] * d, indexing="ij"))
        shadow = int(np.count_nonzero(r_sq <= R**2))
        rows = 1 if budget == "one row" else shadow // 3 + 1
        assert shadow > 2 * rows  # three blocks or more, the last one short
        monkeypatch.setattr(propagator, "_CHUNK_ROWS", rows)
        n = len(pts)
        cuts = [0, n // 5, n // 2, n]
        norms = propagator.extension_ball_norms(profile, pts, w, R, 3.0, spu, cuts)
        assert len(norms) == len(cuts)
        for (a, b), norm in zip([(0, n), *zip(cuts[:-1], cuts[1:])], norms):
            piece = np.where((np.arange(n) >= a) & (np.arange(n) < b), profile, 0.0)
            direct = direct_ball_norm(piece, pts, w, R, 3.0, spu)
            assert norm == pytest.approx(direct, rel=1e-12)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("d, R, spu", [(1, 40.0, 2.0), (2, 12.0, 1.5)])
    def test_block_windows_keep_exactly_the_ball(self, monkeypatch, d, R, spu, rows):
        # each block's time window and float mask hold exactly the samples
        # t^2 + |x|^2 <= R^2 of its rows, so the blocks together keep the
        # full mask's count, while the windows cover less than the box; every
        # shadow point is walked once and keeps at least one time
        from modlab import propagator

        monkeypatch.setattr(propagator, "_CHUNK_ROWS", rows)
        m = int(np.ceil(2 * R * spu))
        axis = -R + 2 * R / m * (np.arange(m) + 0.5)
        r_sq = np.add.reduce(np.meshgrid(*[axis**2] * d, indexing="ij")).ravel()
        full = axis**2 + r_sq[:, None] <= R**2
        kept, area, walked = 0, 0, []
        for idx, lo, hi, mask in propagator._ball_blocks(axis, r_sq, R):
            assert 1 <= idx.size <= rows
            assert not full[idx, :lo].any() and not full[idx, hi:].any()
            assert mask.dtype == float and np.array_equal(mask, full[idx, lo:hi])
            assert mask.any(axis=1).all()
            kept += int(mask.sum())
            area += mask.size
            walked.extend(idx.tolist())
        assert kept == np.count_nonzero(full)
        assert sorted(walked) == np.flatnonzero(r_sq <= R**2).tolist()
        assert area < np.count_nonzero(r_sq <= R**2) * m

    def test_masked_power_sum_keeps_its_bits_at_any_blas_thread_count(self):
        # BLAS ddot splits a long sum over its threads; the masked power sum
        # must not, so OPENBLAS_NUM_THREADS cannot move its last bit
        code = (
            "import numpy as np\n"
            "from modlab import propagator\n"
            "rng = np.random.default_rng(5)\n"
            "for w in (300, 1000):\n"
            "    z = rng.standard_normal((64, w)) + 1j * rng.standard_normal((64, w))\n"
            "    mask = (rng.random((64, w)) < 0.9).astype(float)\n"
            "    print(repr(propagator._power_sum(z, 6.0, mask)))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        outs = set()
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
            )
            assert done.returncode == 0, done.stderr
            outs.add(done.stdout)
        assert len(outs) == 1

    def test_ball_norm_d2_runs(self):
        pts, w = unit_ball_mesh(2, 12)
        profile = np.ones(len(pts))
        value, _ = extension_ball_norms(profile, pts, w, 4.0, 2.0, 1.0, [0, len(pts)])
        assert value > 0

    def test_ball_norms_peak_memory(self):
        # the R = 256 cell of decoupling_d1_p6.cfg: 666 mesh points in 32
        # caps, m = 1024 times.  Beside the mesh x m coefficient matrix the
        # cell holds one block's waves (rows x mesh) and four complex rows x m
        # arrays: Ef, a cap's product, its |.|^p, and the float ball mask with
        # the sum t^2 + |x|^2 it is cut from; a table of the whole shadow's
        # waves would add a second m x mesh array
        import tracemalloc

        from modlab import propagator

        R, width = 256.0, 256.0**-0.5
        pts, w = unit_ball_mesh(1, 666)
        caps = np.floor((pts[:, 0] + 1.0) / width).astype(int)
        cuts = [*np.unique(caps, return_index=True)[1], len(pts)]
        assert len(cuts) == 33
        profile = np.ones(len(pts))
        m, item = 1024, np.dtype(complex).itemsize
        extension_ball_norms(profile, pts, w, 16.0, 6.0, 2.0, cuts)
        tracemalloc.start()
        try:
            extension_ball_norms(profile, pts, w, R, 6.0, 2.0, cuts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        coeff = len(pts) * m * item
        assert peak <= coeff + propagator._CHUNK_ROWS * item * (len(pts) + 4 * m)


class TestEnergyMass:
    def test_zero_field(self, grid3d):
        assert energy(Field(grid3d, np.zeros(grid3d.shape, complex)), 3) == 0.0
        assert mass(Field(grid3d, np.zeros(grid3d.shape, complex))) == 0.0

    def test_plane_wave_gradient_term(self):
        g = make_grid(3, 16, 2 * np.pi)
        x = g.coords()
        xi0 = (2.0, 1.0, 0.0)
        phase = sum(c * v for c, v in zip(x, xi0))
        f = Field(g, np.exp(1j * phase))
        expect = sum(v**2 for v in xi0) * g.length**g.d
        assert gradient_sq_integral(f) == pytest.approx(expect, rel=1e-12)

    def test_scaling_invariance(self):
        lam = 2.0
        g = make_grid(3, 32, 16.0)
        u = gaussian_field(g)
        g_half = make_grid(3, 32, 16.0 / lam)
        u_lam = Field(g_half, lam ** ((3 - 2) / 2) * u.values)
        e0, e1 = energy(u, 3, 1), energy(u_lam, 3, 1)
        assert abs(e1 - e0) <= 1e-6 * abs(e0)

    def test_dimension_guard(self, grid1d):
        with pytest.raises(ValueError, match="d in"):
            energy(gaussian_field(grid1d), 1)
