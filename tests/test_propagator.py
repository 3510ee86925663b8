import numpy as np
import pytest

from modlab.grid import Field, lp_norm, make_grid, to_spectrum, trapezoid
from modlab.modspace import ModNormSpec, make_window, modulation_norm
from modlab.propagator import (
    TimeGrid,
    duhamel,
    duhamel_path,
    energy,
    extension_values,
    free_evolve,
    free_flow_lp_norm,
    galilean_shift,
    gradient_sq_integral,
    mass,
    unit_ball_mesh,
)
from tests.conftest import complex_noise, direct_ball_norm, gaussian_field


class TestTimeGrid:
    def test_nodes(self):
        tg = TimeGrid(0.0, 1.0, 5)
        assert np.allclose(tg.nodes, [0, 0.25, 0.5, 0.75, 1.0])
        assert tg.dt == 0.25

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 0.0, 5)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)


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


class TestFreeFlowNorm:
    def test_repeated_piece_equals_one_piece(self, grid3d):
        f = complex_noise(grid3d, 4)
        g = complex_noise(grid3d, 5)
        one = free_flow_lp_norm([[(0.0, f)], [(0.0, g)]], 1.0, 9, 2.0, pad=2)
        split = [(0.0, f), (0.3, f), (0.5, f)]
        two = free_flow_lp_norm([split, [(0.0, g)]], 1.0, 9, 2.0, pad=2)
        assert two == pytest.approx(one, rel=1e-13)

    def test_piece_j_used_on_half_open_interval(self, grid1d):
        # cuts at a node (0.5) and between nodes (0.3): on [a_j, a_{j+1})
        # each factor is the free flow of its piece j
        f, g, h = (complex_noise(grid1d, s) for s in (6, 7, 8))
        ts = np.linspace(0.0, 1.0, 9)
        powers = []
        for t in ts:
            u = free_evolve(f if t < 0.5 else g, t).values
            v = free_evolve(h if t < 0.3 else f, t).values
            powers.append(grid1d.cell * np.sum(np.abs(u * v) ** 3))
        expect = trapezoid(np.array(powers), ts) ** (1.0 / 3.0)
        factors = [[(0.0, f), (0.5, g)], [(0.0, h), (0.3, f)]]
        value = free_flow_lp_norm(factors, 1.0, 9, 3.0)
        assert value == pytest.approx(expect, rel=1e-13)


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


class TestDuhamel:
    def test_zero_forcing(self, grid1d):
        ts = np.linspace(0, 1, 17)
        forcing = [(t, Field.zero(grid1d)) for t in ts]
        out = duhamel(forcing, 1.0)
        assert lp_norm(out, 2) == 0.0

    def test_at_first_node(self, grid1d):
        ts = np.linspace(0, 1, 17)
        forcing = [(t, complex_noise(grid1d, 8)) for t in ts]
        assert lp_norm(duhamel(forcing, 0.0), 2) == 0.0

    def test_off_node_rejected(self, grid1d):
        ts = np.linspace(0, 1, 17)
        forcing = [(t, Field.zero(grid1d)) for t in ts]
        with pytest.raises(ValueError, match="node"):
            duhamel(forcing, 0.123)

    def test_single_mode_closed_form_second_order(self, grid1d):
        x = grid1d.axis_coords()
        mode = Field(grid1d, np.exp(1j * x))
        omega = 1.0
        exact = (np.exp(-1j * omega) - 1.0) / (-1j * omega)

        def error(m):
            ts = np.linspace(0, 1, m)
            out = duhamel([(t, mode) for t in ts], 1.0)
            return np.max(np.abs(out.values - exact * mode.values))

        e_coarse, e_fine = error(129), error(257)
        assert e_coarse / e_fine == pytest.approx(4.0, rel=0.05)

    def test_path_matches_pointwise(self, grid1d):
        ts = np.linspace(0, 0.5, 9)
        forcing = [(float(t), complex_noise(grid1d, 20 + j)) for j, t in enumerate(ts)]
        path = duhamel_path(forcing)
        for (t, acc) in path[1:]:
            direct = duhamel(forcing, t)
            assert np.max(np.abs(acc.values - direct.values)) <= 1e-12


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
        from modlab.propagator import extension_lp_norm

        R, spu = 4.0, 2.0
        pts, w = unit_ball_mesh(1, 48)
        profile = np.ones(len(pts))
        norm = extension_lp_norm(profile, pts, w, R, 4.0, samples_per_unit=spu)
        m = int(np.ceil(2 * R * spu))
        step = 2 * R / m
        axis = -R + step * (np.arange(m) + 0.5)
        vals = extension_values(profile, pts, w, axis, axis[:, None])
        tt, xx = np.meshgrid(axis, axis, indexing="ij")
        inside = tt**2 + xx**2 <= R**2
        direct = (step**2 * np.sum(np.abs(vals[inside]) ** 4)) ** 0.25
        assert norm == pytest.approx(direct, rel=1e-12)

        # d = 2: a non-symmetric profile, so the per-axis plane-wave tables
        # must pair every mesh point with its own coordinates
        pts, w = unit_ball_mesh(2, 12)
        profile = np.cos(2.0 * pts[:, 0]) + 0.5j * pts[:, 1] + 0.3
        norm = extension_lp_norm(profile, pts, w, R, 4.0, samples_per_unit=spu)
        assert norm == pytest.approx(
            direct_ball_norm(profile, pts, w, R, 4.0, spu), rel=1e-12
        )

    def test_ball_norm_d2_runs(self):
        from modlab.propagator import extension_lp_norm

        pts, w = unit_ball_mesh(2, 12)
        profile = np.ones(len(pts))
        value = extension_lp_norm(profile, pts, w, 4.0, 2.0, samples_per_unit=1.0)
        assert value > 0

    def test_ball_norm_small_radius_rejected(self):
        from modlab.propagator import extension_lp_norm

        pts, w = unit_ball_mesh(1, 16)
        with pytest.raises(ValueError, match=">= 4"):
            extension_lp_norm(np.ones(len(pts)), pts, w, 2.0, 4.0)


class TestEnergyMass:
    def test_zero_field(self, grid3d):
        assert energy(Field.zero(grid3d), 3) == 0.0
        assert mass(Field.zero(grid3d)) == 0.0

    def test_plane_wave_gradient_term(self):
        g = make_grid(3, 16, 2 * np.pi)
        x = g.coords()
        xi0 = (2.0, 1.0, 0.0)
        phase = sum(c * v for c, v in zip(x, xi0))
        f = Field(g, np.exp(1j * phase))
        expect = sum(v**2 for v in xi0) * g.volume
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
