import hashlib
import itertools

import numpy as np
import pytest

from modlab import modspace
from modlab.grid import (
    Field, SpectralField, Trajectory, forward, inverse, lp_norm, make_grid, spacetime_lp_norm,
    to_spectrum,
)
from modlab.modspace import (
    ModNormSpec,
    _piece_lp_norms,
    ball_cover_centers,
    band_box,
    bump,
    dyadic_multiplier,
    low_pass,
    make_window,
    modulation_norm,
)
from modlab.estimates import fit_exponent
from modlab.datagen import scale_family
from modlab.propagator import free_flow_lp_norms
from modlab.variation import vp_norm
from tests.conftest import bandlimited, complex_noise
from tests.oracles import box_project, dyadic_multipliers, dyadic_project, iso_piece


def lattice(w):
    """Every window shift of ``w``, in ``itertools.product`` order."""
    return list(itertools.product(range(-w.kmax, w.kmax + 1), repeat=w.grid.d))


class TestWindow:
    @pytest.mark.parametrize(
        "d,n,length",
        [(1, 256, 64 * np.pi), (2, 32, 8 * np.pi), (3, 16, 8 * np.pi), (4, 16, 8 * np.pi)],
    )
    def test_square_partition_identity(self, d, n, length):
        w = make_window(make_grid(d, n, length))
        assert w.partition_deviation() <= 1e-12

    def test_center_value(self, grid1d):
        w = make_window(grid1d)
        # at xi = 0 only the k = 0 shift contributes; its normalized square is 1
        total = sum(w.multiplier((k,))[0] ** 2 for k in range(-w.kmax, w.kmax + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_coarse_grid_rejected(self):
        with pytest.raises(ValueError, match="coarse"):
            make_window(make_grid(1, 16, 2 * np.pi))  # dxi = 1

    def test_band_too_small_rejected(self):
        # xi_max = 1: only one cube each side
        with pytest.raises(ValueError, match="cube"):
            make_window(make_grid(1, 8, 8 * np.pi))

    def test_cube_scaling(self):
        g = make_grid(1, 64, 2 * np.pi)  # dxi = 1
        w = make_window(g, cube=4.0)
        assert w.cube == 4.0
        assert w.partition_deviation() <= 1e-12


class TestIsoPiece:
    def test_out_of_lattice_rejected(self, grid1d):
        w = make_window(grid1d)
        with pytest.raises(ValueError, match="lattice"):
            iso_piece(complex_noise(grid1d, 0), (w.kmax + 1,), w)

    def test_disjoint_support_gives_zero(self, grid1d):
        w = make_window(grid1d)
        f = bandlimited(grid1d, 0.0, 0.25, seed=1)
        piece = iso_piece(f, (3,), w)
        assert lp_norm(piece, 2) <= 1e-14 * lp_norm(f, 2)

    def test_pure_tone_multiplier(self, grid1d):
        w = make_window(grid1d)
        x = grid1d.axis_coords()
        k0 = 2
        tone = Field(grid1d, np.exp(1j * k0 * x))
        piece = iso_piece(tone, (k0,), w)
        sigma_value = w.multiplier((k0,))[np.argmin(np.abs(grid1d.axis_freqs() - k0))]
        assert np.allclose(piece.values, sigma_value * tone.values, atol=1e-12)

    @pytest.mark.parametrize("d,n", [(1, 256), (3, 16)])
    def test_square_sum_is_parseval(self, d, n):
        g = make_grid(d, n, 8 * np.pi)
        w = make_window(g)
        f = complex_noise(g, 7)
        total = sum(lp_norm(iso_piece(f, k, w), 2) ** 2 for k in lattice(w))
        assert abs(total - lp_norm(f, 2) ** 2) <= 1e-10 * lp_norm(f, 2) ** 2


class TestModNormSpec:
    @pytest.mark.parametrize(
        "field,args",
        [
            ("s", (np.nan, 4, 2)),
            ("s", (np.inf, 4, 2)),
            ("s", (-np.inf, 4, 2)),
            ("p", (0, np.nan, 2)),
            ("q", (0, 4, np.nan)),
        ],
    )
    def test_nan_fields_and_infinite_s_rejected(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must"):
            ModNormSpec(*args)


def _exponent_users():
    """Each function of an exponent, by name: (exponent's name, call)."""
    g = make_grid(1, 16, 4.0)
    f = complex_noise(g, 0)
    path = Trajectory(g, [0.0, 1.0], np.stack([f.values, 2 * f.values]))
    return {
        "lp_norm": ("p", lambda p: lp_norm(f, p)),
        "Trajectory.lp_norms": ("p", path.lp_norms),
        "spacetime_lp_norm": ("p", lambda p: spacetime_lp_norm(path, p)),
        "ModNormSpec.p": ("p", lambda p: ModNormSpec(0.0, p, 2.0)),
        "ModNormSpec.q": ("q", lambda q: ModNormSpec(0.0, 4.0, q)),
        "free_flow_lp_norms": ("p", lambda p: free_flow_lp_norms([[f]], 1.0, 3, p)),
        "vp_norm": ("p", lambda p: vp_norm(path, p, lambda v: lp_norm(v, 2.0))),
    }


@pytest.mark.parametrize("value", [np.inf, np.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("user", list(_exponent_users()))
def test_exponent_outside_one_to_infinity_rejected(user, value):
    # every L^p and modulation kernel shares the domain 1 <= p < inf
    name, call = _exponent_users()[user]
    with pytest.raises(ValueError, match=f"^{name} must"):
        call(value)


class TestModulationNorm:
    def test_zero_field(self, grid1d):
        w = make_window(grid1d)
        zero = Field(grid1d, np.zeros(grid1d.shape, complex))
        assert modulation_norm(zero, ModNormSpec(0, 2, 2), w) == 0.0

    def test_spectrum_reaches_active_lattice_read_only(self, grid3d, monkeypatch):
        # callers of active_lattice may keep the spectrum after the call
        seen = []
        original = modspace.Window.active_lattice

        def capture(window, coefficients):
            seen.append(coefficients)
            return original(window, coefficients)

        monkeypatch.setattr(modspace.Window, "active_lattice", capture)
        modulation_norm(complex_noise(grid3d, 0), ModNormSpec(0, 4, 2), make_window(grid3d))
        assert len(seen) == 1 and not seen[0].flags.writeable

    @pytest.mark.parametrize("d,n", [(1, 256), (2, 32), (3, 16)])
    def test_plancherel(self, d, n):
        g = make_grid(d, n, 8 * np.pi)
        w = make_window(g)
        spec = ModNormSpec(0.0, 2.0, 2.0)
        for seed in range(5):
            f = complex_noise(g, seed)
            m = modulation_norm(f, spec, w)
            l2 = lp_norm(f, 2)
            assert abs(m - l2) <= 1e-10 * l2

    def test_separated_spectra_add(self, grid1d):
        w = make_window(grid1d)
        spec = ModNormSpec(0.5, 4.0, 2.0)
        g1 = bandlimited(grid1d, 0.0, 0.24, seed=3)
        g2 = bandlimited(grid1d, 5.0, 0.24, seed=4)
        n1, n2 = modulation_norm(g1, spec, w), modulation_norm(g2, spec, w)
        n12 = modulation_norm(g1 + g2, spec, w)
        assert n12**2 == pytest.approx(n1**2 + n2**2, rel=1e-12)

    def test_q_monotonicity(self, grid1d):
        w = make_window(grid1d)
        f = complex_noise(grid1d, 11)
        values = [
            modulation_norm(f, ModNormSpec(0.0, 4.0, q), w) for q in (1.0, 2.0, 4.0, 8.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_p_embedding_constant_on_pieces(self, grid1d):
        # for fields on a single unit cube the L^p norms are comparable with
        # a field-independent constant (Bernstein); record the observed one
        w = make_window(grid1d)
        ratios = []
        for seed in range(8):
            f = bandlimited(grid1d, 2.0, 0.45, seed=seed)
            m24 = modulation_norm(f, ModNormSpec(0.0, 2.0, 2.0), w)
            m42 = modulation_norm(f, ModNormSpec(0.0, 4.0, 2.0), w)
            ratios.append(m42 / m24)
        assert max(ratios) / min(ratios) < 4.0
        assert max(ratios) < 1.0  # on a cube, L^4 <= C L^2 with C < 1 here

    @pytest.mark.parametrize(
        "d,n,scales,bound", [(1, 1024, (4.0, 8.0, 16.0), 0.6), (2, 128, (1.0, 2.0, 4.0), 1.1)]
    )
    def test_bernstein_chain_exponent(self, d, n, scales, bound):
        g = make_grid(d, n, 8 * np.pi)
        w = make_window(g)
        spec = ModNormSpec(0.0, 4.0, 2.0)
        ratios = []
        for N in scales:
            f = dyadic_project(scale_family("focusing", N, 0, 1.0, g), N)
            ratios.append(np.abs(f.values).max() / modulation_norm(f, spec, w))
        slope, _, _ = fit_exponent(scales, ratios)
        assert slope <= bound

    def test_bernstein_chain_d3_ratio(self):
        g = make_grid(3, 32, 8 * np.pi)
        w = make_window(g)
        spec = ModNormSpec(0.0, 4.0, 2.0)
        vals = []
        for N in (0.5, 1.0):
            f = scale_family("focusing", N, 0, 1.0, g)
            vals.append(np.abs(f.values).max() / modulation_norm(f, spec, w))
        # two-point slope in log2 against the d/2 = 1.5 prediction
        two_point = np.log2(vals[1] / vals[0])
        assert two_point <= 1.5 + 0.1


def per_window_norms(F, ks, window, p):
    """The per-window formula the separable kernel replaced: one ifftn of
    sigma_k F per window, kept here as the oracle."""
    g = window.grid
    scale = g.dxi**g.d * (2.0 * np.pi) ** (-g.d / 2.0) * g.size
    out = []
    for k in ks:
        phys = np.abs(np.fft.ifftn(window.multiplier(k) * F.coefficients)) * scale
        out.append((g.cell * np.sum(phys**p)) ** (1.0 / p))
    return np.array(out)


def ball_noise_spectrum(grid, seed):
    """Random complex coefficients (not a tensor product) on an off-center
    ball, so the active shift ranges are a proper part of the lattice."""
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    dist = sum((xi - c) ** 2 for xi, c in zip(grid.freqs(), (0.75, -0.5, 0.25)))
    return SpectralField(grid, np.where(dist < 1.6**2, coeffs, 0.0))


KERNEL_GRIDS = {1: (64, 8 * np.pi), 2: (32, 8 * np.pi), 3: (16, 8 * np.pi)}


class TestPieceKernel:
    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_per_window_formula(self, d, p):
        g = make_grid(d, *KERNEL_GRIDS[d])
        w = make_window(g)
        F = ball_noise_spectrum(g, seed=d)
        ks = w.active_lattice(F.coefficients)
        assert 1 < len(ks) < len(lattice(w))
        got = _piece_lp_norms(F.coefficients, ks, w, p, in_flight=1)
        want = per_window_norms(F, ks, w, p)
        assert np.all(np.abs(got - want) <= 1e-13 * want)

    @pytest.mark.parametrize("levels", ["leading", "every"])
    @pytest.mark.parametrize("d", [2, 3])
    def test_split_leading_axis_matches(self, d, levels, monkeypatch):
        # a shrunken budget splits the leading axis's shifts into groups of
        # three, or, at three grids, the shifts of every axis
        g = make_grid(d, *KERNEL_GRIDS[d])
        w = make_window(g)
        F = ball_noise_spectrum(g, seed=10 + d)
        ks = lattice(w)
        below = (2 * w.kmax + 1) ** (d - 1) if levels == "leading" else 1
        monkeypatch.setattr(modspace, "_CHUNK_POINTS", 3 * below * g.size)
        got = _piece_lp_norms(F.coefficients, ks, w, 4.0, in_flight=1)
        want = per_window_norms(F, ks, w, 4.0)
        assert np.all(np.abs(got - want) <= 1e-13 * want.max())

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bits_do_not_depend_on_the_budget(self, d, p, monkeypatch):
        # the budget only regroups whole 1-d transforms and leaf rows
        g = make_grid(d, *KERNEL_GRIDS[d])
        w = make_window(g)
        F = ball_noise_spectrum(g, seed=20 + d)
        ks = lattice(w)
        want = _piece_lp_norms(F.coefficients, ks, w, p, in_flight=1)
        for budget in (1, 3 * g.size, 2**30):
            monkeypatch.setattr(modspace, "_CHUNK_POINTS", budget)
            assert np.array_equal(_piece_lp_norms(F.coefficients, ks, w, p, in_flight=1), want)

    def test_blocks_fit_the_budget(self, grid3d, monkeypatch):
        w = make_window(grid3d)
        F = ball_noise_spectrum(grid3d, seed=0)
        ks = lattice(w)
        assert len(ks) * grid3d.size > modspace._CHUNK_POINTS  # the tree must split
        sizes = []
        original = np.fft.ifft

        def spy(a, *args, **kwargs):
            sizes.append(np.size(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", spy)
        want = _piece_lp_norms(F.coefficients, ks, w, 4.0, in_flight=1)
        assert sizes and max(sizes) <= max(modspace._CHUNK_POINTS, grid3d.size)
        # two norms in flight split the budget, with the same bits
        whole = max(sizes)
        sizes.clear()
        assert np.array_equal(_piece_lp_norms(F.coefficients, ks, w, 4.0, in_flight=2), want)
        assert max(sizes) <= max(modspace._CHUNK_POINTS // 2, grid3d.size) < whole

    @pytest.mark.parametrize(
        "p,bits,pieces",
        [
            (4.0, "0x1.8197d9cc5d9f8p+5", "967fb675176f0694"),
            (3.0, "0x1.905754471badcp+6", "2a95fe0e26669ba7"),
        ],
    )
    def test_pinned_bits(self, grid3d, p, bits, pieces):
        # M^1.1_{p,2} of seeded noise on 16^3 and a digest of its piece norms
        # over the whole lattice; the bits are those of numpy 2.4's pocketfft.
        # The digest catches a 1-ulp leaf change that the aggregated norm
        # rounds away: |z|^4 as square(square(|z|)) rather than
        # np.power(|z|, 4) moved the p = 4 digest (from 69bca4015598252b) and
        # left the norm's bits.
        f, w = complex_noise(grid3d, 0), make_window(grid3d)
        assert modulation_norm(f, ModNormSpec(1.1, p, 2.0), w).hex() == bits
        norms = _piece_lp_norms(forward(grid3d, f.values), lattice(w), w, p, in_flight=1)
        assert hashlib.sha256(norms.tobytes()).hexdigest()[:16] == pieces

    def test_non_product_windows_rejected(self, grid3d):
        w = make_window(grid3d)
        F = ball_noise_spectrum(grid3d, seed=0)
        ks = w.active_lattice(F.coefficients)
        for bad in (ks[::-1], ks[1:], []):
            with pytest.raises(ValueError, match="product"):
                _piece_lp_norms(F.coefficients, bad, w, 4.0, in_flight=1)

    def test_marginal_just_above_the_floor_stays_active(self):
        # tau = 1e-24 / (d n N): a lone mode at the top of the band whose
        # energy is 2 tau E activates the two windows that meet it, and one
        # at tau E / 2 activates none
        g = make_grid(1, *KERNEL_GRIDS[1])
        w = make_window(g)
        F = np.zeros(g.shape, complex)
        F[0] = 1.0
        tau = 1e-24 / (g.d * g.n * g.size)
        assert w.active_lattice(F) == [(0,)]
        for share, active in ((2.0, [(0,), (7,), (8,)]), (0.5, [(0,)])):
            F[g.n // 2 - 1] = np.sqrt(share * tau)
            assert w.active_lattice(F) == active

    @pytest.mark.parametrize("d", [1, 3])
    def test_round_off_residue_activates_nothing(self, d):
        # a compact bump spectrum plus a ~3e-17 residue on every coefficient:
        # the residue leaves the active set alone and the norm matches the
        # sum over the whole lattice
        g = make_grid(d, *KERNEL_GRIDS[d])
        w = make_window(g)
        r_sq = sum((xi - c) ** 2 for xi, c in zip(g.freqs(), (0.5, -0.25, 0.0)))
        clean = bump(r_sq / 1.2**2).astype(complex)
        rng = np.random.default_rng(d)
        residue = 3e-17 * np.exp(2j * np.pi * rng.random(g.shape))
        noisy = clean + residue * np.abs(clean).max()
        assert np.all(noisy != 0.0)
        assert w.active_lattice(noisy) == w.active_lattice(clean)
        assert len(w.active_lattice(clean)) < len(lattice(w))
        spec = ModNormSpec(1.1, 4.0, 2.0)
        F = SpectralField(g, noisy)
        ks = lattice(w)
        brackets = np.array([np.sqrt(1.0 + sum(v * v for v in k)) for k in ks])
        norms = _piece_lp_norms(F.coefficients, ks, w, 4.0, in_flight=1)
        exhaustive = np.sqrt(np.sum((brackets**spec.s * norms) ** 2))
        norm = modulation_norm(Field(g, inverse(g, F.coefficients)), spec, w)
        assert abs(norm - exhaustive) <= 1e-14 * exhaustive


class TestDyadic:
    def test_tone_passes_and_distant_band_kills(self):
        g = make_grid(1, 1024, 16 * np.pi)
        x = g.axis_coords()
        tone = Field(g, np.exp(1j * 8.0 * x))
        assert lp_norm(dyadic_project(tone, 8.0), 2) == pytest.approx(
            lp_norm(tone, 2), rel=1e-12
        )
        assert lp_norm(dyadic_project(tone, 2.0), 2) <= 1e-12

    @pytest.mark.parametrize("d,n", [(1, 256), (3, 16)])
    def test_family_resolves_identity(self, d, n):
        g = make_grid(d, n, 8 * np.pi)
        f = complex_noise(g, 5)
        F = to_spectrum(f)
        acc = np.zeros(g.shape, dtype=complex)
        for band, mult in dyadic_multipliers(g):
            acc = acc + mult * F.coefficients
        err = np.linalg.norm(acc - F.coefficients) / np.linalg.norm(F.coefficients)
        assert err <= 1e-10

    def test_zero_field(self, grid1d):
        out = dyadic_project(Field(grid1d, np.zeros(grid1d.shape, complex)), 2.0)
        assert lp_norm(out, 2) == 0.0

    def test_band_beyond_nyquist_rejected(self, grid1d):
        with pytest.raises(ValueError, match="xi_max"):
            dyadic_project(complex_noise(grid1d, 0), grid1d.xi_max)

    def test_non_dyadic_band_rejected(self, grid1d):
        with pytest.raises(ValueError, match="dyadic"):
            dyadic_project(complex_noise(grid1d, 0), 3.0)

    @pytest.mark.parametrize("cutoff", [0.5, 1.0, 2.0, 4.0])
    def test_low_pass_is_one_inside_and_zero_outside(self, cutoff):
        g = make_grid(2, 64, 16 * np.pi)
        r = np.sqrt(g.freq_sq())
        m = low_pass(g, cutoff)
        assert np.all(m[r <= cutoff] == 1.0)
        assert np.all(m[r >= 2.0 * cutoff] == 0.0)
        assert np.all((m >= 0.0) & (m <= 1.0))

    @pytest.mark.parametrize("d,n", [(1, 256), (3, 16)])
    def test_dyadic_multiplier_is_a_difference_of_low_passes(self, d, n):
        g = make_grid(d, n, 8 * np.pi)
        r, smooth = np.sqrt(g.freq_sq()), modspace._smoothstep
        assert np.array_equal(dyadic_multiplier(g, 1.0), low_pass(g, 1.0))
        for band in (2.0, 4.0, 8.0):
            m = dyadic_multiplier(g, band)
            assert np.array_equal(m, low_pass(g, band) - low_pass(g, band / 2))
            # the same bits as the annulus written with a doubled radius
            assert np.array_equal(m, smooth(r / band) - smooth(2.0 * r / band))

    @pytest.mark.parametrize(
        "d,n,length,band,reach",
        [
            (1, 64, 8 * np.pi, 2.0, 15),  # 2 band / dxi = 16, an integer
            (1, 64, 7.3, 1.0, 2),  # 2 band / dxi = 2.32
            (2, 32, 2 * np.pi, 4.0, 7),
            (2, 16, 3.1, 2.0, 1),  # 2 band / dxi = 1.97
            (3, 16, 2 * np.pi, 1.0, 1),
            (3, 16, 2 * np.pi, 4.0, 7),
            (3, 16, 7.3, 2.0, 4),  # 2 band / dxi = 4.65
            (3, 16, 2 * np.pi, 8.0, 8),  # the box fills every axis
        ],
    )
    def test_multiplier_is_zero_outside_the_band_box(self, d, n, length, band, reach):
        g = make_grid(d, n, length)
        box = band_box(g, band)
        assert box == ((max(-n // 2, -reach), min(n // 2 - 1, reach)),) * d
        mult = dyadic_multiplier(g, band)
        signed = (np.fft.fftfreq(n) * n).astype(int)
        inside = np.ones(g.shape, dtype=bool)
        for axis, (lo, hi) in enumerate(box):
            inside &= ((signed >= lo) & (signed <= hi)).reshape(g._axis_shape(axis))
        assert np.all(mult[~inside] == 0.0)
        # the box is tight: each axis's end modes carry the multiplier
        for axis, (lo, hi) in enumerate(box):
            for end in (lo, hi):
                line = np.take(mult, np.flatnonzero(signed == end)[0], axis=axis)
                assert np.any(line != 0.0)


class TestBoxProject:
    def test_far_center_gives_zero(self, grid1d):
        f = bandlimited(grid1d, 0.0, 0.5, seed=2)
        out = box_project(f, [6.0], 1.0)
        assert lp_norm(out, 2) <= 1e-14

    @pytest.mark.parametrize("d,n", [(1, 1024), (3, 32)])
    def test_cover_energy_between_one_and_overlap(self, d, n):
        g = make_grid(d, n, 8 * np.pi if d == 3 else 16 * np.pi)
        band = 2.0 if d == 3 else 8.0
        f = complex_noise(g, 9)
        pf = dyadic_project(f, band)
        base = lp_norm(pf, 2) ** 2
        total = sum(
            lp_norm(box_project(pf, c, 1.0), 2) ** 2
            for c in ball_cover_centers(d, band, 1.0)
        )
        assert (1.0 - 1e-9) * base <= total <= 3.0**d * base

    def test_large_ball_recovers_projection(self):
        g = make_grid(1, 1024, 16 * np.pi)
        f = complex_noise(g, 12)
        pf = dyadic_project(f, 4.0)
        out = box_project(pf, [0.0], 16.0)
        assert np.max(np.abs(out.values - pf.values)) <= 1e-12 * np.max(np.abs(pf.values))

    def test_radius_below_one_rejected(self):
        with pytest.raises(ValueError, match="radius"):
            ball_cover_centers(1, 4.0, 0.5)
