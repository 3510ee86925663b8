from dataclasses import replace

import numpy as np
import pytest

from modlab.grid import (
    Field, SpectralField, Trajectory, fourier_multiply, inverse, lp_norm, make_grid, to_spectrum
)
from modlab.modspace import ModNormSpec, low_pass, make_window, modulation_norm
from modlab.datagen import mollified_indicator
from modlab.propagator import free_evolve, mass
from modlab.solver import (
    BlowUp,
    Certificate,
    CertificateViolation,
    NLSProblem,
    SolverReport,
    cross_validate,
    large_data_protocol,
    nonlinearity,
    picard_solve,
    splitstep_solve,
    sum_space_smallness,
)
from tests.conftest import bandlimited, complex_noise, gaussian_field
from tests.oracles import strang


def small_quintic(amplitude=0.2, nodes=65):
    g = make_grid(1, 256, 16 * np.pi)
    x = g.axis_coords()
    u0 = Field(g, amplitude * np.exp(-(x**2) / 2).astype(complex))
    return NLSProblem(u0=u0, horizon=0.1, time_nodes=nodes, sign=1)


class TestNonlinearity:
    def test_zero(self, grid1d):
        out = nonlinearity(Field(grid1d, np.zeros(grid1d.shape, complex)), 4.0, 1)
        assert lp_norm(out, 2) == 0.0

    def test_pure_phase_preserved(self, grid1d):
        x = grid1d.axis_coords()
        f = Field(grid1d, np.exp(1j * 3 * x))
        out = nonlinearity(f, 4.0, -1)
        assert np.max(np.abs(out.values + f.values)) <= 1e-14

    def test_homogeneity_exact(self, grid1d):
        f = gaussian_field(grid1d, amplitude=0.3 + 0.1j)
        lam = 1.7
        a = nonlinearity(lam * f, 4.0, 1)
        b = lam**5 * nonlinearity(f, 4.0, 1)
        assert np.max(np.abs(a.values - b.values)) <= 1e-15

    def test_kappa_guard(self, grid1d):
        with pytest.raises(ValueError):
            nonlinearity(Field(grid1d, np.zeros(grid1d.shape, complex)), 0.0, 1)


class TestPicard:
    def test_zero_data_one_iteration(self):
        g = make_grid(1, 64, 8 * np.pi)
        prob = NLSProblem(u0=Field(g, np.zeros(g.shape, complex)), horizon=0.1, time_nodes=17)
        path, report = picard_solve(prob)
        assert report.iterations == 1
        assert report.converged
        assert all(lp_norm(f, 2) == 0.0 for _, f in path)

    @pytest.mark.parametrize("tol", [-1e-12, np.nan])
    def test_negative_or_nan_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            picard_solve(small_quintic(), tol=tol)

    def test_small_data_contracts_fast(self):
        path, report = picard_solve(small_quintic(), tol=1e-12)
        assert report.converged
        assert all(c < 0.5 for c in report.contraction_factors)

    def test_default_power_matches_dimension(self):
        assert small_quintic().kappa == 4.0
        g2 = make_grid(2, 16, 8 * np.pi)
        prob2 = NLSProblem(u0=Field(g2, np.zeros(g2.shape, complex)), horizon=0.1, time_nodes=17)
        assert prob2.kappa == 2.0

    def test_large_data_divergence_reported(self):
        prob = small_quintic(amplitude=25.0, nodes=33)
        path, report = picard_solve(prob, max_iters=12)
        assert report.diverged
        assert not report.converged

    def test_overflow_guard_counts_only_computed_iterates(self):
        # the iterates of 50 exp(-x^2/2) pass 1e50 after three Duhamel maps,
        # so the guard stops the run before a fourth: three iterates, three
        # residuals, and the hook sees u0 and each of them
        g = make_grid(1, 64, 16 * np.pi)
        u0 = Field(g, 50.0 * np.exp(-g.axis_coords() ** 2 / 2).astype(complex))
        seen = []
        _, report = picard_solve(
            NLSProblem(u0=u0, horizon=1.0, time_nodes=17),
            iterate_hook=lambda j, path: seen.append(j),
        )
        assert report.diverged and not report.converged
        assert len(report.residuals) == report.iterations == 3
        assert seen == [0, 1, 2, 3]

    @pytest.mark.parametrize("factor, diverged", [(1.0, True), (0.999, False)])
    def test_three_factors_of_one_flag_divergence(self, factor, diverged, monkeypatch):
        # zero data leaves the path norm's sup-L^2 term 0, so the scripted
        # space-time norms 8, 8f, 8f^2, ... are the residuals: three factors
        # of exactly 1 stop the run as diverged, three of 0.999 do not
        import modlab.solver as solver

        residuals = iter([8.0 * factor**j for j in range(6)])
        monkeypatch.setattr(solver, "spacetime_lp_norm", lambda path, p: next(residuals))
        g = make_grid(1, 64, 8 * np.pi)
        prob = NLSProblem(u0=Field(g, np.zeros(g.shape, complex)), horizon=0.1, time_nodes=17)
        _, report = picard_solve(prob, max_iters=6)
        assert report.diverged is diverged and not report.converged
        assert report.iterations == (4 if diverged else 6)
        if diverged:
            assert report.contraction_factors == [1.0, 1.0, 1.0]
        else:
            assert all(0.998 < f < 1.0 for f in report.contraction_factors)

    def test_free_start_is_u0_itself(self):
        prob = small_quintic()
        seen = []
        path, report = picard_solve(prob, iterate_hook=lambda j, p: seen.append(p))
        assert len(seen) == report.iterations + 1
        first = seen[0]
        assert isinstance(first, Trajectory) and len(first) == prob.time_nodes
        assert np.array_equal(first.values[0], prob.u0.values)
        assert np.array_equal(first.times, np.linspace(0.0, prob.horizon, prob.time_nodes))
        assert np.array_equal(path.values[0], prob.u0.values)

    def test_free_trajectory_is_free_evolve(self):
        # one forward transform of u0 serves every node, bit for bit
        prob = small_quintic()
        seen = []
        picard_solve(prob, max_iters=1, iterate_hook=lambda j, p: seen.append(p))
        ts = np.linspace(0.0, prob.horizon, prob.time_nodes)
        expect = np.stack([free_evolve(prob.u0, float(t)).values for t in ts])
        assert np.array_equal(seen[0].values, expect)

    @pytest.mark.parametrize("horizon", [0.0, -0.1])
    def test_nonpositive_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="horizon"):
            NLSProblem(u0=small_quintic().u0, horizon=horizon)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError, match="16 time nodes"):
            picard_solve(small_quintic(nodes=8))

    @pytest.mark.parametrize(
        "factors, diverged, contracting",
        [([], False, True), ([0.6], False, False), ([0.1, 0.49], False, True),
         ([], True, False), ([0.1], True, False), ([0.1, 0.5], False, False)],
        ids=["no factors", "one factor of 0.6", "all below", "diverged", "diverged, one factor",
             "one at 1/2"],
    )
    def test_contracting(self, factors, diverged, contracting):
        report = SolverReport(
            iterations=len(factors) + 1, contraction_factors=factors, residuals=[],
            final_residual=0.0, converged=not diverged, diverged=diverged,
            iteration_norm="strichartz", mass_drift=0.0,
        )
        assert report.contracting() is contracting

    @pytest.mark.parametrize("nodes", [0, 1, 2.5])
    def test_time_nodes_must_be_an_integer_of_two_or_more(self, nodes):
        with pytest.raises(ValueError, match="time_nodes"):
            small_quintic(nodes=nodes)


class TestSplitStep:
    def test_mass_conserved(self):
        prob = small_quintic()
        path = splitstep_solve(prob, dt=prob.horizon / 256)
        drift = max(abs(mass(f) - mass(prob.u0)) for _, f in path)
        assert drift <= 1e-10

    def test_linear_limit_matches_free_evolution(self):
        prob = small_quintic(amplitude=1e-5)
        out = splitstep_solve(replace(prob, time_nodes=2), dt=prob.horizon / 128)[-1][1]
        free = free_evolve(prob.u0, prob.horizon)
        rel = lp_norm(out - free, 2) / lp_norm(free, 2)
        assert rel <= 1e-12

    def test_second_order_in_dt(self):
        prob = small_quintic(amplitude=1.0, nodes=2)
        ref = splitstep_solve(prob, dt=prob.horizon / 4096)[-1][1]
        e = []
        for steps in (128, 256):
            out = splitstep_solve(prob, dt=prob.horizon / steps)[-1][1]
            e.append(lp_norm(out - ref, 2))
        assert 3.5 <= e[0] / e[1] <= 4.5

    def test_energy_drift_second_order_defocusing(self):
        from tests.oracles import energy

        g3 = make_grid(3, 16, 8 * np.pi)
        r3 = sum(c**2 for c in g3.coords())
        u0 = Field(g3, 0.5 * np.exp(-r3 / 2).astype(complex))
        prob = NLSProblem(u0=u0, horizon=0.05, time_nodes=17, sign=1)
        e0 = energy(u0, 3, 1)
        drifts = []
        for steps in (64, 128):
            path = splitstep_solve(prob, dt=prob.horizon / steps)
            drifts.append(max(abs(energy(f, 3, 1) - e0) for _, f in path) / abs(e0))
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=0.3)
        assert drifts[1] <= 1e-9

    def test_coarse_dt_rejected(self):
        prob = small_quintic()
        with pytest.raises(ValueError, match="dt"):
            splitstep_solve(prob, dt=prob.horizon / 8)

    def test_blowup_guard_trips(self, monkeypatch):
        # focusing quintic above the small-data regime: the peak grows past
        # 1.5x its initial height well inside the horizon
        import modlab.solver as solver

        monkeypatch.setattr(solver, "_BLOWUP_GUARD", 1.5)
        g = make_grid(1, 256, 16 * np.pi)
        x = g.axis_coords()
        u0 = Field(g, 2.5 * np.exp(-(x**2) / 2).astype(complex))
        prob = NLSProblem(u0=u0, horizon=0.1, time_nodes=65, sign=-1)
        with pytest.raises(BlowUp, match="guard") as info:
            splitstep_solve(prob, dt=prob.horizon / 256)
        assert 0.0 < info.value.t < prob.horizon and info.value.sup > 1.5 * 2.5

    @pytest.mark.parametrize("state", ["guard below the initial peak", "nan"])
    def test_blowup_reports_first_bad_step(self, state, monkeypatch):
        # at amplitude 1e100 the phase |u|^4 dt overflows and the first step
        # leaves NaN everywhere; NaN compares false with the guard, so only an
        # explicit check of the state sees it
        import modlab.solver as solver

        if state == "nan":
            prob = small_quintic(amplitude=1e100)
        else:
            prob = small_quintic()
            monkeypatch.setattr(solver, "_BLOWUP_GUARD", 0.5)
        dt = prob.horizon / 256
        with pytest.raises(BlowUp) as info, np.errstate(over="ignore", invalid="ignore"):
            splitstep_solve(prob, dt=dt)
        assert info.value.t == dt
        assert np.isnan(info.value.sup) == (state == "nan")


def twisted_gaussian(d, sign, kappa, time_nodes=17):
    # a moving Gaussian, so both the phase and the linear step act
    g = make_grid(1, 128, 16 * np.pi) if d == 1 else make_grid(3, 16, 8 * np.pi)
    r_sq = sum(c**2 for c in g.coords())
    u0 = Field(g, 0.8 * np.exp(-r_sq / 2 + 1j * sum(g.coords())))
    return NLSProblem(u0=u0, horizon=0.1, time_nodes=time_nodes, kappa=kappa, sign=sign)


class TestMergedPhases:
    # the run merges the closing half phase of each step with the opening
    # one of the next; the textbook form takes both
    @pytest.mark.parametrize("kappa", [4.0, 2.0, 3.0])
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_the_textbook_strang(self, d, sign, kappa):
        prob = twisted_gaussian(d, sign, kappa)
        dt = prob.horizon / 256
        path, ref = splitstep_solve(prob, dt), strang(prob, dt)
        assert np.array_equal(path.times, ref.times) and len(path) == prob.time_nodes
        for (_, a), (_, b) in zip(path, ref):
            assert lp_norm(a - b, 2) <= 1e-13 * lp_norm(b, 2)
        final = splitstep_solve(replace(prob, time_nodes=2), dt)
        assert len(final) == 2 and final.times[-1] == prob.horizon
        assert np.array_equal(final.values[-1], path.values[-1])

    # the synchronised states are recorded at nodes found by step count: the
    # node intervals split the steps into equal strides
    @pytest.mark.parametrize(
        "time_nodes, steps",
        [(129, 64), (17, 100), (34, 1024)],
        ids=["two per step", "between steps", "one node in 33 steps"],
    )
    def test_nodes_off_the_step_grid(self, time_nodes, steps):
        # node 1 of 34, at H/33, falls between steps 31 and 32 of 1024
        prob = twisted_gaussian(1, -1, 4.0, time_nodes)
        with pytest.raises(ValueError, match=f"{time_nodes - 1} does not divide {steps} steps"):
            splitstep_solve(prob, prob.horizon / steps)

    def test_horizon_kept_when_the_steps_fall_short_of_it(self):
        # a dt that gives 64 steps to within the 1e-9 check runs the steps
        # of horizon / 64, not 64 steps that end 5e-11 short of the horizon
        prob = twisted_gaussian(1, 1, 4.0, 17)
        dt = prob.horizon / 64 * (1 - 5e-10)
        path = splitstep_solve(prob, dt)
        assert len(path) == 17
        assert np.array_equal(path.times, np.linspace(0.0, prob.horizon, 17))
        assert np.array_equal(path.values, splitstep_solve(prob, prob.horizon / 64).values)

    def test_blow_up_time_is_on_the_step_grid(self, monkeypatch):
        # a guard below the initial peak trips on the first step, at H/256
        import modlab.solver as solver

        monkeypatch.setattr(solver, "_BLOWUP_GUARD", 0.5)
        prob = small_quintic()
        with pytest.raises(BlowUp) as info:
            splitstep_solve(prob, prob.horizon / 256 * (1 - 5e-10))
        assert info.value.t == prob.horizon / 256

    @pytest.mark.parametrize("time_nodes", [17, 33, 65])
    def test_times_are_picards(self, time_nodes):
        prob = small_quintic(nodes=time_nodes)
        picard, _ = picard_solve(prob, max_iters=1)
        assert np.array_equal(splitstep_solve(prob, prob.horizon / 1024).times, picard.times)


class TestCrossValidate:
    def test_zero_data_exact(self):
        g = make_grid(1, 64, 8 * np.pi)
        prob = NLSProblem(u0=Field(g, np.zeros(g.shape, complex)), horizon=0.1, time_nodes=33)
        out = cross_validate(prob, tol=1e-5)
        assert out["distance"] == 0.0
        assert out["agrees"]

    @pytest.mark.parametrize("nodes", [17, 30])
    def test_too_few_nodes_to_halve_rejected(self, nodes, monkeypatch):
        # the coarse Picard run would have fewer than 16 nodes; no run starts
        import modlab.solver as solver

        def no_run(*args, **kwargs):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(solver, "picard_solve", no_run)
        monkeypatch.setattr(solver, "splitstep_solve", no_run)
        with pytest.raises(ValueError, match=f"time_nodes >= 31, got {nodes}"):
            cross_validate(small_quintic(nodes=nodes), tol=1e-5)

    def test_picard_step_error_is_relative_to_picards_own_solution(self, monkeypatch):
        # a round-off change in the oracle moves the distance between the
        # solvers but not Picard's own coarse-vs-fine error
        import modlab.solver as solver

        prob = small_quintic(nodes=33)
        base = cross_validate(prob, tol=1e-5)
        real = solver.splitstep_solve

        def perturbed(problem, dt):
            path = real(problem, dt)
            return replace(path, values=path.values * (1 + 1e-15))

        monkeypatch.setattr(solver, "splitstep_solve", perturbed)
        moved = cross_validate(prob, tol=1e-5)
        assert moved["picard_coarse_vs_fine"] == base["picard_coarse_vs_fine"]
        assert moved["distance"] != base["distance"]
        assert base["contracting"] is True

    def test_d1_quintic_agreement(self):
        out = cross_validate(small_quintic(nodes=129), tol=1e-5)
        assert out["agrees"], out["distance"]
        assert out["distance"] <= 1e-5

    def test_d2_cubic_agreement(self):
        g = make_grid(2, 64, 8 * np.pi)
        r_sq = sum(x**2 for x in g.coords())
        u0 = Field(g, 0.2 * np.exp(-r_sq / 2).astype(complex))
        prob = NLSProblem(u0=u0, horizon=0.1, time_nodes=129, sign=-1)
        assert prob.kappa == 2.0
        out = cross_validate(prob, tol=1e-5)
        assert out["agrees"], out["distance"]


def three_branch_bound(f, spec, window):
    """The sum-space sweep with the ends of the split held as ``None`` (the
    low part at threshold 0, the high part at inf), kept as a reference."""
    g = f.grid
    thresholds = [0.0]
    band = 1.0
    while band <= g.xi_max / 2:
        thresholds.append(band)
        band *= 2.0
    thresholds.append(np.inf)
    F = to_spectrum(f)
    rows = []
    for thr in thresholds:
        if thr == 0.0:
            low, high = None, F
        elif np.isinf(thr):
            low, high = F, None
        else:
            mult = low_pass(g, thr)
            low = SpectralField(g, mult * F.coefficients)
            high = SpectralField(g, (1.0 - mult) * F.coefficients)
        m = 0.0
        if low is not None:
            m = modulation_norm(Field(g, inverse(g, low.coefficients)), spec, window)
        l2 = 0.0
        if high is not None:
            l2 = float(np.sqrt(g.dxi ** g.d * np.sum(np.abs(high.coefficients) ** 2)))
        rows.append([float(thr), m + l2])
    threshold, bound = min(rows, key=lambda r: r[1])
    return bound, threshold, rows


class TestSumSpace:
    def test_low_frequency_field_bounded_by_both(self, grid1d):
        w = make_window(grid1d)
        f = bandlimited(grid1d, 0.0, 0.9, seed=8)
        out = sum_space_smallness(f, w, s=0.5)
        m = modulation_norm(f, ModNormSpec(0.5, 6.0, 2.0), w)
        assert out["p"] == 6.0
        assert out["bound"] <= min(m, lp_norm(f, 2)) + 1e-10

    def test_zero_field(self, grid1d):
        zero = Field(grid1d, np.zeros(grid1d.shape, complex))
        out = sum_space_smallness(zero, make_window(grid1d), s=0.0)
        assert out["bound"] == 0.0

    def test_split_beats_single_space_for_mixed_data(self, grid1d):
        w = make_window(grid1d)
        low = bandlimited(grid1d, 0.0, 0.9, seed=2)
        high = bandlimited(grid1d, 6.0, 0.4, seed=3)
        f = low + 0.5 * high
        out = sum_space_smallness(f, w, s=1.0)
        assert out["bound"] <= modulation_norm(f, ModNormSpec(1.0, 6.0, 2.0), w) + 1e-10
        assert out["bound"] <= lp_norm(f, 2) + 1e-10
        assert dict(out["table"])  # sweep table is reported

    @pytest.mark.parametrize("s", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("data", ["noise", "gaussian", "zero"])
    def test_equals_the_three_branch_sweep(self, d, data, s):
        g = make_grid(d, *{1: (256, 16 * np.pi), 2: (32, 8 * np.pi)}[d])
        w = make_window(g)
        f = {
            "noise": lambda: complex_noise(g, 3),
            "gaussian": lambda: gaussian_field(g, amplitude=0.3),
            "zero": lambda: Field(g, np.zeros(g.shape, complex)),
        }[data]()
        out = sum_space_smallness(f, w, s)
        bound, threshold, table = three_branch_bound(f, ModNormSpec(s, out["p"], 2.0), w)
        assert out["p"] == (6.0 if d == 1 else 4.0)
        assert (out["bound"], out["threshold"], out["table"]) == (bound, threshold, table)


class TestSmallnessProbes:
    def test_sum_space_smallness_bound(self):
        g = make_grid(1, 256, 16 * np.pi)
        w = make_window(g)
        x = g.axis_coords()
        u0 = Field(g, 0.2 * np.exp(-(x**2) / 2).astype(complex))
        out = sum_space_smallness(u0, w, s=0.5)
        assert out["p"] == 6.0
        assert 0 < out["bound"] <= lp_norm(u0, 2) + 1e-10

    def test_sum_space_smallness_dimension_guard(self):
        g = make_grid(3, 16, 8 * np.pi)
        with pytest.raises(ValueError, match="d in"):
            sum_space_smallness(Field(g, np.zeros(g.shape, complex)), make_window(g), s=0.5)


class TestLargeData:
    def setup_method(self):
        self.grid = make_grid(3, 16, 8 * np.pi)
        self.window = make_window(self.grid)
        self.data = mollified_indicator(2.0, self.grid)

    def test_small_data_reduces_to_unit_cutoff(self):
        prob = NLSProblem(u0=0.05 * self.data, horizon=1.0, time_nodes=17)
        _, report = large_data_protocol(prob, window=self.window, c0=0.4)
        cert = report.certificate
        assert cert.cutoff == 1.0
        assert cert.horizon == 1.0
        assert cert.holds()

    def test_mollified_indicator_certificate(self):
        prob = NLSProblem(u0=self.data, horizon=1.0, time_nodes=17)
        path, report = large_data_protocol(prob, window=self.window, c0=0.4)
        cert = report.certificate
        assert report.converged
        assert cert.holds()
        assert cert.cutoff >= 2.0
        assert cert.horizon < 1.0
        assert len(cert.total_norms) == report.iterations + 1
        # T = c1 N^{-2d/(d-2)} A^{-4/(d-2)} at d = 3
        assert cert.horizon == cert.c1 * cert.cutoff ** -6.0 * cert.A ** -4.0

    def test_naive_large_amplitude_run_diverges(self):
        # without the frequency cutoff and its short horizon, Picard on the
        # whole unit horizon diverges on 40 times the certified datum
        prob = NLSProblem(u0=40.0 * self.data, horizon=1.0, time_nodes=17)
        _, report = picard_solve(prob, max_iters=10)
        assert report.diverged and not report.converged

    def test_adversarial_tail_still_certified(self):
        # extra rough mass beyond the cutoff: the measured tail grows, the
        # horizon shrinks, and the run stays certified
        rng = np.random.default_rng(5)
        F = to_spectrum(self.data).coefficients.copy()
        r = np.sqrt(self.grid.freq_sq())
        F = F + 0.05 * (rng.standard_normal(self.grid.shape)
                        + 1j * rng.standard_normal(self.grid.shape)) * (r > 2.2)
        rough = Field(self.grid, inverse(self.grid, F))
        prob = NLSProblem(u0=rough, horizon=1.0, time_nodes=17)
        _, report = large_data_protocol(prob, window=self.window, c0=0.4)
        base_prob = NLSProblem(u0=self.data, horizon=1.0, time_nodes=17)
        _, base_report = large_data_protocol(base_prob, window=self.window, c0=0.4)
        assert report.certificate.holds()
        assert report.certificate.cutoff >= base_report.certificate.cutoff
        # the band of the n=16 grid caps the cutoff sweep, so the extra
        # roughness shows up in the measured tail rather than a larger N
        assert report.certificate.tail_norms[0] > base_report.certificate.tail_norms[0]

    def test_dimension_guard(self):
        g = make_grid(1, 64, 8 * np.pi)
        prob = NLSProblem(u0=gaussian_field(g), horizon=1.0, time_nodes=17)
        with pytest.raises(ValueError, match="d in"):
            large_data_protocol(prob, window=make_window(g), c0=0.1)

    def test_certificate_violation_names_inequality(self):
        # a horizon far beyond the proof's smallness bound lets the iterates
        # leave the ball; the abort must name the violated inequality
        prob = NLSProblem(u0=2.0 * self.data, horizon=1.0, time_nodes=17)
        with pytest.raises(CertificateViolation, match="2A") as info:
            large_data_protocol(prob, window=self.window, c0=5.0, c1=1e9)
        # the partial certificate ends with the violating iterate's norms
        cert = info.value.certificate
        assert isinstance(info.value, RuntimeError) and "2A" in info.value.inequality
        assert cert.total_norms[-1] > 2.0 * cert.A and not cert.holds()
        assert all(v <= 2.0 * cert.A for v in cert.total_norms[:-1])
        assert len(cert.tail_norms) == len(cert.total_norms)

    def test_nan_tail_norm_is_a_violation(self, nan_tail_norm):
        # NaN > 2 delta is False, so a hook that tests for a breach let a
        # NaN tail through while holds() rejected it
        prob = NLSProblem(u0=self.data, horizon=1.0, time_nodes=17)
        with pytest.raises(CertificateViolation, match="iterate 0: .* = nan > 2 delta") as info:
            large_data_protocol(prob, window=self.window, c0=0.4)
        cert = info.value.certificate
        assert len(cert.tail_norms) == 1 and info.value.inequality == cert.violation()

    def test_cutoff_is_the_smallest_that_meets_the_budget(self, monkeypatch):
        # tail(2) <= delta < tail(1) <= 1.5 delta: N = 1 misses the budget by
        # less than half of it, and N = 2, the first to meet it, is chosen
        from types import SimpleNamespace

        import modlab.solver as solver

        spec = ModNormSpec(1.1, 4.0, 2.0)
        A = modulation_norm(self.data, spec, self.window)
        tail = {
            N: modulation_norm(
                fourier_multiply(self.data, 1.0 - low_pass(self.grid, N)), spec, self.window
            )
            for N in (1.0, 2.0)
        }
        delta = tail[1.0] / 1.25
        assert tail[2.0] <= delta < tail[1.0] <= 1.5 * delta
        monkeypatch.setattr(solver, "picard_solve", lambda run, **kw: (None, SimpleNamespace()))
        prob = NLSProblem(u0=self.data, horizon=1.0, time_nodes=17)
        _, report = large_data_protocol(prob, window=self.window, c0=delta * A**3)
        assert report.certificate.delta == pytest.approx(delta, rel=1e-12)
        assert report.certificate.cutoff == 2.0

    def test_unreachable_tail_budget_rejected(self):
        prob = NLSProblem(u0=self.data, horizon=1.0, time_nodes=17)
        with pytest.raises(ValueError, match="tail budget"):
            large_data_protocol(prob, window=self.window, c0=1e-4)


class TestThreadedSup:
    """``_sup_m42`` takes the odd nodes on a helper thread; it must give the
    sequential ``max`` bit for bit (``TestTwoThreadMap`` in test_grid checks
    the map's failures and errstate)."""

    def setup_method(self):
        self.grid = make_grid(3, 16, 8 * np.pi)
        self.window = make_window(self.grid)
        self.spec = ModNormSpec(1.1, 4.0, 2.0)
        # 17 nodes of growing amplitude with the largest at node 11, in the
        # helper's half
        amps = 1.0 + np.arange(17) / 17.0
        amps[11] = 3.0
        values = np.stack([a * complex_noise(self.grid, seed=j).values for j, a in enumerate(amps)])
        self.path = Trajectory(self.grid, np.linspace(0.0, 1.0, 17), values)

    def sequential(self, norm=modulation_norm):
        return max(norm(f, self.spec, self.window) for _, f in self.path)

    def test_matches_the_sequential_sup(self):
        import modlab.solver as solver

        sup = solver._sup_m42(self.path, self.spec, self.window)
        assert sup == self.sequential()
        assert sup == modulation_norm(self.path[11][1], self.spec, self.window)

    @pytest.mark.parametrize("node", [0, 1])
    def test_a_nan_norm_is_maxed_in_node_order(self, node, monkeypatch):
        # max keeps a NaN it starts from and skips a later one, so a NaN at
        # node 0 is the sup and a NaN at node 1, the helper's, is not
        import modlab.solver as solver

        def nan_at_node(f, spec, window, **kw):
            if np.array_equal(f.values, self.path.values[node]):
                return float("nan")
            return modulation_norm(f, spec, window, **kw)

        expected = self.sequential(nan_at_node)
        monkeypatch.setattr(solver, "modulation_norm", nan_at_node)
        sup = solver._sup_m42(self.path, self.spec, self.window)
        assert np.isnan(sup) == (node == 0) == np.isnan(expected)
        assert node == 0 or sup == expected


def ball(total_norms, tail_norms):
    return Certificate(
        A=1.0, delta=0.25, cutoff=2.0, horizon=0.01, c0=0.4, c1=0.1,
        total_norms=total_norms, tail_norms=tail_norms,
    )


class TestCertificate:
    def test_total_breach_named(self):
        assert ball([1.5, 2.5, 3.0], [0.1, 0.1, 0.9]).violation() == (
            "certificate violation at iterate 1: ||u||_{M^s_{4,2}} = 2.5 > 2A = 2"
        )

    def test_tail_breach_named(self):
        assert ball([1.5, 1.9], [0.1, 0.75]).violation() == (
            "certificate violation at iterate 1: ||P_>N u||_{M^s_{4,2}} = 0.75 > 2 delta = 0.5"
        )

    @pytest.mark.parametrize(
        "total, tail, inside",
        [(2.0, 0.5, True), (2.0 + 1e-12, 0.5 + 1e-12, True),
         (np.nextafter(2.0 + 1e-12, 3.0), 0.5, False), (np.nan, 0.1, False),
         (1.0, np.nan, False), (np.inf, 0.1, False), (1.0, np.inf, False)],
    )
    def test_holds_is_no_violation(self, total, tail, inside):
        cert = ball([1.0, total], [0.1, tail])
        assert cert.holds() is inside
        assert cert.holds() == (cert.violation() is None)

    def test_horizon_formula_is_the_min_form(self):
        # for N >= 1, N^{-2d/(d-2)} <= N^{-6/(d-2)}, so the min of the two
        # scalings is always the first, bit for bit
        A, c1 = 0.9124, 0.1
        for d in (3, 4):
            for cutoff in [2.0**k for k in range(12)]:
                scaling = cutoff ** (-2.0 * d / (d - 2.0))
                assert c1 * scaling * A ** (-4.0 / (d - 2.0)) == c1 * min(
                    cutoff ** (-6.0 / (d - 2.0)), scaling
                ) * A ** (-4.0 / (d - 2.0))
