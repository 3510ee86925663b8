"""Contraction-mapping construction of NLS solutions, with a split-step oracle.

The fixed-point map is Phi(u)(t) = exp(itL) u0 - i Duhamel(F(u)) with
F(u) = sign * |u|^kappa u, i.e. the integral form of
i u_t + Laplace(u) = sign |u|^kappa u.  Picard iterates start from the free
trajectory; the split-step solver integrates the same equation by Strang
splitting and serves as an independent oracle for cross-validation.

Both data regimes split u0 at the smooth ``modspace.low_pass``.  In d <= 2,
``sum_space_smallness`` bounds its M^s_{p,2} + L^2 sum-space norm.  In d in
{3, 4} a frequency-cutoff protocol runs large data: a total bound 2A and a
tail bound 2*delta above a cutoff N constrain every iterate, with the horizon
T chosen from (A, N); it emits a certificate and aborts naming the violated
inequality if an iterate leaves the ball.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Callable

import numpy as np

from modlab.grid import (
    Field, Grid, Trajectory, abs_power, forward, fourier_multiply, inverse, lp_norm,
    spacetime_lp_norm, two_thread_map,
)
from modlab.modspace import ModNormSpec, Window, low_pass, make_window, modulation_norm
from modlab.propagator import duhamel_path, free_multiplier, mass

__all__ = [
    "NLSProblem",
    "SolverReport",
    "Certificate",
    "CertificateViolation",
    "BlowUp",
    "nonlinearity",
    "picard_solve",
    "splitstep_solve",
    "large_data_protocol",
    "sum_space_smallness",
    "cross_validate",
]


_DEFAULT_KAPPA = {1: 4.0, 2: 2.0, 3: 4.0, 4: 2.0}


@dataclass(frozen=True)
class NLSProblem:
    """Initial value problem for i u_t + Lap u = sign |u|^kappa u.

    kappa defaults to the mass-critical power for d in {1, 2} (quintic /
    cubic) and the energy-critical power 4/(d-2) for d in {3, 4}.
    """

    u0: Field
    horizon: float
    time_nodes: int
    kappa: float | None = None
    sign: int = 1

    def __post_init__(self):
        if not 0 < self.horizon < np.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        if not isinstance(self.time_nodes, (int, np.integer)) or self.time_nodes < 2:
            raise ValueError(f"time_nodes must be an integer >= 2, got {self.time_nodes!r}")
        if self.sign not in (1, -1):
            raise ValueError(f"sign must be +-1, got {self.sign}")
        if self.kappa is None:
            object.__setattr__(self, "kappa", _DEFAULT_KAPPA[self.u0.grid.d])
        if not 0 < self.kappa < np.inf:
            raise ValueError(f"kappa must be positive and finite, got {self.kappa}")

    @property
    def d(self) -> int:
        return self.u0.grid.d

    @property
    def grid(self) -> Grid:
        return self.u0.grid


@dataclass
class Certificate:
    """Large-data ball certificate: the chosen constants and the verified
    bounds, one entry per Picard iterate."""

    A: float
    delta: float
    cutoff: float
    horizon: float
    c0: float
    c1: float
    total_norms: list = field(default_factory=list)
    tail_norms: list = field(default_factory=list)

    def violation(self) -> str | None:
        """The first recorded iterate outside the ball, named with its failed
        inequality, or None.  A norm that is not <= its bound (NaN included)
        is outside."""
        for j, (total, tail) in enumerate(zip(self.total_norms, self.tail_norms)):
            if not total <= 2.0 * self.A + 1e-12:
                return (
                    f"certificate violation at iterate {j}: "
                    f"||u||_{{M^s_{{4,2}}}} = {total:.6g} > 2A = {2 * self.A:.6g}"
                )
            if not tail <= 2.0 * self.delta + 1e-12:
                return (
                    f"certificate violation at iterate {j}: "
                    f"||P_>N u||_{{M^s_{{4,2}}}} = {tail:.6g} > 2 delta = {2 * self.delta:.6g}"
                )
        return None

    def holds(self) -> bool:
        return self.violation() is None

    def to_dict(self) -> dict:
        return {**asdict(self), "holds": self.holds()}


class CertificateViolation(RuntimeError):
    """An iterate left the large-data ball.  ``certificate`` is the partial
    certificate, the violating iterate's norms last; ``inequality`` names the
    failed bound."""

    def __init__(self, inequality: str, certificate: Certificate):
        super().__init__(inequality)
        self.inequality = inequality
        self.certificate = certificate


@dataclass
class SolverReport:
    iterations: int
    contraction_factors: list
    residuals: list
    final_residual: float
    converged: bool
    diverged: bool
    iteration_norm: str
    mass_drift: float
    certificate: Certificate | None = None

    def contracting(self) -> bool:
        """No divergence, and every contraction factor below 1/2."""
        return not self.diverged and all(f < 0.5 for f in self.contraction_factors)

    def to_dict(self) -> dict:
        out = asdict(self)
        del out["certificate"]
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def nonlinearity(u: Field | Trajectory, kappa: float, sign: int) -> Field | Trajectory:
    """Pointwise power sign * |u|^kappa u of a Field or of a Trajectory."""
    if kappa <= 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    return replace(u, values=sign * np.abs(u.values) ** kappa * u.values)


# ---------------------------------------------------------------------------
# Picard iteration
# ---------------------------------------------------------------------------


def _sup_m42(path: Trajectory, spec: ModNormSpec, window: Window) -> float:
    """Sup over the nodes of ``path`` of the M^s_{4,2} norm in ``spec``.

    The nodes are independent, so ``two_thread_map`` takes them on two
    threads, overlapping their FFTs, which release the interpreter lock; the
    two norms in flight split the window kernel's block budget.  The norms
    come back in node order and are maxed in that order, so the result, NaN
    included, has the bits of the sequential ``max``.
    """
    fields = [f for _, f in path]
    return max(
        two_thread_map(
            lambda i: modulation_norm(fields[i], spec, window, in_flight=2), len(fields)
        )
    )


def picard_solve(
    problem: NLSProblem,
    max_iters: int = 25,
    tol: float = 1e-10,
    window: Window | None = None,
    s: float = 0.0,
    iterate_hook: Callable | None = None,
) -> tuple[Trajectory, SolverReport]:
    """Fixed-point iteration of the Duhamel map.

    Starts from the free trajectory and applies the map until the
    iteration-norm residual drops below ``tol`` or ``max_iters`` is hit.
    Three consecutive non-contracting steps flag divergence and stop the run;
    the report carries the factors either way.  ``iterate_hook(j, path)`` is
    called on every iterate, a ``Trajectory``, including the initial one and
    may raise to abort.  Node 0 of the free trajectory is ``u0`` itself.

    The iteration norm follows from d: ``strichartz`` (d <= 2) is sup-L^2
    plus the space-time L^{kappa+2} norm of the d <= 2 well-posedness
    argument; ``sup_m42`` (d >= 3) is the sup over nodes of M^s_{4,2}, in
    ``window`` or the grid's default window, taken on two threads by
    ``_sup_m42`` with the bits of the sequential sup.  The iterations run
    under ``np.errstate(over="ignore", invalid="ignore")``, which the helper
    thread inherits.
    """
    if problem.time_nodes < 16:
        raise ValueError(f"need at least 16 time nodes, got {problem.time_nodes}")
    if not tol >= 0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    grid = problem.grid
    if problem.d <= 2:
        kind = "strichartz"
        def path_norm(path):
            return float(path.lp_norms(2).max()) + spacetime_lp_norm(path, problem.kappa + 2.0)
    else:
        kind = "sup_m42"
        spec = ModNormSpec(s, 4.0, 2.0)
        window = window if window is not None else make_window(grid)
        def path_norm(path):
            return _sup_m42(path, spec, window)
    ts = np.linspace(0.0, problem.horizon, problem.time_nodes)
    spectrum = forward(grid, problem.u0.values)  # one transform of u0 for every node
    nodes = [inverse(grid, free_multiplier(grid, float(t)) * spectrum) for t in ts[1:]]
    free = current = Trajectory(grid, ts, np.stack([problem.u0.values, *nodes]))
    if iterate_hook is not None:
        iterate_hook(0, current)

    residuals: list[float] = []
    factors: list[float] = []
    converged = False
    diverged = False
    iterations = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(max_iters):
            # iterates of non-contracting runs grow super-exponentially; bail
            # out as a reported divergence before the power overflows the
            # field samples themselves (norms may still report inf)
            if np.max(np.abs(current.values)) > 1e50:
                diverged = True
                break
            iterations = it + 1
            integrals = duhamel_path(nonlinearity(current, problem.kappa, problem.sign))
            new = replace(free, values=free.values - integrals.values * 1j)
            res = path_norm(replace(new, values=new.values - current.values))
            residuals.append(res)
            if len(residuals) >= 2 and residuals[-2] > 0:
                factors.append(residuals[-1] / residuals[-2])
            current = new
            if iterate_hook is not None:
                iterate_hook(iterations, current)
            if res <= tol:
                converged = True
                break
            if len(factors) >= 3 and all(f >= 1.0 for f in factors[-3:]):
                diverged = True
                break

        drift = max(abs(mass(f) - mass(problem.u0)) for _, f in current)
    report = SolverReport(
        iterations=iterations,
        contraction_factors=factors,
        residuals=residuals,
        final_residual=residuals[-1] if residuals else 0.0,
        converged=converged,
        diverged=diverged,
        iteration_norm=kind,
        mass_drift=drift,
    )
    return current, report


# ---------------------------------------------------------------------------
# Split-step oracle
# ---------------------------------------------------------------------------


_BLOWUP_GUARD = 1e6  # the split step stops past this many times its initial sup|u|


class BlowUp(RuntimeError):
    """The split-step state at time ``t`` has sup|u| = ``sup`` past
    ``guard_factor`` times its initial value, or not finite."""

    def __init__(self, t: float, sup: float, guard_factor: float):
        super().__init__(
            f"blow-up guard tripped at t={t:.6g}: "
            f"sup|u| = {sup:.6g} exceeded {guard_factor:g} x initial"
        )
        self.t = t
        self.sup = sup


def splitstep_solve(problem: NLSProblem, dt: float) -> Trajectory:
    """Strang splitting: half nonlinear phase, full linear step, half phase.

    The phase N_tau(v) = v exp(-i sign tau |v|^kappa) leaves |v| unchanged,
    so the closing half phase of one step and the opening half phase of the
    next are one phase over dt.  The scheme runs in that merged form: it
    opens with N_{dt/2}, then each step takes the linear step and N_dt, and
    the last step closes with N_{dt/2} instead.  |u|^kappa comes from
    ``grid.abs_power`` of the |u| the guard has just measured.

    The run takes n = round(horizon / dt) steps of horizon / n, so it ends
    on the horizon; ``dt`` must give n to 1e-9 relative, else
    ``ValueError``.  The state is recorded at the problem's time nodes,
    found by step count: the ``time_nodes - 1`` node intervals must split
    the steps into equal strides, else ``ValueError``.  The last step of
    each stride takes N_{dt/2} of its state once, for the record, and the
    run goes on from the unsynchronised state, so the run is the same
    whatever is recorded; the horizon is always the last record.  The times are
    ``np.linspace(0, horizon, time_nodes)``, the floats ``picard_solve``
    uses.

    Each substep is either unitary or a pointwise phase rotation, so the mass
    is conserved to round-off.  Raises ``BlowUp`` when the sup norm after a
    linear step exceeds ``_BLOWUP_GUARD`` (1e6) times its initial value or is
    not finite; the phase leaves it unchanged.

    The linear step writes the free-flow phase exp(-i dt |xi|^2) out on
    purpose instead of calling ``propagator._flow_phase``: this solver is
    the independent oracle that ``cross_validate`` holds the Picard solver
    to, and a sign error in a shared phase would move both solvers alike and
    pass that check.
    """
    if dt > problem.horizon / 64:
        raise ValueError(f"dt={dt} too coarse; need dt <= horizon/64")
    grid = problem.grid
    n_steps = int(round(problem.horizon / dt))
    if abs(n_steps * dt - problem.horizon) > 1e-9 * problem.horizon:
        raise ValueError("dt must divide the horizon")
    dt = problem.horizon / n_steps  # a dt within 1e-9 of it would end short of the horizon
    stride, rest = divmod(n_steps, problem.time_nodes - 1)
    if rest:
        raise ValueError(f"time_nodes - 1 = {problem.time_nodes - 1} does not divide {n_steps} steps")
    u = problem.u0.values
    w2 = grid.freq_sq()
    linear = np.exp(-1j * dt * w2)
    modulus = np.abs(u)
    guard = _BLOWUP_GUARD * max(float(modulus.max()), 1e-300)
    values = [u]

    def phase(v, power, tau):
        # N_tau(v) from power = |v|^kappa
        z = power * (-1j * problem.sign * tau)
        np.exp(z, out=z)
        z *= v
        return z

    # the same transforms; on a line the n-d wrappers add about 2.5 us a
    # call, a tenth of a 256-point step
    fft, ifft = (np.fft.fft, np.fft.ifft) if grid.d == 1 else (np.fft.fftn, np.fft.ifftn)
    u = phase(u, abs_power(modulus, problem.kappa), 0.5 * dt)
    for step in range(1, n_steps + 1):
        u = ifft(linear * fft(u))
        modulus = np.abs(u)
        sup = float(modulus.max())
        if not sup <= guard:  # a NaN sup fails every comparison
            raise BlowUp(step * dt, sup, _BLOWUP_GUARD)
        power = abs_power(modulus, problem.kappa)
        if step % stride == 0:
            values.append(phase(u, power, 0.5 * dt))
        if step < n_steps:
            u = phase(u, power, dt)
    times = np.linspace(0.0, problem.horizon, problem.time_nodes)
    return Trajectory(grid, times, np.stack(values))


# ---------------------------------------------------------------------------
# Large-data frequency-cutoff protocol
# ---------------------------------------------------------------------------


def large_data_protocol(
    problem: NLSProblem,
    window: Window,
    c0: float,
    s: float = 1.1,
    c1: float = 0.1,
) -> tuple[Trajectory, SolverReport]:
    """Frequency-cutoff contraction run for large data, d in {3, 4}.

    Chooses A = ||u0||_{M^s_{4,2}} in ``window``, the tail budget
    delta = c0 * A^{-(6-d)/(d-2)}, the smallest dyadic cutoff N with
    ||P_{>N} u0|| <= delta, and the horizon
    T = c1 * N^{-2d/(d-2)} * A^{-4/(d-2)} (the problem's horizon if that is
    shorter).  Since N >= 1, N^{-2d/(d-2)} <= N^{-6/(d-2)}, so this T is
    the smaller of the two scalings.  Runs the Picard iteration on [0, T]
    (at most 25 iterates, residual tolerance 1e-9) and verifies the ball
    conditions ||u^(j)|| <= 2A and ||P_{>N} u^(j)|| <= 2 delta at every
    iterate, raising ``CertificateViolation`` with the inequality
    ``Certificate.violation`` names.
    """
    d = problem.d
    if d not in (3, 4):
        raise ValueError(f"large-data protocol expects d in {{3, 4}}, got {d}")
    grid = problem.grid
    spec = ModNormSpec(s, 4.0, 2.0)
    A = modulation_norm(problem.u0, spec, window)
    if not np.isfinite(A) or A == 0.0:
        raise ValueError("initial data has degenerate modulation norm")
    delta = c0 * A ** (-(6.0 - d) / (d - 2.0))

    cutoff = 1.0
    while True:
        high_pass = 1.0 - low_pass(grid, cutoff)  # P_>N, the complement of the smooth low-pass
        tail = modulation_norm(fourier_multiply(problem.u0, high_pass), spec, window)
        if tail <= delta or cutoff > grid.xi_max:
            break
        cutoff *= 2.0
    if cutoff > grid.xi_max:
        raise ValueError("no dyadic cutoff within the band meets the tail budget")

    t_bound = c1 * cutoff ** (-2.0 * d / (d - 2.0)) * A ** (-4.0 / (d - 2.0))
    horizon = min(problem.horizon, t_bound)
    run = replace(problem, horizon=horizon)
    cert = Certificate(A=A, delta=delta, cutoff=cutoff, horizon=horizon, c0=c0, c1=c1)

    def verify_ball(j: int, trajectory: Trajectory) -> None:
        cert.total_norms.append(_sup_m42(trajectory, spec, window))
        cert.tail_norms.append(_sup_m42(fourier_multiply(trajectory, high_pass), spec, window))
        violation = cert.violation()
        if violation is not None:
            raise CertificateViolation(violation, cert)

    path, report = picard_solve(
        run,
        tol=1e-9,
        window=window,
        s=s,
        iterate_hook=verify_ball,
    )
    report.certificate = cert
    return path, report


def sum_space_smallness(u0: Field, window: Window) -> dict:
    """Smallness data for sum-space initial values in the d <= 2 theory.

    Bounds inf{ ||g||_{M^s_{p,2}} + ||h||_{L^2} : u0 = g + h } (s = 1/2, p = 6 in
    d = 1 and 4 in d = 2) by splitting u0 at a smooth low-pass, minimized over
    the thresholds 0 (all in L^2), the dyadic N <= xi_max/2 and inf (all in M^s).
    """
    g = u0.grid
    if g.d not in (1, 2):
        raise ValueError(f"sum-space smallness check applies to d in {{1,2}}, got {g.d}")
    s, p = 0.5, 6.0 if g.d == 1 else 4.0
    spec = ModNormSpec(s, p, 2.0)
    thresholds = [0.0]
    band = 1.0
    while band <= g.xi_max / 2:
        thresholds.append(band)
        band *= 2.0
    thresholds.append(np.inf)
    F = forward(g, u0.values)
    table = []
    for thr in thresholds:
        low = 0.0 if thr == 0.0 else 1.0 if np.isinf(thr) else low_pass(g, thr)
        m = modulation_norm(Field(g, inverse(g, low * F)), spec, window)
        l2 = float(np.sqrt(g.dxi**g.d * np.sum(np.abs((1.0 - low) * F) ** 2)))
        table.append([float(thr), m + l2])
    threshold, bound = min(table, key=lambda row: row[1])
    return {"bound": bound, "threshold": threshold, "p": p, "s": s, "table": table}


# ---------------------------------------------------------------------------
# Cross validation
# ---------------------------------------------------------------------------


_CROSS_VALIDATION_PICARD_TOL = 1e-12  # far below the time-integration errors compared


def cross_validate(problem: NLSProblem, tol: float) -> dict:
    """Relative L^2 distance at the horizon between the Picard solution and
    the split-step oracle, with matched-resolution convergence logging.

    The two solvers discretize the same spatial spectral system with
    independent second-order time integrators, so their distance bounds the
    time-integration error of either.  Disagreement beyond ``tol`` is
    reported with both convergence histories.  The coarse Picard run takes
    half the node intervals and needs 16 nodes, so ``time_nodes`` must be
    at least 31.
    """
    coarse_nodes = (problem.time_nodes - 1) // 2 + 1
    if coarse_nodes < 16:
        raise ValueError(f"cross-validation needs time_nodes >= 31, got {problem.time_nodes}")
    dt = problem.horizon / max(1024, 16 * (problem.time_nodes - 1))
    path, report = picard_solve(problem, tol=_CROSS_VALIDATION_PICARD_TOL)
    horizon_only = replace(problem, time_nodes=2)
    u_picard = path[-1][1]
    u_split = splitstep_solve(horizon_only, dt)[-1][1]
    denom = max(lp_norm(u_split, 2), 1e-300)
    distance = lp_norm(u_picard - u_split, 2) / denom

    # convergence orders: halve both resolutions once
    coarse_path, _ = picard_solve(
        replace(problem, time_nodes=coarse_nodes), tol=_CROSS_VALIDATION_PICARD_TOL
    )
    # each solver's step error is relative to its own solution
    picard_step_err = lp_norm(coarse_path[-1][1] - u_picard, 2) / max(lp_norm(u_picard, 2), 1e-300)
    u_split_coarse = splitstep_solve(horizon_only, 2 * dt)[-1][1]
    split_step_err = lp_norm(u_split_coarse - u_split, 2) / denom
    return {
        "distance": distance,
        "tolerance": tol,
        "agrees": bool(distance <= tol),
        "contracting": report.contracting(),
        "dt": dt,
        "time_nodes": problem.time_nodes,
        "picard_coarse_vs_fine": picard_step_err,
        "splitstep_coarse_vs_fine": split_step_err,
        "picard_report": report.to_dict(),
    }
