"""Reference implementations the tests compare the package against.

Each one is the direct, per-node or per-piece form of something a run
computes another way, or a helper that builds test inputs:

- ``duhamel``: the Duhamel integral at one node, the oracle for
  ``propagator.duhamel_path``;
- ``scanned_piece_norm``: a space-time norm of a product of step paths
  from the zero-padded spectra, node by node, the oracle for
  ``propagator.free_flow_lp_norms``;
- ``chain_cover_energy``: the chain log's cover energy ratio and occupied
  ball count, each ball summed under a full-grid mask, the oracle for
  ``estimates.bilinear_chain_log``'s per-axis reaches;
- ``extension_values``: dense samples of the extension operator, from which
  ``conftest.direct_ball_norm`` checks ``propagator.extension_ball_norms``;
- ``iso_piece``: one window piece, for the partition identity of
  ``modspace.Window``;
- ``up_norm_lower``: the duality lower bound on ``variation.up_norm_upper``;
- ``dyadic_project``, ``dyadic_multipliers`` and ``box_project``: smooth
  dyadic and sharp ball projections for the covering, Bernstein and
  telescoping tests;
- ``energy``: the energy functional whose drift checks the split-step
  solver's order;
- ``strang``: the textbook Strang split step, two half phases per step,
  the oracle for ``solver.splitstep_solve``'s merged phases.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from modlab.grid import Field, Grid, Trajectory, forward, fourier_multiply, inverse, trapezoid
from modlab.modspace import Window, ball_cover_centers, dyadic_multiplier
from modlab.propagator import free_evolve, free_multiplier, gradient_sq_integral
from modlab.solver import NLSProblem
from modlab.variation import duality_pairing, vp_norm


def duhamel(forcing: Trajectory, t: float) -> Field:
    """Trapezoid quadrature of int_0^t exp(i(t-s) Laplace) F(s) ds.

    ``t`` must be one of the forcing nodes; the integral runs from the first
    node to ``t``.
    """
    times = forcing.times
    j_end = forcing.node_index(t)
    acc = np.zeros(forcing.grid.shape, dtype=np.complex128)
    for j in range(j_end + 1):
        wj = 0.0
        if j > 0:
            wj += 0.5 * (times[j] - times[j - 1])
        if j < j_end:
            wj += 0.5 * (times[j + 1] - times[j])
        evolved = free_evolve(forcing[j][1], t - times[j])
        acc = acc + wj * evolved.values
    return Field(forcing.grid, acc)


def scanned_piece_norm(
    factors: Sequence[Trajectory], horizon: float, m: int, p: float, pad: int = 1
) -> float:
    """Space-time L^p norm of the product of step-path factors over
    [0, horizon], trapezoid rule on m nodes: each profile's spectrum is
    zero-padded into ``Grid(d, pad * n, L)`` and evolved by that grid's
    ``free_multiplier``, and the piece at t is found by scanning for the
    last start <= t."""
    g = factors[0].grid
    fine = Grid(g.d, pad * g.n, g.length)
    modes = np.ix_(*[(np.fft.fftfreq(g.n) * g.n).astype(int) % fine.n] * g.d)
    starts, spectra = [], []
    for path in factors:
        starts.append(list(path.times))
        spectra.append([])
        for _, f in path:
            F = np.zeros(fine.shape, dtype=np.complex128)
            F[modes] = forward(g, f.values)
            spectra[-1].append(F)
    ts = np.linspace(0.0, horizon, m)
    powers = np.empty(m)
    for i, t in enumerate(ts):
        mult = free_multiplier(fine, t)
        flows = []
        for a, F in zip(starts, spectra):
            k = [j for j, start in enumerate(a) if start <= t][-1]
            flows.append(inverse(fine, mult * F[k]))
        powers[i] = fine.cell * np.sum(np.abs(reduce(np.multiply, flows)) ** p)
    return float(trapezoid(powers, ts) ** (1.0 / p))


def chain_cover_energy(f1: Field, n_high: float, n_low: float) -> tuple[float, int]:
    """(sum of the energies of f1^ on the radius-n_low cover balls of the
    n_high annulus over its total energy, number of balls with energy > 0),
    each ball's energy summed under its full-grid mask."""
    grid = f1.grid
    energy = np.abs(forward(grid, f1.values)) ** 2
    e_balls, occupied = 0.0, 0
    for c in ball_cover_centers(grid.d, n_high, n_low):
        dist_sq = reduce(np.add, [(xi - ci) ** 2 for xi, ci in zip(grid.freqs(), c)])
        e = float(np.sum(energy[dist_sq <= n_low**2]))
        e_balls += e
        occupied += e > 0.0
    return e_balls / float(np.sum(energy)), occupied


def extension_values(
    profile: np.ndarray,
    points: np.ndarray,
    weight: float,
    times: np.ndarray,
    xs: np.ndarray,
) -> np.ndarray:
    """Samples of Ef(t, x) = int_{|xi|<1} exp(i(x.xi + t|xi|^2)) f(xi) dxi.

    ``profile`` holds f on the frequency mesh ``points`` (quadrature weight
    ``weight``); ``xs`` is an array of spatial sample points of shape
    (nx, d).  Returns an (nt, nx) complex array.  The x-dependence is a
    single dense matrix product, so the cost is nt*nx*nmesh.
    """
    profile = np.asarray(profile, dtype=np.complex128).ravel()
    if profile.shape[0] != points.shape[0]:
        raise ValueError("profile and mesh size mismatch")
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    phase_x = np.exp(1j * (xs @ points.T))  # (nx, nmesh)
    quad_sq = np.sum(points**2, axis=1)
    out = np.empty((len(times), xs.shape[0]), dtype=np.complex128)
    for i, t in enumerate(np.asarray(times, dtype=float)):
        coeff = profile * np.exp(1j * t * quad_sq)
        out[i] = phase_x @ coeff
    return weight * out


def iso_piece(f: Field, k: Sequence[int], window: Window) -> Field:
    """The decomposition piece sigma_k(D) f."""
    if f.grid != window.grid:
        raise ValueError("field and window live on different grids")
    return fourier_multiply(f, window.multiplier(k))


def up_norm_lower(u: Trajectory, p: float, duals: Iterable[Trajectory], norm) -> float:
    """Duality lower bound: max |B(u, v)| / ||v||_{V^{p'}} over trial paths,
    the V^{p'} norm measured in ``norm``."""
    if not 1.0 < p < math.inf:
        raise ValueError(f"need 1 < p < inf for the dual exponent, got {p}")
    q = p / (p - 1.0)
    best = 0.0
    for v in duals:
        denom = vp_norm(v, q, norm, terminal_zero=True)
        if denom > 0:
            best = max(best, abs(duality_pairing(u, v)) / denom)
    return best


def dyadic_project(f: Field, band: float) -> Field:
    """Smooth dyadic annulus projection P_N, supported in N/2 <= |xi| <= 2N.

    ``band`` = 1 is the low ball |xi| <= 2.  The multiplier equals one on the
    sphere |xi| = N.
    """
    g = f.grid
    if band < 1 or 2 ** round(math.log2(band)) != band:
        raise ValueError(f"band must be dyadic >= 1, got {band}")
    if band > g.xi_max / 2:
        raise ValueError(f"band {band} exceeds xi_max/2 = {g.xi_max / 2}")
    return fourier_multiply(f, dyadic_multiplier(g, band))


def dyadic_multipliers(grid: Grid) -> list[tuple[float, np.ndarray]]:
    """The full family (N, multiplier) resolving the identity on the band.

    Bands 1, 2, ..., N_top/2 are the usual annuli; the top entry is the
    complementary high-pass so the family sums to one exactly, corner
    frequencies included.
    """
    top = 1.0
    corner = grid.xi_max * math.sqrt(grid.d)
    while top < corner:
        top *= 2.0
    out = []
    running = np.zeros(grid.shape)
    band = 1.0
    while band < top:
        m = dyadic_multiplier(grid, band)
        out.append((band, m))
        running = running + m
        band *= 2.0
    out.append((top, 1.0 - running))
    return out


def box_project(f: Field, center: Sequence[float], radius: float) -> Field:
    """Sharp-cutoff projection to the ball B(center, radius) in frequency."""
    g = f.grid
    center = np.asarray(center, dtype=float)
    if center.shape != (g.d,):
        raise ValueError(f"center must have {g.d} components")
    dist_sq = reduce(np.add, [(xi - c) ** 2 for xi, c in zip(g.freqs(), center)])
    return fourier_multiply(f, dist_sq <= radius**2)


def energy(f: Field, d: int | None = None, sign: int = 1) -> float:
    """Energy of the energy-critical flow in dimension d in {3, 4}.

    E[f] = int |grad f|^2 / 2 +- (d-2)/(2d) |f|^(2d/(d-2)) dx; the potential
    exponent 2d/(d-2) is the one the rescaling
    u -> lambda^((d-2)/2) u(lambda x) leaves invariant.
    """
    if d is None:
        d = f.grid.d
    if d not in (3, 4):
        raise ValueError(f"energy-critical exponent needs d in {{3, 4}}, got {d}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +-1, got {sign}")
    q = 2.0 * d / (d - 2.0)
    g = f.grid
    potential = g.cell * np.sum(np.abs(f.values) ** q)
    return float(0.5 * gradient_sq_integral(f) + sign * (d - 2.0) / (2.0 * d) * potential)


def strang(problem: NLSProblem, dt: float) -> Trajectory:
    """Strang splitting as the textbook writes it: per step, the phase
    v exp(-i sign dt/2 |v|^kappa), the linear step exp(-i dt |xi|^2) in
    Fourier space, and the half phase again; the state is recorded at the
    problem's time nodes, each at the first step that reaches it.  On nodes
    that fall on steps this is the solver's rule by step count."""
    n_steps = int(round(problem.horizon / dt))
    nodes = np.linspace(0.0, problem.horizon, problem.time_nodes)
    linear = np.exp(-1j * dt * problem.grid.freq_sq())

    def half_phase(v):
        return v * np.exp(-1j * problem.sign * 0.5 * dt * np.abs(v) ** problem.kappa)

    u = problem.u0.values
    times, values, next_node = [0.0], [u], 1
    for step in range(n_steps):
        u = half_phase(np.fft.ifftn(linear * np.fft.fftn(half_phase(u))))
        t = (step + 1) * dt
        while next_node < len(nodes) and nodes[next_node] <= t + 1e-12:
            times.append(nodes[next_node])
            values.append(u)
            next_node += 1
    return Trajectory(problem.grid, np.array(times), np.stack(values))
