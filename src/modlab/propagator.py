"""Free Schroedinger evolution and its companions.

Sign convention, fixed once: the flow solves i u_t + Laplace(u) = 0, so the
spectral multiplier of ``free_evolve(f, t)`` is exp(-i t |xi|^2).  The
Galilean twist multiplies by a plane wave and translates the spectrum; the
Duhamel integral uses the composite trapezoid rule; space-time L^p norms of
products of free flows sample the flows node by node, on a zero-padded grid
when the product must be alias-free; the paraboloid extension operator is
direct midpoint quadrature over a frequency mesh of the unit ball, restricted
to d <= 2 since its cost grows like mesh^(2d+1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Sequence

import numpy as np

from modlab.grid import Field, Grid, SpectralField, from_spectrum, to_spectrum, trapezoid

__all__ = [
    "TimeGrid",
    "free_multiplier",
    "free_evolve",
    "free_flow_lp_norm",
    "galilean_shift",
    "duhamel",
    "duhamel_path",
    "unit_ball_mesh",
    "extension_values",
    "extension_lp_norm",
    "extension_ball_norms",
    "gradient_sq_integral",
    "energy",
    "mass",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time nodes on [t0, t1]."""

    t0: float
    t1: float
    m: int

    def __post_init__(self):
        if not self.t0 < self.t1:
            raise ValueError(f"need t0 < t1, got [{self.t0}, {self.t1}]")
        if self.m < 2:
            raise ValueError(f"need at least 2 nodes, got {self.m}")

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.t0, self.t1, self.m)

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / (self.m - 1)


def free_multiplier(grid: Grid, t: float) -> np.ndarray:
    """The spectral multiplier exp(-i t |xi|^2) of the free flow at time t."""
    return np.exp(-1j * t * grid.freq_sq())


def free_evolve(f: Field, t: float) -> Field:
    """exp(it Laplace) f, the free flow of i u_t + Laplace(u) = 0."""
    if t == 0.0:
        return f
    F = to_spectrum(f)
    return from_spectrum(SpectralField(f.grid, free_multiplier(f.grid, t) * F.coefficients))


def free_flow_lp_norm(
    factors: Sequence[Sequence[tuple[float, Field]]],
    horizon: float,
    m: int,
    p: float,
    pad: int = 1,
) -> float:
    """L^p norm over [0, horizon] x torus of a product of piecewise free flows.

    Each factor is a list of (start, field) pieces with increasing starts, the
    first at 0: on [a_j, a_{j+1}) the factor is exp(it Laplace) f_j, and the
    last piece runs to the horizon.  A plain free flow is [(0.0, f)].  The
    product is sampled at m uniform nodes on the grid refined ``pad`` times:
    each spectrum is embedded with its modes' frequencies kept and the new
    modes zero, so pad 2 makes the quadrature of a product of two band-limited
    flows alias-free (Orszag's rule).  The trapezoid rule integrates the
    spatial L^p^p in time.
    """
    g = factors[0][0][1].grid
    fine = Grid(g.d, pad * g.n, g.length)
    modes = np.ix_(*[(np.fft.fftfreq(g.n) * g.n).astype(int) % fine.n] * g.d)

    def padded(f: Field) -> np.ndarray:
        out = np.zeros(fine.shape, dtype=np.complex128)
        out[modes] = to_spectrum(f).coefficients
        return out

    spectra = [[(a, padded(f)) for a, f in pieces] for pieces in factors]
    ts = np.linspace(0.0, horizon, m)
    powers = np.empty(m)
    for i, t in enumerate(ts):
        mult = free_multiplier(fine, t)
        flows = []
        for pieces in spectra:
            F = [G for a, G in pieces if a <= t][-1]
            flows.append(from_spectrum(SpectralField(fine, mult * F)).values)
        powers[i] = fine.cell * np.sum(np.abs(reduce(np.multiply, flows)) ** p)
    return float(trapezoid(powers, ts) ** (1.0 / p))


def _lattice_index(grid: Grid, xi0: Sequence[float]) -> tuple[int, ...]:
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if xi0.shape != (grid.d,):
        raise ValueError(f"frequency vector must have {grid.d} components")
    idx = xi0 / grid.dxi
    rounded = np.round(idx)
    if np.max(np.abs(idx - rounded)) > 1e-9:
        raise ValueError(f"{tuple(xi0)} is not on the frequency lattice")
    return tuple(int(v) for v in rounded)


def galilean_shift(f: Field, xi0: Sequence[float]) -> Field:
    """Multiply by exp(i x.xi0) for a lattice frequency xi0.

    On the spectral side this is an exact cyclic translation of the
    coefficients by xi0.
    """
    g = f.grid
    _lattice_index(g, xi0)  # validates
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    phase = reduce(np.add, [x * v for x, v in zip(g.coords(), xi0)])
    return Field(g, np.exp(1j * phase) * f.values)


def duhamel(forcing: Sequence[tuple[float, Field]], t: float) -> Field:
    """Trapezoid quadrature of int_0^t exp(i(t-s) Laplace) F(s) ds.

    ``t`` must be one of the forcing nodes; the integral runs from the first
    node to ``t``.
    """
    pairs = list(forcing)
    times = np.array([s for s, _ in pairs], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("forcing nodes must be strictly increasing")
    hits = np.nonzero(np.isclose(times, t, rtol=0.0, atol=1e-12))[0]
    if hits.size == 0:
        raise ValueError(f"t={t} is not a forcing node")
    j_end = int(hits[0])
    grid = pairs[0][1].grid
    if j_end == 0:
        return Field.zero(grid)
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for j in range(j_end + 1):
        wj = 0.0
        if j > 0:
            wj += 0.5 * (times[j] - times[j - 1])
        if j < j_end:
            wj += 0.5 * (times[j + 1] - times[j])
        evolved = free_evolve(pairs[j][1], t - times[j])
        acc = acc + wj * evolved.values
    return Field(grid, acc)


def duhamel_path(forcing: Sequence[tuple[float, Field]]) -> list[tuple[float, Field]]:
    """Duhamel integral evaluated at every forcing node.

    Uses the group law of the free flow to accumulate the composite trapezoid
    rule in one sweep; agrees with per-node ``duhamel`` to round-off.
    """
    pairs = list(forcing)
    times = np.array([s for s, _ in pairs], dtype=float)
    if np.any(np.diff(times) <= 0):
        raise ValueError("forcing nodes must be strictly increasing")
    grid = pairs[0][1].grid
    out = [(times[0], Field.zero(grid))]
    acc = Field.zero(grid)
    for j in range(1, len(pairs)):
        dt = times[j] - times[j - 1]
        step = 0.5 * dt * (free_evolve(pairs[j - 1][1], dt) + pairs[j][1])
        acc = free_evolve(acc, dt) + step
        out.append((times[j], acc))
    return out


# ---------------------------------------------------------------------------
# Paraboloid extension operator
# ---------------------------------------------------------------------------


def unit_ball_mesh(d: int, m: int) -> tuple[np.ndarray, float]:
    """Midpoint mesh of [-1,1]^d masked to the open unit ball.

    Returns (points array of shape (count, d), cell volume).  Midpoints avoid
    evaluating profiles on the |xi| = 1 jump.
    """
    if d not in (1, 2):
        raise ValueError(f"extension operator supports d in {{1, 2}}, got {d}")
    step = 2.0 / m
    axis = -1.0 + step * (np.arange(m) + 0.5)
    grids = np.meshgrid(*([axis] * d), indexing="ij")
    pts = np.stack([a.ravel() for a in grids], axis=-1)
    inside = np.sum(pts**2, axis=1) < 1.0
    return pts[inside], step**d


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


def extension_lp_norm(
    profile: np.ndarray,
    points: np.ndarray,
    weight: float,
    radius: float,
    p: float,
    samples_per_unit: float = 2.0,
) -> float:
    """L^p norm of Ef over the space-time ball B_{d+1}(0, radius).

    Uniform midpoint mesh on [-R, R]^{d+1}, masked to the ball.  Ef
    oscillates on unit scale (frequencies in the unit ball), so a couple of
    samples per unit resolves the quadrature.
    """
    if radius < 4:
        raise ValueError(f"region radius must be >= 4, got {radius}")
    slices = [(0, points.shape[0])]
    return float(
        extension_ball_norms(profile, points, weight, radius, p, samples_per_unit, slices)[0]
    )


def extension_ball_norms(
    profile: np.ndarray,
    points: np.ndarray,
    weight: float,
    radius: float,
    p: float,
    samples_per_unit: float,
    slices: Sequence[tuple[int, int]],
) -> np.ndarray:
    """L^p norms over B_{d+1}(0, radius) of E(f 1_S), one per mesh slice S.

    Slice (a, b) keeps the frequency mesh points a..b-1, so a mesh sorted by
    cap gives every cap's extension from one pass.  The midpoint mesh of the
    ball is walked one time row at a time; the plane waves exp(i x.xi) of a
    row are products of per-axis tables exp(i x_a xi_a).
    """
    d = points.shape[1]
    m = int(math.ceil(2.0 * radius * samples_per_unit))
    step = 2.0 * radius / m
    axis = -radius + step * (np.arange(m) + 0.5)
    tables = [np.exp(1j * np.outer(axis, points[:, a])) for a in range(d)]
    index = np.indices((m,) * d).reshape(d, -1)
    r_sq = reduce(np.add, [axis[i] ** 2 for i in index])
    quad_sq = np.sum(points**2, axis=1)
    sums = np.zeros(len(slices))
    for t in axis:
        keep = np.flatnonzero(t**2 + r_sq <= radius**2)
        if keep.size == 0:
            continue
        waves = tables[0][index[0][keep]]
        for table, i in zip(tables[1:], index[1:]):
            waves *= table[i[keep]]
        coeff = profile * np.exp(1j * t * quad_sq)
        for k, (a, b) in enumerate(slices):
            sums[k] += float(np.sum(np.abs(waves[:, a:b] @ coeff[a:b]) ** p))
    return (weight**p * step ** (d + 1) * sums) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Conserved functionals
# ---------------------------------------------------------------------------


def gradient_sq_integral(f: Field) -> float:
    """int |grad f|^2 dx via the spectral representation."""
    F = to_spectrum(f)
    g = f.grid
    return float(g.dxi**g.d * np.sum(g.freq_sq() * np.abs(F.coefficients) ** 2))


def mass(f: Field) -> float:
    """||f||_{L^2}^2."""
    g = f.grid
    return float(g.cell * np.sum(np.abs(f.values) ** 2))


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
