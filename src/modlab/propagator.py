"""Free Schroedinger evolution and its companions.

Sign convention, fixed once: the flow solves i u_t + Laplace(u) = 0, so the
spectral multiplier of ``free_evolve(f, t)`` is exp(-i t |xi|^2), and that
phase has one spelling, shared by ``free_multiplier`` and the product-norm
kernel.

- The Galilean twist multiplies by a plane wave and translates the spectrum.
- The Duhamel integral takes its forcing as a ``Trajectory`` and sums the
  composite trapezoid rule in one fixed order, which the solver's reported
  contraction factors depend on to the last bit.
- Space-time L^p norms of products of free flows (``free_flow_lp_norms``)
  take each factor as a Field or as the step ``Trajectory`` of its profiles
  and sample a whole sweep of products node by node, on a zero-padded grid
  when it must be alias-free.  Per node the phase is built once and each
  distinct factor object is transformed once, however many products share
  it.  The phase, the twist and the multiply act on the n^d embedded modes
  only, and ``grid.inverse_pruned`` does the padding.
- The paraboloid extension operator is direct midpoint quadrature over a
  frequency mesh of the unit ball; its ball norms are time-blocked GEMMs of
  about nmesh * m * |ball shadow| multiply-adds, restricted to d <= 2 since
  that cost grows like mesh^(2d+1).
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Sequence

import numpy as np

from modlab.grid import (
    Field, Grid, Trajectory, forward, fourier_multiply, inverse, inverse_pruned, trapezoid
)

__all__ = [
    "free_multiplier",
    "free_evolve",
    "free_flow_lp_norms",
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

_CHUNK_ROWS = 256  # spatial points of the ball's shadow in one block of GEMMs


def _flow_phase(freq_sq: np.ndarray, t: float) -> np.ndarray:
    # exp(-i t |xi|^2) from |xi|^2: the one spelling of the free-flow phase
    return np.exp(-1j * t * freq_sq)


def free_multiplier(grid: Grid, t: float) -> np.ndarray:
    """The spectral multiplier exp(-i t |xi|^2) of the free flow at time t."""
    return _flow_phase(grid.freq_sq(), t)


def free_evolve(f: Field, t: float) -> Field:
    """exp(it Laplace) f, the free flow of i u_t + Laplace(u) = 0."""
    if t == 0.0:
        return f
    return fourier_multiply(f, free_multiplier(f.grid, t))


def free_flow_lp_norms(
    products: Sequence[Sequence[Field | Trajectory]],
    horizon: float,
    m: int,
    p: float,
    pad: int = 1,
) -> np.ndarray:
    """L^p norms over [0, horizon] x torus of products of piecewise free flows,
    one per entry of ``products``, measured in one sweep of the time nodes.

    A factor is a Field f, the free flow exp(it Laplace) f, or a Trajectory
    of profiles, a right-continuous step function with first node at 0: on
    [t_k, t_{k+1}) the factor is exp(it Laplace) v_k, and the last profile
    runs to the horizon.  Factors share one grid of n points per axis; each
    product is sampled at m uniform nodes on the grid refined ``pad`` times,
    ``Grid(d, pad * n, L)``, where each spectrum keeps its modes'
    frequencies and the new modes are zero, so pad 2 makes the quadrature of
    a product of two band-limited flows alias-free (Orszag's rule).  The
    trapezoid rule integrates the spatial L^p^p in time.

    Only the n^d embedded modes are ever touched: the phase exp(-i t|xi|^2)
    is taken on the refined grid's |xi|^2 gathered at those modes (the n-point
    grid's own |xi|^2 can differ in the last bit), multiplies the n^d
    coefficients, and ``inverse_pruned`` does the padding.  A flow is bit for
    bit the inverse of the zero-padded spectrum times the refined grid's
    ``free_multiplier``.

    At each node the phase is built once, and a factor that several products
    share, the same object (``is``, never equal values), is transformed once:
    its flow is taken at its first use and dropped after its last use in
    product order.  So a product's value has the same bits whether it is
    measured alone or in a sweep, and a sweep whose consecutive products
    share a factor holds two flows at a time.  Empty ``products`` or an
    empty product, a horizon that is not finite and positive, an ``m`` that
    is not an integer >= 2, a ``pad`` that is not a positive integer, and
    p < 1 or p = inf raise ``ValueError``.
    """
    if not products:
        raise ValueError("products must hold at least one product of factors")
    for k, factors in enumerate(products):
        if not factors:
            raise ValueError(f"products[{k}] holds no factors: give a Field or Trajectory")
    if not isinstance(pad, (int, np.integer)) or pad < 1:
        raise ValueError(f"pad must be a positive integer, got {pad!r}")
    if not 1 <= p < np.inf:
        raise ValueError(f"p must be >= 1 and finite, got {p}")
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    g = products[0][0].grid
    fine = Grid(g.d, pad * g.n, g.length)
    modes = (np.fft.fftfreq(g.n) * g.n).astype(int) % fine.n
    freq_sq = fine.freq_sq()[np.ix_(*[modes] * g.d)]
    slots: dict[int, int] = {}  # id of each distinct factor -> its index in spectra
    spectra, rows, last_use = [], [], {}
    for k, factors in enumerate(products):
        for f in factors:
            if id(f) not in slots:
                if f.grid != g:
                    raise ValueError(f"factors live on different grids: {g} vs {f.grid}")
                path = f if isinstance(f, Trajectory) else Trajectory(g, [0.0], f.values[None])
                if path.times[0] != 0.0:
                    raise ValueError(
                        f"a piecewise free flow starts at t = 0, not {path.times[0]}"
                    )
                slots[id(f)] = len(spectra)
                spectra.append((path.times, forward(g, path.values)))
            last_use[slots[id(f)]] = k
        rows.append([slots[id(f)] for f in factors])
    ts = np.linspace(0.0, horizon, m)
    powers = np.empty((len(rows), m))
    for i, t in enumerate(ts):
        phase = _flow_phase(freq_sq, t)
        flows = {}
        for k, row in enumerate(rows):
            for j in row:
                if j not in flows:
                    times, F = spectra[j]
                    piece = F[np.searchsorted(times, t, "right") - 1]
                    flows[j] = inverse_pruned(fine, phase * piece, modes)
            phys = np.abs(reduce(np.multiply, [flows[j] for j in row]))
            powers[k, i] = fine.cell * np.sum(np.power(phys, p, out=phys))
            for j in row:
                if last_use[j] == k:
                    flows.pop(j, None)
    return np.array([trapezoid(row, ts) ** (1.0 / p) for row in powers])


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


def duhamel_path(forcing: Trajectory) -> Trajectory:
    """Duhamel integral evaluated at every forcing node.

    Uses the group law of the free flow to accumulate the composite trapezoid
    rule in one sweep, acc_j = S(dt) acc_{j-1} + (S(dt) F_{j-1} + F_j) dt/2
    with S(dt) the free flow over dt = t_j - t_{j-1}; agrees with per-node
    ``duhamel`` to round-off.  The sweep runs node by node, so it never
    holds a stack of per-node multipliers.
    """
    grid, times, F = forcing.grid, forcing.times, forcing.values
    acc = np.zeros_like(F)
    for j in range(1, len(times)):
        dt = times[j] - times[j - 1]
        pair = np.stack([F[j - 1], acc[j - 1]])
        evolved = inverse(grid, free_multiplier(grid, dt) * forward(grid, pair))
        step = (evolved[0] + F[j]) * (0.5 * dt)
        acc[j] = evolved[1] + step
    return Trajectory(grid, times, acc)


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
    cap gives every cap's extension from one pass.  Only the ball mask
    depends on t: C[xi, t] = f(xi) exp(i t |xi|^2) is built once, the shadow
    |x| <= radius is walked in blocks of ``_CHUNK_ROWS`` points, whose plane
    waves are products of per-axis tables exp(i x_a xi_a), and each slice
    takes one GEMM with C for all m times, keeping the samples in the ball.
    """
    d = points.shape[1]
    m = int(math.ceil(2.0 * radius * samples_per_unit))
    step = 2.0 * radius / m
    axis = -radius + step * (np.arange(m) + 0.5)
    tables = [np.exp(1j * np.outer(axis, points[:, a])) for a in range(d)]
    index = np.indices((m,) * d).reshape(d, -1)
    r_sq = reduce(np.add, [axis[i] ** 2 for i in index])
    shadow = np.flatnonzero(r_sq <= radius**2)
    quad_sq = np.sum(points**2, axis=1)
    coeff = profile[:, None] * np.exp(1j * np.outer(quad_sq, axis))
    sums = np.zeros(len(slices))
    for start in range(0, shadow.size, _CHUNK_ROWS):
        rows = shadow[start : start + _CHUNK_ROWS]
        waves = tables[0][index[0][rows]]
        for table, i in zip(tables[1:], index[1:]):
            waves *= table[i[rows]]
        inside = axis**2 + r_sq[rows, None] <= radius**2
        for k, (a, b) in enumerate(slices):
            sums[k] += np.sum(np.abs(waves[:, a:b] @ coeff[a:b])[inside] ** p)
    return (weight**p * step ** (d + 1) * sums) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Conserved functionals
# ---------------------------------------------------------------------------


def gradient_sq_integral(f: Field) -> float:
    """int |grad f|^2 dx via the spectral representation."""
    g = f.grid
    return float(g.dxi**g.d * np.sum(g.freq_sq() * np.abs(forward(g, f.values)) ** 2))


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
