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
  and sample a whole sweep of products node by node.  A boxed factor keeps
  the modes of its spectral box; a product of boxed factors at an even p
  runs on the smallest even 5-smooth grid on which its quadrature is
  exact, any other on the factors' own grid.  Each distinct factor object
  is gathered once, and per node the phase is built once per set of modes
  and the factor is transformed once per grid size, however many products
  share it.  The phase, the twist and the multiply act on the kept modes
  only, and ``grid.inverse_pruned`` does the embedding.
- The paraboloid extension operator is measured only by its ball norms,
  of Ef and of each cap's piece: midpoint quadrature over a frequency mesh
  of the unit ball.  Blocks of shadow points of similar |x| take one GEMM
  per cap over the times their ball mask keeps, and Ef is the sum of the
  cap blocks, so the work is about nmesh * |ball| multiply-adds; it is
  restricted to d <= 2 since that cost grows like mesh^(2d+1).  The blocks
  are independent and run two at a time on ``grid.two_thread_map``; each
  block's power sums are kept apart and added in block order, so the norms
  do not depend on how the threads are scheduled.
- Both kernels sum |.|^p through ``grid.abs_power``, which squares at even
  p, the p of every product and decoupling estimate.
"""

from __future__ import annotations

import math
from functools import reduce
from typing import Mapping, Sequence

import numpy as np

from modlab.grid import (
    Field, Grid, Trajectory, abs_power, check_exponent, forward, fourier_multiply, inverse,
    inverse_pruned, trapezoid, two_thread_map,
)

__all__ = [
    "free_multiplier",
    "free_evolve",
    "free_flow_lp_norms",
    "galilean_shift",
    "duhamel_path",
    "unit_ball_mesh",
    "extension_ball_norms",
    "gradient_sq_integral",
    "mass",
]

# shadow points of similar |x| in one block of cap GEMMs; two blocks are in
# flight, one per thread
_CHUNK_ROWS = 32


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
    boxes: Mapping[Field | Trajectory, Sequence[tuple[int, int]]] | None = None,
) -> np.ndarray:
    """L^p norms over [0, horizon] x torus of products of piecewise free flows,
    one per entry of ``products``, measured in one sweep of the time nodes.

    A factor is a Field f, the free flow exp(it Laplace) f, or a Trajectory
    of profiles, a right-continuous step function with first node at 0: on
    [t_k, t_{k+1}) the factor is exp(it Laplace) v_k, and the last profile
    runs to the horizon.  Factors share one grid of n points per axis.  The
    trapezoid rule over m uniform nodes integrates the spatial L^p^p in time.

    ``boxes`` maps a factor object to its spectral box, one signed mode range
    (lo, hi) per axis outside which its spectrum is zero by construction
    (round-off aside); the caller knows it, it is never read from values.  A
    boxed factor keeps the modes of its box, any other factor all n^d modes.
    For p = 2k, k an integer, and every factor boxed, |product|^p =
    |product^k|^2 and product^k spans W = k max_a sum_i (hi_ia - lo_ia) + 1
    modes per axis, so its Riemann sum is exact on any M >= W points: the
    product is sampled on ``Grid(d, M, L)``, M the smallest even 2^a 3^b 5^c
    >= W, with each factor's modes embedded at m mod M.  Every other product
    (odd or non-integer p, or a factor without a box) is sampled on the
    factors' own grid.

    Only the kept modes are ever touched: each factor's spectrum is gathered
    once at its modes, the phase exp(-i t|xi|^2), taken on the grid's own
    |xi|^2 at those modes, multiplies the coefficients, and
    ``inverse_pruned`` does the embedding.

    A factor is its own key: Field and Trajectory hash by identity
    (``eq=False``), so one table keyed by the factor objects holds each
    distinct factor's profile times, spectra and kept modes, and equal
    values in two objects are two entries.  At each node the phase is built
    once per set of kept modes, and a factor that several products of one
    size share is transformed once at that size: its flow, keyed by
    (factor, size), is taken at its first use and dropped after its last
    use at that size in product order.  So a product's value has the same
    bits whether it is measured alone or in a sweep.  Empty ``products`` or
    an empty product, a horizon that is not finite and positive, an ``m``
    that is not an integer >= 2, p < 1 or p = inf, and a box that is not one
    range -n/2 <= lo <= hi < n/2 per axis raise ``ValueError``.
    """
    if not products:
        raise ValueError("products must hold at least one product of factors")
    for k, factors in enumerate(products):
        if not factors:
            raise ValueError(f"products[{k}] holds no factors: give a Field or Trajectory")
    check_exponent(p)
    if not 0 < horizon < np.inf:
        raise ValueError(f"horizon must be finite and positive, got {horizon}")
    if not isinstance(m, (int, np.integer)) or m < 2:
        raise ValueError(f"m must be an integer >= 2, got {m!r}")
    boxes = boxes or {}
    g = products[0][0].grid
    full = (tuple((np.fft.fftfreq(g.n) * g.n).astype(int).tolist()),) * g.d
    table: dict[Field | Trajectory, tuple] = {}  # factor -> times, spectra, kept modes
    freq_sq, sizes = {}, []
    for factors in products:
        for f in factors:
            if f not in table:
                if f.grid != g:
                    raise ValueError(f"factors live on different grids: {g} vs {f.grid}")
                path = f if isinstance(f, Trajectory) else Trajectory(g, [0.0], f.values[None])
                if path.times[0] != 0.0:
                    raise ValueError(
                        f"a piecewise free flow starts at t = 0, not {path.times[0]}"
                    )
                kept = _box_modes(g, boxes[f]) if f in boxes else full
                block = np.ix_(*[np.array(axis) % g.n for axis in kept])
                table[f] = (path.times, forward(g, path.values)[(slice(None), *block)], kept)
                freq_sq[kept] = g.freq_sq()[block]
        size = g.n
        if p % 2 == 0 and all(f in boxes for f in factors):
            spans = [[len(axis) - 1 for axis in table[f][2]] for f in factors]
            size = _even_smooth(int(p // 2) * max(map(sum, zip(*spans))) + 1)
        sizes.append(size)
    last_use = {
        (f, size): k for k, (factors, size) in enumerate(zip(products, sizes)) for f in factors
    }
    grids = {size: Grid(g.d, size, g.length) for size in set(sizes)}
    ts = np.linspace(0.0, horizon, m)
    powers = np.empty((len(products), m))
    for i, t in enumerate(ts):
        phases, flows = {}, {}
        for k, (factors, size) in enumerate(zip(products, sizes)):
            for f in factors:
                if (f, size) not in flows:
                    times, F, kept = table[f]
                    if kept not in phases:
                        phases[kept] = _flow_phase(freq_sq[kept], t)
                    piece = F[np.searchsorted(times, t, "right") - 1]
                    flows[f, size] = inverse_pruned(grids[size], phases[kept] * piece, kept)
            product = reduce(np.multiply, [flows[f, size] for f in factors])
            powers[k, i] = grids[size].cell * np.sum(abs_power(product, p))
            for f in factors:
                if last_use[f, size] == k:
                    flows.pop((f, size), None)
    return np.array([trapezoid(row, ts) ** (1.0 / p) for row in powers])


def _box_modes(grid: Grid, box: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], ...]:
    # the signed modes lo..hi of each axis of a spectral box
    half = grid.n // 2
    if len(box) != grid.d or not all(-half <= lo <= hi < half for lo, hi in box):
        raise ValueError(
            f"a box is one (lo, hi) with -{half} <= lo <= hi < {half} per axis, got {box}"
        )
    return tuple(tuple(range(int(lo), int(hi) + 1)) for lo, hi in box)


def _even_smooth(w: int) -> int:
    """The smallest even 2^a 3^b 5^c >= w."""
    size = max(2, w + w % 2)
    while True:
        rest = size
        for prime in (2, 3, 5):
            while rest % prime == 0:
                rest //= prime
        if rest == 1:
            return size
        size += 2


def galilean_shift(f: Field, xi0: Sequence[float]) -> Field:
    """Multiply by exp(i x.xi0) for a lattice frequency xi0.

    On the spectral side this is an exact cyclic translation of the
    coefficients by xi0.
    """
    g = f.grid
    xi0 = np.atleast_1d(np.asarray(xi0, dtype=float))
    if xi0.shape != (g.d,):
        raise ValueError(f"frequency vector must have {g.d} components")
    idx = xi0 / g.dxi
    if np.max(np.abs(idx - np.round(idx))) > 1e-9:
        raise ValueError(f"{tuple(xi0)} is not on the frequency lattice")
    phase = reduce(np.add, [x * v for x, v in zip(g.coords(), xi0)])
    return Field(g, np.exp(1j * phase) * f.values)


def duhamel_path(forcing: Trajectory) -> Trajectory:
    """Duhamel integral evaluated at every forcing node.

    Uses the group law of the free flow to accumulate the composite trapezoid
    rule in one sweep, acc_j = S(dt) acc_{j-1} + (S(dt) F_{j-1} + F_j) dt/2
    with S(dt) the free flow over dt = t_j - t_{j-1}; agrees with the
    per-node trapezoid sum to round-off.  The sweep runs node by node, so it never
    holds a stack of per-node multipliers: S(dt) is built once per distinct
    dt (uniform nodes repeat a few), and each node's pair (F_{j-1},
    acc_{j-1}) fills one buffer.
    """
    grid, times, F = forcing.grid, forcing.times, forcing.values
    acc = np.zeros_like(F)
    pair = np.empty((2, *F.shape[1:]), dtype=acc.dtype)
    flows: dict[float, np.ndarray] = {}
    for j in range(1, len(times)):
        dt = times[j] - times[j - 1]
        if dt not in flows:
            flows[dt] = free_multiplier(grid, dt)
        pair[0], pair[1] = F[j - 1], acc[j - 1]
        evolved = inverse(grid, flows[dt] * forward(grid, pair))
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


def extension_ball_norms(
    profile: np.ndarray,
    points: np.ndarray,
    weight: float,
    radius: float,
    p: float,
    samples_per_unit: float,
    cuts: Sequence[int],
) -> np.ndarray:
    """L^p norms over B_{d+1}(0, radius) of Ef and of each cap's E(f 1_S).

    The mesh is sorted by cap and cap j keeps the points cuts[j]..cuts[j+1]-1,
    with 0 = cuts[0] < ... < cuts[-1] = len(points); the result holds the
    whole mesh's norm first, then one per cap.  C[xi, t] = f(xi) exp(i t|xi|^2)
    is built once.  The ball's shadow |x| <= radius is sorted by |x| and cut
    into blocks of ``_CHUNK_ROWS`` points, which ``two_thread_map`` runs two
    at a time.  Each block builds its ball mask and the plane waves
    exp(i x.xi) of its own rows, so beside C (mesh x m) the cell holds two
    blocks' waves at a time.  Each block multiplies only the contiguous run
    of time columns that its rows' ball mask keeps: one GEMM per cap, and Ef
    is the sum of the cap blocks, so no GEMM spans the whole mesh.  The
    power sums weigh |.|^p by the block's float ball mask, so they cover
    exactly the samples in the ball.  Each block returns its own sums, and
    they are added in block order: the partition into blocks is fixed, so
    the norms have the same bits whichever thread ran a block, and when.
    """
    d = points.shape[1]
    m = int(math.ceil(2.0 * radius * samples_per_unit))
    step = 2.0 * radius / m
    axis = -radius + step * (np.arange(m) + 0.5)
    index = np.indices((m,) * d).reshape(d, -1)
    r_sq = reduce(np.add, [axis[i] ** 2 for i in index])
    coeff = _expi(np.sum(points**2, axis=1)[:, None], axis[:, None])
    coeff *= profile[:, None]
    caps = list(zip(cuts[:-1], cuts[1:]))
    blocks = _ball_blocks(r_sq, radius)

    def block_sums(j: int) -> np.ndarray:
        # the power sums of Ef, then of each cap, over block j's samples
        rows = blocks[j]
        lo, hi, mask = _ball_window(axis, r_sq[rows], radius)
        waves = _expi(axis[index[:, rows]].T, points)
        sums = np.empty(1 + len(caps))
        ef = np.zeros((rows.size, hi - lo), complex)
        for k, (a, b) in enumerate(caps, 1):
            block = waves[:, a:b] @ coeff[a:b, lo:hi]
            ef += block
            sums[k] = _power_sum(block, p, mask)
        sums[0] = _power_sum(ef, p, mask)
        return sums

    sums = sum(two_thread_map(block_sums, len(blocks)), np.zeros(1 + len(caps)))
    return (weight**p * step ** (d + 1) * sums) ** (1.0 / p)


def _expi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # exp(i a_j.b_k) for a of shape (J, d) and b of shape (K, d): the phase
    # summed over the d axes into the imaginary part, exponentiated in place
    out = np.zeros((len(a), len(b)), complex)
    np.multiply.outer(a[:, 0], b[:, 0], out=out.imag)
    for a_axis, b_axis in zip(a.T[1:], b.T[1:]):
        out.imag += np.multiply.outer(a_axis, b_axis)
    return np.exp(out, out=out)


def _ball_blocks(r_sq: np.ndarray, radius: float) -> list[np.ndarray]:
    """The shadow points |x|^2 <= radius^2, sorted by |x|^2, in blocks of at
    most ``_CHUNK_ROWS``; only the last block can be short."""
    shadow = np.flatnonzero(r_sq <= radius**2)
    shadow = shadow[np.argsort(r_sq[shadow], kind="stable")]
    return [shadow[start : start + _CHUNK_ROWS] for start in range(0, shadow.size, _CHUNK_ROWS)]


def _ball_window(axis: np.ndarray, r_sq: np.ndarray, radius: float):
    """(lo, hi, mask) of a block of shadow points with squared radii
    ``r_sq``: the times lo..hi-1 are the columns the block's ball mask
    t^2 + |x|^2 <= radius^2 keeps, found by index, and ``mask`` is that mask
    on them as floats.

    No window is empty: every shadow point keeps the times nearest 0.  With
    m odd the midpoint axis holds t = 0; with m even |x|^2 and radius^2 are
    (step/2)^2 times sums of d <= 2 odd squares and m^2, which differ by 2
    or more, so |x|^2 <= radius^2 leaves room for t^2 = (step/2)^2.
    """
    inside = axis**2 + r_sq[:, None] <= radius**2
    kept = np.flatnonzero(inside.any(axis=0))
    lo, hi = kept[0], kept[-1] + 1
    return lo, hi, inside[:, lo:hi].astype(float)


def _power_sum(z: np.ndarray, p: float, mask: np.ndarray) -> float:
    # sum of |z|^p over the samples the float mask keeps, as one dot product;
    # einsum, not BLAS ddot, whose threads would split the sum.  That keeps
    # the sum's bits independent of OPENBLAS_NUM_THREADS, but not z's: the
    # cap GEMMs give the same bits at 1 and 2 threads only while a cap holds
    # fewer than about 222 mesh points
    return float(np.einsum("ij,ij->", abs_power(z, p), mask))


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

