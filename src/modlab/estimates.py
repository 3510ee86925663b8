"""Ratio sweeps and log-log exponent fits for the measured inequalities.

Each experiment computes, per scale, the two sides of one estimate, fits the
slope of log(lhs/rhs) against log(scale), and compares with the predicted
exponent plus a margin.  Margins default to 0.15 (0.2 for decoupling) to
absorb epsilon losses, periodization, and finite-scale effects.

Every space-time norm of a free flow, or of a product of piecewise free
flows given as the step ``Trajectory`` of their profiles, goes through the
one kernel ``propagator.free_flow_lp_norms``, which measures a whole sweep
in one pass over the time nodes: each sweep hands it all its products at
once, and a field that several products share is built once and shared by
identity, so it is transformed once per node.  Linear sweeps sample on the
grid itself.  The bilinear sweeps pass each field's spectral box, known by
construction (``modspace.band_box`` of its band, or a chain-log ball's own
mode range), and the kernel works out from p and the boxes the
smallest even 5-smooth grid that holds each product's support without
wrap-around, so the quadrature of |u v|^2 is exact, which makes the
Galilean invariance of measured bilinear ratios hold to near round-off.
Decoupling cells and the extension norm share the streamed ball quadrature
``propagator.extension_ball_norms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict
from functools import cache, partial, reduce
from typing import Sequence

import numpy as np

from modlab.grid import (
    Field,
    Grid,
    InvalidScales,
    Trajectory,
    forward,
    inverse,
    make_grid,
)
from modlab.modspace import (
    ModNormSpec,
    Window,
    ball_cover_centers,
    band_box,
    bump,
    make_window,
    modulation_norm,
)
from modlab.propagator import extension_ball_norms, free_flow_lp_norms, unit_ball_mesh
from modlab import datagen

__all__ = [
    "InvalidScales",
    "ExperimentConfig",
    "FitResult",
    "sdec",
    "fit_exponent",
    "smoothing_ratio",
    "strichartz_l4_ratio",
    "bilinear_ratio",
    "v2_bilinear_ratio",
    "decoupling_ratio",
]


# ---------------------------------------------------------------------------
# Configuration and fit plumbing
# ---------------------------------------------------------------------------

# every sweep measures its free flows on the time interval [0, _HORIZON]
_HORIZON = 1.0
_M42 = ModNormSpec(0.0, 4.0, 2.0)  # the window norm of the bilinear right-hand sides


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: grid, sweep, data family, and fit parameters.

    Bilinear sweeps use ``scales`` for the swept band and ``fixed_scale`` for
    the frozen one.
    """

    d: int = 1
    n: int = 256
    length: float = 8.0 * np.pi
    scales: tuple[float, ...] = (2.0, 4.0, 8.0)
    family: str = "focusing"
    seed: int = 0
    p: float = 4.0
    cube: float = 1.0
    time_nodes: int = 129
    margin: float = 0.15
    fixed_scale: float = 1.0
    min_separation: float = 1.0
    atoms: int = 1
    profile: str = "constant"

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for sc in self.scales:
            if not (0 < sc < math.inf) or 2.0 ** round(math.log2(sc)) != sc:
                raise InvalidScales(f"scales must be finite and dyadic, got {sc}")
            if self.scales.count(sc) > 1:  # it would be measured and fitted twice
                raise InvalidScales(f"scales must be distinct, got {sc:g} more than once")
        if self.time_nodes < 2:
            raise ValueError(f"time_nodes must be at least 2, got {self.time_nodes}")
        if not math.isfinite(self.margin):
            raise ValueError(f"margin must be finite, got {self.margin}")
        if self.atoms < 1:
            raise ValueError(f"atoms must be at least 1, got {self.atoms}")
        if not 0 < self.fixed_scale < math.inf:
            raise ValueError(f"fixed_scale must be positive and finite, got {self.fixed_scale}")

    def grid(self) -> Grid:
        return make_grid(self.d, self.n, self.length)

    def window(self) -> Window:
        return make_window(self.grid(), self.cube)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["scales"] = list(self.scales)
        return out


@dataclass
class FitResult:
    """Measured ratios over a scale sweep and the fitted log-log exponent."""

    scales: tuple[float, ...]
    lhs: tuple[float, ...]
    rhs: tuple[float, ...]
    ratios: tuple[float, ...]
    slope: float
    intercept: float
    residual: float
    predicted: float
    margin: float
    passed: bool
    label: str = ""
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["pass"] = out.pop("passed")
        return out


def sdec(p: float, d: int) -> float:
    """Decoupling exponent: 0 up to p = 2(d+2)/d, then d/4 - (d+2)/(2p)."""
    if p < 2:
        raise ValueError(f"need p >= 2, got {p}")
    if d < 1:
        raise ValueError(f"need d >= 1, got {d}")
    threshold = 2.0 * (d + 2.0) / d
    if p <= threshold:
        return 0.0
    return d / 4.0 - (d + 2.0) / (2.0 * p)


def fit_exponent(
    scales: Sequence[float], ratios: Sequence[float]
) -> tuple[float, float, float]:
    """Ordinary least squares of log(ratio) on log(scale).

    Returns (slope, intercept, residual) with residual the RMS misfit.
    """
    scales = np.asarray(scales, dtype=float)
    ratios = np.asarray(ratios, dtype=float)
    _require_fit_size(scales)
    if np.any(ratios <= 0):
        raise ValueError("ratios must be positive for a log-log fit")
    x = np.log(scales)
    y = np.log(ratios)
    A = np.stack([x, np.ones_like(x)], axis=1)
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = float(np.sqrt(np.mean((y - A @ coef) ** 2)))
    if not np.isfinite(slope):
        raise ValueError("degenerate fit")
    return slope, intercept, resid


def _require_fit_size(scales: Sequence[float]) -> None:
    # repeated scales add no column: three equal ones leave a rank-1 fit
    count = len(set(scales))
    if count < 3:
        raise InvalidScales(f"need at least 3 scales for a fit, got {count} distinct")


def _make_fit(scales, lhs, rhs, predicted, margin, label, meta=None) -> FitResult:
    for side, values in (("lhs", lhs), ("rhs", rhs)):
        if not all(0.0 < v < math.inf for v in values):
            raise ValueError(f"{label} {side} is not positive and finite: {list(values)}")
    ratios = tuple(a / b for a, b in zip(lhs, rhs))
    slope, intercept, resid = fit_exponent(scales, ratios)
    return FitResult(
        scales=tuple(scales),
        lhs=tuple(lhs),
        rhs=tuple(rhs),
        ratios=ratios,
        slope=slope,
        intercept=intercept,
        residual=resid,
        predicted=predicted,
        margin=margin,
        passed=slope <= predicted + margin,
        label=label,
        meta=meta or {},
    )


# ---------------------------------------------------------------------------
# Linear smoothing / Strichartz sweeps
# ---------------------------------------------------------------------------


def smoothing_ratio(config: ExperimentConfig) -> FitResult:
    """Sweep of ||exp(it Lap) u0||_{L^p_{t,x}} / ||u0||_{M_{p,2}} over scales.

    Passes when the fitted slope does not exceed twice the decoupling
    exponent plus the margin.
    """
    _require_fit_size(config.scales)
    grid = config.grid()
    window = config.window()
    if max(config.scales) > grid.xi_max / 4:
        raise InvalidScales(
            f"largest scale {max(config.scales)} exceeds xi_max/4 = {grid.xi_max / 4}"
        )
    predicted = 2.0 * sdec(config.p, config.d)
    spec = ModNormSpec(0.0, config.p, 2.0)
    data = [
        datagen.scale_family(config.family, N, config.seed, config.cube, grid)
        for N in config.scales
    ]
    products = [[u0] for u0 in data]
    lhs = free_flow_lp_norms(products, _HORIZON, config.time_nodes, config.p)
    rhs = [modulation_norm(u0, spec, window) for u0 in data]
    meta = {"window": window.describe()}
    return _make_fit(
        config.scales, lhs.tolist(), rhs, predicted, config.margin, "smoothing", meta
    )


def strichartz_l4_ratio(config: ExperimentConfig) -> FitResult:
    """The p = 4 smoothing sweep in d in {3, 4}; feeds the bilinear layer."""
    if config.d not in (3, 4):
        raise ValueError(f"strichartz harness expects d in {{3,4}}, got {config.d}")
    if config.p != 4:
        raise ValueError(f"strichartz harness measures p = 4, got p = {config.p:g}")
    out = smoothing_ratio(config)
    out.label = "strichartz_l4"
    return out


# ---------------------------------------------------------------------------
# Bilinear refinements
# ---------------------------------------------------------------------------


def _bilinear_grid(config: ExperimentConfig, pairs: Sequence[tuple[float, float]]) -> Grid:
    """The grid of a bilinear sweep, d in {3, 4}, on which every scale, the
    fixed one too, is at most xi_max/2, and each (high, low) of ``pairs``
    keeps low * min_separation <= high."""
    if config.d not in (3, 4):
        raise ValueError(f"bilinear harness expects d in {{3,4}}, got {config.d}")
    grid = config.grid()
    if max((*config.scales, config.fixed_scale)) > grid.xi_max / 2:
        raise InvalidScales("bilinear scales exceed xi_max/2")
    sep = config.min_separation
    for n_high, n_low in pairs:
        if n_low * sep > n_high:
            raise ValueError(f"regime violated: N2={n_low} > N1/{sep}={n_high / sep}")
    return grid


def bilinear_ratio(config: ExperimentConfig) -> tuple[FitResult, FitResult]:
    """Bilinear sweep in both frequencies.

    Returns (fit in N1 at fixed N2, fit in N2 at fixed N1).  The high
    frequency should carry no loss (predicted exponent 0); the low one at
    most (d-2)/2.  Every pair is checked before any cell is measured, and
    the cells of both sweeps, which share (max scale, fixed scale), are
    measured once each in one kernel sweep.  Each (band, seed) is one
    band-noise Field, none of them 0, and a field is its own key: its box,
    its one M_{4,2} norm and the kernel's table key on the object, so a
    field that several cells share is built, normed and transformed once.
    The low fit's ``meta["chain"]`` is the proof-chain log of the cell (max
    scale, smallest low scale); it reuses that cell's fields and f1's norm.
    """
    high = [(n1, config.fixed_scale) for n1 in config.scales]
    grid = _bilinear_grid(config, high)
    window = config.window()
    _require_fit_size(config.scales)
    n1_fixed = max(config.scales)
    low_scales = tuple(s for s in config.scales if s * config.min_separation <= n1_fixed)
    if len(low_scales) < 3:
        raise InvalidScales("fewer than 3 admissible low scales in the sweep")
    low = [(n1_fixed, n2) for n2 in low_scales]
    pairs = list(dict.fromkeys(high + low))

    seeds = (config.seed, config.seed + 1)
    fields = {  # (band, seed) -> Field, in pair order
        key: datagen.scale_family("band_noise", *key, config.cube, grid)
        for key in dict.fromkeys(key for pair in pairs for key in zip(pair, seeds))
    }
    boxes = {f: band_box(grid, band) for (band, _), f in fields.items()}
    norms = {f: modulation_norm(f, _M42, window) for f in fields.values()}
    products = [(fields[n1, config.seed], fields[n2, config.seed + 1]) for n1, n2 in pairs]
    lhs = free_flow_lp_norms(products, _HORIZON, config.time_nodes, 2.0, boxes)
    rhs = [norms[f1] * norms[f2] for f1, f2 in products]
    cells = dict(zip(pairs, zip(lhs.tolist(), rhs)))

    lhs_hi, rhs_hi = zip(*(cells[pair] for pair in high))
    fit_high = _make_fit(config.scales, lhs_hi, rhs_hi, 0.0, config.margin, "bilinear_high")
    lhs_lo, rhs_lo = zip(*(cells[pair] for pair in low))
    f1, f2 = fields[n1_fixed, config.seed], fields[low_scales[0], config.seed + 1]
    chain = bilinear_chain_log(config, window, (n1_fixed, low_scales[0]), f1, f2, norms[f1])
    meta = {"window": window.describe(), "fixed_high": n1_fixed, "chain": chain}
    fit_low = _make_fit(
        low_scales, lhs_lo, rhs_lo, (config.d - 2) / 2.0, config.margin, "bilinear_low", meta
    )
    return fit_high, fit_low


_CHAIN_BOXES = 8  # cover balls sampled for the per-ball space-time norms


def bilinear_chain_log(
    config: ExperimentConfig,
    window: Window,
    bands: tuple[float, float],
    f1: Field,
    f2: Field,
    f1_norm: float,
) -> dict:
    """Bookkeeping for the proof chain of the bilinear refinement.

    Logs, for one (N1, N2) = ``bands`` pair with fields ``f1``, ``f2`` and
    ``f1_norm`` = ||f1||_{M_{4,2}}: the almost-orthogonality ratio between the
    product L^2 and its ball-localized square sum, the exact Hoelder step on
    a deterministic sample of cover balls, and the overlap ratio of the
    localized modulation-norm squares.  Exact inequalities (Hoelder, the L^2
    covering bounds) are asserted; empirical constants are recorded.  The
    per-ball space-time norms are the expensive part, so they run on a
    capped box sample and a reduced time mesh, in two kernel sweeps that
    share the low field f2: the L^2 norms of the products (f1 f2 and each
    sampled piece times f2) and the L^4 norms (f2 and each piece).  The
    kernel sizes each product's grid from the factors' spectral boxes: f1
    and f2 take their bands' boxes, a piece its ball's own mode range, since
    its spectrum mask * F1 is zero outside the ball.

    A cover ball is occupied when the energy of F1 = f1^ on it is
    ``e > 0.0``, an exact-zero test, so balls holding only round-off count
    (``total_boxes``); only their centers are kept.  A ball's energy is
    summed over the block of its per-axis reaches, in a full-grid mask's
    order; only a sampled ball builds that mask.
    """
    grid = window.grid
    n_high, n_low = bands
    m = max(33, config.time_nodes // 4 + 1)

    F1 = forward(grid, f1.values)
    xi = grid.axis_freqs()

    @cache
    def reach(ci):
        # the indices of one axis within n_low of ci, and their squared distances
        dist_sq = (xi - ci) ** 2
        idx = np.flatnonzero(dist_sq <= n_low**2)
        return idx, dist_sq[idx]

    def ball(c):
        # the ball's index block and which of its points lie in the ball
        idx, dist_sq = zip(*map(reach, c))
        return np.ix_(*idx), reduce(np.add.outer, dist_sq) <= n_low**2

    def ball_box(c):
        # the ball's signed mode range per axis (each axis term bounds the
        # sum); an occupied ball reaches at least one mode on every axis
        signed = [(reach(ci)[0] + grid.n // 2) % grid.n - grid.n // 2 for ci in c]
        return tuple((int(s.min()), int(s.max())) for s in signed)

    # L^2 covering bounds are exact: sum of localized energies vs energy
    energy = np.abs(F1) ** 2
    e_total = float(np.sum(energy))
    e_boxes = 0.0
    occupied = []
    for c in ball_cover_centers(grid.d, n_high, n_low):
        block, inside = ball(c)
        e = float(np.sum(energy[block][inside]))
        e_boxes += e
        if e > 0.0:
            occupied.append(c)
    cover_ratio = e_boxes / e_total
    overlap_bound = 3.0**grid.d

    # Hoelder + product localization on a deterministic subsample of balls
    rng = np.random.default_rng(config.seed + 99)
    sample = occupied if len(occupied) <= _CHAIN_BOXES else [
        occupied[i]
        for i in sorted(rng.choice(len(occupied), size=_CHAIN_BOXES, replace=False))
    ]
    boxes = {f1: band_box(grid, n_high), f2: band_box(grid, n_low)}
    pieces = []
    for c in sample:
        block, inside = ball(c)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[block] = inside
        pieces.append(Field(grid, inverse(grid, mask * F1)))
        boxes[pieces[-1]] = ball_box(c)
    lhs, *prods = free_flow_lp_norms(
        [[f1, f2], *([piece, f2] for piece in pieces)], _HORIZON, m, 2.0, boxes
    ).tolist()
    l4_low, *l4_pieces = free_flow_lp_norms(
        [[f2], *([piece] for piece in pieces)], _HORIZON, m, 4.0, boxes=boxes
    ).tolist()
    sum_products_sq = 0.0
    holder_ok = True
    m42_sq = 0.0
    for piece, prod, l4_piece in zip(pieces, prods, l4_pieces):
        holder_ok = holder_ok and prod <= l4_piece * l4_low * (1.0 + 1e-9)
        sum_products_sq += prod**2
        m42_sq += modulation_norm(piece, _M42, window) ** 2
    m42_total = f1_norm**2
    return {
        "lhs_sq": lhs**2,
        "cover_energy_ratio": cover_ratio,
        "cover_ratio_bounds": [1.0, overlap_bound],
        "cover_ok": 1.0 - 1e-9 <= cover_ratio <= overlap_bound + 1e-9,
        "holder_ok": bool(holder_ok),
        "sampled_boxes": len(sample),
        "total_boxes": len(occupied),
        "sampled_product_sq_sum": sum_products_sq,
        "sampled_m42_sq_sum": m42_sq,
        "m42_sq_total": m42_total,
    }


# ---------------------------------------------------------------------------
# V^2 transfer
# ---------------------------------------------------------------------------


def _atomic_path(config: ExperimentConfig, grid: Grid, band: float, seed: int) -> Trajectory:
    """The profile step path of ``config.atoms`` free-trajectory atoms tiling
    [0, horizon], on linspace(0, horizon, atoms + 1); the last profile repeats
    at the horizon, so that one atom still has the two nodes of a variation."""
    profiles = [
        datagen.scale_family("band_noise", band, seed + 101 * j, config.cube, grid)
        for j in range(config.atoms)
    ]
    values = np.stack([f.values for f in profiles + profiles[-1:]])
    return Trajectory(grid, np.linspace(0.0, _HORIZON, config.atoms + 1), values)


def v2_bilinear_ratio(config: ExperimentConfig) -> FitResult:
    """Low-frequency sweep of the product bound for adapted-V^2 paths.

    Inputs are finite atomic superpositions of free trajectories; their adapted
    V^2 norms are the exact 2-variations of their profile step paths.  Passes
    when the fitted exponent stays below 2s + margin, s the Strichartz input
    exponent 2*sdec(4,d) + 0.01.
    """
    from modlab.variation import vp_norm

    _require_fit_size(config.scales)
    n_high = config.fixed_scale
    grid = _bilinear_grid(config, [(n_high, n_low) for n_low in config.scales])
    window = config.window()
    s_input = 2.0 * sdec(4.0, config.d) + 0.01
    norm = partial(modulation_norm, spec=_M42, window=window)
    v2 = partial(vp_norm, p=2.0, norm=norm, terminal_zero=True)

    hi = _atomic_path(config, grid, n_high, config.seed)
    los = [_atomic_path(config, grid, n_low, config.seed + 7) for n_low in config.scales]
    products = [[hi, lo] for lo in los]
    boxes = {lo: band_box(grid, n_low) for lo, n_low in zip(los, config.scales)}
    boxes[hi] = band_box(grid, n_high)
    lhs = free_flow_lp_norms(products, _HORIZON, config.time_nodes, 2.0, boxes)
    v2_high = v2(hi)
    rhs = [v2_high * v2(lo) for lo in los]
    meta = {"window": window.describe(), "s_input": s_input, "atoms": config.atoms}
    return _make_fit(
        config.scales, lhs.tolist(), rhs, 2.0 * s_input, config.margin, "v2_bilinear", meta
    )


# ---------------------------------------------------------------------------
# Decoupling
# ---------------------------------------------------------------------------


def _decoupling_profile(kind: str, points: np.ndarray, width: float) -> np.ndarray:
    if kind == "constant":
        return np.ones(points.shape[0])
    if kind == "bump":
        return bump(np.sum(points**2, axis=1))
    if kind == "single_cap":
        # bump confined to the interior of the first cap
        center = -1.0 + 0.5 * width
        return bump(np.sum(((points - center) / (0.25 * width)) ** 2, axis=1))
    raise ValueError(f"unknown decoupling profile {kind!r}")


def decoupling_ratio(config: ExperimentConfig) -> FitResult:
    """Sweep of D(R) = ||Ef||_{L^p(B(0,R))} / (sum_caps ||Ef_cap||^2)^{1/2}.

    Caps have width R^{-1/2}, one spelling in ``_cap_width``, which the
    cap-count guard shares; the weight is the sharp ball indicator.  The
    frequency mesh has ceil(2.6 R) points per axis, so the Poisson images of
    the quadrature sit several radii away from the ball, which
    ``extension_ball_norms`` samples 2 times per unit length.
    """
    if config.d not in (1, 2):
        raise ValueError("decoupling harness supports d in {1, 2}")
    if not 2 <= config.p < math.inf:
        raise ValueError(f"decoupling needs 2 <= p < inf, got p = {config.p}")
    _require_fit_size(config.scales)
    # the cap count (2 R^{1/2})^d grows with R: the smallest scale has fewest
    smallest = min(config.scales)
    if (2.0 / _cap_width(smallest)) ** config.d < 4:
        raise ValueError(f"R={smallest} yields fewer than 4 caps")
    lhs, cap_sq, caps = zip(*(_decoupling_cell(config, R) for R in config.scales))
    rhs = [math.sqrt(v) for v in cap_sq]
    meta = {"caps": list(caps), "profile": config.profile}
    return _make_fit(
        config.scales, lhs, rhs, sdec(config.p, config.d), config.margin, "decoupling", meta
    )


def _cap_width(R: float) -> float:
    # the side R^{-1/2} of the decoupling caps at scale R
    return R**-0.5


def _decoupling_cell(config: ExperimentConfig, R: float):
    """(||Ef||_{L^p(B_R)}, sum over caps of ||Ef_cap||_{L^p(B_R)}^2, caps).

    Caps are the disjoint cubes of width R^{-1/2} partitioning [-1, 1]^d;
    sorting the mesh by cap makes each cap a contiguous run of it, cut at
    ``bounds``.  Only caps that hold mesh points are measured and counted.
    """
    points, weight = unit_ball_mesh(config.d, int(math.ceil(2.6 * R)))
    width = _cap_width(R)
    caps = np.floor((points + 1.0) / width).astype(int)
    order = np.lexsort(caps.T[::-1])
    points = points[order]
    bounds = [*np.unique(caps[order], axis=0, return_index=True)[1], len(points)]
    profile = _decoupling_profile(config.profile, points, width)
    norms = extension_ball_norms(profile, points, weight, R, config.p, bounds)
    return float(norms[0]), sum(float(v) ** 2 for v in norms[1:]), len(bounds) - 1
