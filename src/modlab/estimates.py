"""Ratio sweeps and log-log exponent fits for the measured inequalities.

Each experiment computes, per scale, the two sides of one estimate, fits the
slope of log(lhs/rhs) against log(scale), and compares with the predicted
exponent plus a margin.  Margins default to 0.15 (0.2 for decoupling) to
absorb epsilon losses, periodization, and finite-scale effects.

Every space-time norm of a free flow, or of a product of piecewise free
flows, goes through the one kernel ``propagator.free_flow_lp_norm``.  The
linear sweeps sample on the grid itself; products are sampled on the 2x
zero-padded grid so the quadrature of |u v|^2 is alias-free, which is what
makes the Galilean invariance of measured bilinear ratios hold to near
round-off.  Decoupling cells and the extension norm share the streamed ball
quadrature ``propagator.extension_ball_norms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict, replace
from functools import reduce
from typing import Sequence

import numpy as np

from modlab.grid import (
    Field,
    Grid,
    SpectralField,
    from_spectrum,
    lp_norm,
    make_grid,
    to_spectrum,
)
from modlab.modspace import (
    ModNormSpec,
    Window,
    ball_cover_centers,
    bump,
    make_window,
    modulation_norm,
    _annulus_multiplier,
)
from modlab.propagator import extension_ball_norms, free_flow_lp_norm, unit_ball_mesh
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


class InvalidScales(ValueError):
    """A scale sweep the grid or the fit cannot support."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: grid, sweep, data family, and fit parameters.

    Bilinear sweeps use ``scales`` for the swept band and ``fixed_scale`` for
    the frozen one; ``sweep`` says which of the two frequencies is swept.
    """

    d: int = 1
    n: int = 256
    length: float = 8.0 * np.pi
    scales: tuple[float, ...] = (2.0, 4.0, 8.0)
    family: str = "focusing"
    seed: int = 0
    p: float = 4.0
    s: float = 0.0
    q: float = 2.0
    cube: float = 1.0
    horizon: float = 1.0
    time_nodes: int = 129
    margin: float = 0.15
    fixed_scale: float = 1.0
    sweep: str = "low"
    min_separation: float = 1.0
    atoms: int = 1
    mesh: int = 0
    samples_per_unit: float = 2.0
    profile: str = "constant"

    def __post_init__(self):
        for sc in self.scales:
            if sc <= 0 or 2.0 ** round(math.log2(sc)) != sc:
                raise InvalidScales(f"scales must be dyadic, got {sc}")

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
        return {
            "label": self.label,
            "scales": list(self.scales),
            "lhs": list(self.lhs),
            "rhs": list(self.rhs),
            "ratios": list(self.ratios),
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "predicted": self.predicted,
            "margin": self.margin,
            "pass": self.passed,
            "meta": self.meta,
        }


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
    if scales.size < 3:
        raise InvalidScales(f"need at least 3 scales for a fit, got {scales.size}")
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


def _make_fit(scales, lhs, rhs, predicted, margin, label, meta=None) -> FitResult:
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
# Data families and evolution helpers
# ---------------------------------------------------------------------------


def _bump_at(grid: Grid, center: Sequence[float], width: float) -> Field:
    """Smooth spectral bump of the given width centered at a frequency."""
    arg = reduce(
        np.add, [((xi - c) / width) ** 2 for xi, c in zip(grid.freqs(), center)]
    )
    return from_spectrum(SpectralField(grid, bump(arg)))


def _band_noise(grid: Grid, band: float, seed: int) -> Field:
    """Gaussian white noise through the dyadic annulus multiplier at ``band``."""
    rng = np.random.default_rng([int(seed), int(round(band * 16))])
    white = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    mult = _annulus_multiplier(grid, band)
    return from_spectrum(SpectralField(grid, mult * white))


def scale_family(config: ExperimentConfig, scale: float, grid: Grid) -> Field:
    """Initial data concentrated at frequency ``scale`` per the config family."""
    if config.family == "focusing":
        return datagen.focusing_data(scale, grid)
    if config.family == "random_phase":
        return datagen.random_phase_data(scale, config.seed, grid)
    if config.family == "bump":
        center = [0.0] * grid.d
        center[0] = scale
        return _bump_at(grid, center, 0.45 * config.cube)
    if config.family == "band_noise":
        return _band_noise(grid, scale, config.seed)
    raise ValueError(f"unknown data family {config.family!r}")


# ---------------------------------------------------------------------------
# Linear smoothing / Strichartz sweeps
# ---------------------------------------------------------------------------


def smoothing_ratio(config: ExperimentConfig) -> FitResult:
    """Sweep of ||exp(it Lap) u0||_{L^p_{t,x}} / ||u0||_{M_{p,2}} over scales.

    Passes when the fitted slope does not exceed twice the decoupling
    exponent plus the margin.
    """
    grid = config.grid()
    window = config.window()
    if max(config.scales) > grid.xi_max / 4:
        raise InvalidScales(
            f"largest scale {max(config.scales)} exceeds xi_max/4 = {grid.xi_max / 4}"
        )
    spec = ModNormSpec(0.0, config.p, 2.0)
    lhs, rhs = [], []
    for N in config.scales:
        u0 = scale_family(config, N, grid)
        if lp_norm(u0, 2) == 0.0:
            raise ValueError("degenerate data family: zero field")
        lhs.append(free_flow_lp_norm([[(0.0, u0)]], config.horizon, config.time_nodes, config.p))
        rhs.append(modulation_norm(u0, spec, window))
    predicted = 2.0 * sdec(config.p, config.d)
    meta = {"window": window.describe()}
    return _make_fit(
        config.scales, lhs, rhs, predicted, config.margin, "smoothing", meta
    )


def strichartz_l4_ratio(config: ExperimentConfig) -> FitResult:
    """The p = 4 smoothing sweep in d in {3, 4}; feeds the bilinear layer."""
    if config.d not in (3, 4):
        raise ValueError(f"strichartz harness expects d in {{3,4}}, got {config.d}")
    out = smoothing_ratio(replace(config, p=4.0))
    out.label = "strichartz_l4"
    return out


# ---------------------------------------------------------------------------
# Bilinear refinements
# ---------------------------------------------------------------------------


def _bilinear_cell(
    config: ExperimentConfig,
    grid: Grid,
    window: Window,
    n_high: float,
    n_low: float,
) -> tuple[float, float]:
    """One (N1, N2) measurement: product L^2 over [0, horizon] and the
    product of the two M_{4,2} norms."""
    f1 = _band_noise(grid, n_high, config.seed)
    f2 = _band_noise(grid, n_low, config.seed + 1)
    if lp_norm(f2, 2) == 0.0 or lp_norm(f1, 2) == 0.0:
        raise ValueError("zero field in bilinear data")
    spec = ModNormSpec(0.0, 4.0, 2.0)
    rhs = modulation_norm(f1, spec, window) * modulation_norm(f2, spec, window)
    lhs = free_flow_lp_norm(
        [[(0.0, f1)], [(0.0, f2)]], config.horizon, config.time_nodes, 2.0, pad=2
    )
    return lhs, rhs


def bilinear_ratio(
    config: ExperimentConfig, log_chain: bool = True
) -> tuple[FitResult, FitResult]:
    """Bilinear sweep in both frequencies.

    Returns (fit in N1 at fixed N2, fit in N2 at fixed N1).  The high
    frequency should carry no loss (predicted exponent 0); the low one at
    most (d-2)/2.
    """
    if config.d not in (3, 4):
        raise ValueError(f"bilinear harness expects d in {{3,4}}, got {config.d}")
    grid = config.grid()
    window = config.window()
    if max((*config.scales, config.fixed_scale)) > grid.xi_max / 2:
        raise InvalidScales("bilinear scales exceed xi_max/2")

    def check_sep(n_high, n_low):
        if n_low * config.min_separation > n_high:
            raise ValueError(
                f"regime violated: N2={n_low} > N1/{config.min_separation}={n_high}"
            )

    lhs_hi, rhs_hi = [], []
    for n1 in config.scales:
        check_sep(n1, config.fixed_scale)
        a, b = _bilinear_cell(config, grid, window, n1, config.fixed_scale)
        lhs_hi.append(a)
        rhs_hi.append(b)
    fit_high = _make_fit(
        config.scales, lhs_hi, rhs_hi, 0.0, config.margin, "bilinear_high"
    )

    n1_fixed = max(config.scales)
    lhs_lo, rhs_lo = [], []
    low_scales = tuple(s for s in config.scales if s * config.min_separation <= n1_fixed)
    if len(low_scales) < 3:
        raise InvalidScales("fewer than 3 admissible low scales in the sweep")
    for n2 in low_scales:
        a, b = _bilinear_cell(config, grid, window, n1_fixed, n2)
        lhs_lo.append(a)
        rhs_lo.append(b)
    meta = {"window": window.describe(), "fixed_high": n1_fixed}
    if log_chain:
        meta["chain"] = bilinear_chain_log(
            config, grid, window, n1_fixed, low_scales[0]
        )
    fit_low = _make_fit(
        low_scales,
        lhs_lo,
        rhs_lo,
        (config.d - 2) / 2.0,
        config.margin,
        "bilinear_low",
        meta,
    )
    return fit_high, fit_low


def bilinear_chain_log(
    config: ExperimentConfig,
    grid: Grid,
    window: Window,
    n_high: float,
    n_low: float,
    max_boxes: int = 8,
) -> dict:
    """Bookkeeping for the proof chain of the bilinear refinement.

    Logs, for one (N1, N2) pair: the almost-orthogonality ratio between the
    product L^2 and its ball-localized square sum, the exact Hoelder step on
    a deterministic sample of cover balls, and the overlap ratio of the
    localized modulation-norm squares.  Exact inequalities (Hoelder, the L^2
    covering bounds) are asserted; empirical constants are recorded.  The
    per-ball space-time norms are the expensive part, so they run on a
    capped box sample and a reduced time mesh.
    """
    f1 = _band_noise(grid, n_high, config.seed)
    f2 = _band_noise(grid, n_low, config.seed + 1)
    spec = ModNormSpec(0.0, 4.0, 2.0)
    m = max(33, config.time_nodes // 4 + 1)
    lhs = free_flow_lp_norm([[(0.0, f1)], [(0.0, f2)]], config.horizon, m, 2.0, pad=2)

    centers = ball_cover_centers(grid.d, n_high, n_low)
    F1 = to_spectrum(f1)
    dist_fn = lambda c: reduce(
        np.add, [(xi - ci) ** 2 for xi, ci in zip(grid.freqs(), c)]
    )
    # L^2 covering bounds are exact: sum of localized energies vs energy
    e_total = float(np.sum(np.abs(F1.coefficients) ** 2))
    e_boxes = 0.0
    occupied = []
    for c in centers:
        mask = dist_fn(c) <= n_low**2
        e = float(np.sum(np.abs(F1.coefficients[mask]) ** 2))
        e_boxes += e
        if e > 0.0:
            occupied.append((c, mask, e))
    cover_ratio = e_boxes / e_total
    overlap_bound = 3.0**grid.d

    # Hoelder + product localization on a deterministic subsample of balls
    rng = np.random.default_rng(config.seed + 99)
    sample = occupied if len(occupied) <= max_boxes else [
        occupied[i]
        for i in sorted(rng.choice(len(occupied), size=max_boxes, replace=False))
    ]
    l4_low = free_flow_lp_norm([[(0.0, f2)]], config.horizon, m, 4.0)
    sum_products_sq = 0.0
    holder_ok = True
    m42_sq = 0.0
    for c, mask, _ in sample:
        piece = from_spectrum(SpectralField(grid, mask * F1.coefficients))
        prod = free_flow_lp_norm(
            [[(0.0, piece)], [(0.0, f2)]], config.horizon, m, 2.0, pad=2
        )
        l4_piece = free_flow_lp_norm([[(0.0, piece)]], config.horizon, m, 4.0)
        holder_ok = holder_ok and prod <= l4_piece * l4_low * (1.0 + 1e-9)
        sum_products_sq += prod**2
        m42_sq += modulation_norm(piece, spec, window) ** 2
    m42_total = modulation_norm(f1, spec, window) ** 2
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


def _atomic_path(
    config: ExperimentConfig, grid: Grid, band: float, seed: int
) -> list[tuple[float, Field]]:
    """Atomic superposition data: pieces (t_start, field) tiling [0, horizon]
    with ``config.atoms`` free-trajectory atoms."""
    k = max(1, config.atoms)
    cuts = np.linspace(0.0, config.horizon, k + 1)
    pieces = []
    for j in range(k):
        f = _band_noise(grid, band, seed + 101 * j)
        if lp_norm(f, 2) == 0.0:
            raise ValueError("zero path piece in atomic data")
        pieces.append((float(cuts[j]), f))
    return pieces


def v2_bilinear_ratio(config: ExperimentConfig) -> FitResult:
    """Low-frequency sweep of the product bound for adapted-V^2 paths.

    Inputs are finite atomic superpositions of free trajectories, whose
    adapted V^2 norms are computed exactly from the piece structure.  Passes
    when the fitted exponent stays below 2s + margin, s the Strichartz input
    exponent (config.s; 2*sdec(4,d) + epsilon when left at zero).
    """
    from modlab.variation import ModValueNorm, SampledPath, vp_norm

    if config.d not in (3, 4):
        raise ValueError(f"bilinear harness expects d in {{3,4}}, got {config.d}")
    grid = config.grid()
    window = config.window()
    n_high = config.fixed_scale
    s_input = config.s if config.s > 0 else 2.0 * sdec(4.0, config.d) + 0.01
    norm = ModValueNorm(ModNormSpec(0.0, 4.0, 2.0), window)

    def adapted_v2(pieces) -> float:
        # undoing the flow turns each free segment back into its profile, so
        # the adapted path is the step path of the profiles themselves,
        # sampled at the cut times
        times = tuple(a for a, _ in pieces) + (config.horizon,)
        fields = tuple(f for _, f in pieces) + (pieces[-1][1],)
        path = SampledPath(times, fields, norm)
        return vp_norm(path, 2.0, terminal_zero=True)

    lhs, rhs = [], []
    for n_low in config.scales:
        if n_low * config.min_separation > n_high:
            raise ValueError(
                f"regime violated: K={n_low} > N/{config.min_separation}={n_high}"
            )
        hi_pieces = _atomic_path(config, grid, n_high, config.seed)
        lo_pieces = _atomic_path(config, grid, n_low, config.seed + 7)
        lhs.append(
            free_flow_lp_norm(
                [hi_pieces, lo_pieces], config.horizon, config.time_nodes, 2.0, pad=2
            )
        )
        rhs.append(adapted_v2(hi_pieces) * adapted_v2(lo_pieces))
    meta = {"window": window.describe(), "s_input": s_input, "atoms": config.atoms}
    return _make_fit(
        config.scales, lhs, rhs, 2.0 * s_input, config.margin, "v2_bilinear", meta
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

    Caps have width R^{-1/2}; the weight is the sharp ball indicator.  The
    frequency mesh is sized with R so the Poisson images of the quadrature
    sit several radii away from the sampled ball.
    """
    if config.d not in (1, 2):
        raise ValueError("decoupling harness supports d in {1, 2}")
    lhs, rhs = [], []
    caps_seen = []
    for R in config.scales:
        width = R**-0.5
        if (2.0 / width) ** config.d < 4:
            raise ValueError(f"R={R} yields fewer than 4 caps")
        value, cap_sq = _decoupling_cell(config, R, width)
        lhs.append(value)
        rhs.append(math.sqrt(cap_sq))
        caps_seen.append(int(round((2.0 / width) ** config.d)))
    predicted = sdec(config.p, config.d)
    meta = {"caps": caps_seen, "profile": config.profile}
    return _make_fit(
        config.scales, lhs, rhs, predicted, config.margin, "decoupling", meta
    )


def _decoupling_cell(config: ExperimentConfig, R: float, width: float):
    """(||Ef||_{L^p(B_R)}, sum over caps of ||Ef_cap||_{L^p(B_R)}^2).

    Caps are the disjoint cubes of the given width partitioning [-1, 1]^d;
    sorting the mesh by cap makes each cap a contiguous slice of it.
    """
    mesh = config.mesh if config.mesh > 0 else int(math.ceil(2.6 * R))
    points, weight = unit_ball_mesh(config.d, mesh)
    caps = np.floor((points + 1.0) / width).astype(int)
    order = np.lexsort(caps.T[::-1])
    points = points[order]
    bounds = [*np.unique(caps[order], axis=0, return_index=True)[1], len(points)]
    slices = [(0, len(points)), *zip(bounds[:-1], bounds[1:])]
    profile = _decoupling_profile(config.profile, points, width)
    norms = extension_ball_norms(
        profile, points, weight, R, config.p, config.samples_per_unit, slices
    )
    return float(norms[0]), sum(float(v) ** 2 for v in norms[1:])
