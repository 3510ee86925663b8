"""Isometric frequency decomposition and modulation norms.

The decomposition windows are integer translates of one smooth profile,
normalized so the translated squares sum to one.  The profile is a tensor
product of a 1-d bump, which makes the normalization separable per axis and
the square partition identity exact to round-off on every representable
frequency.  Consequently the (s=0, p=2, q=2) modulation norm coincides with
the L^2 norm up to round-off, not just up to a constant.

A ``cube`` parameter scales the side length of the decomposition cubes.  Unit
cubes are the default; small desk-scale grids use larger cubes so that each
cube still holds several lattice modes.  Parabolic rescaling maps either
convention onto the other without changing fitted exponents.

Dyadic (Littlewood-Paley) projections are smooth annulus multipliers that
telescope exactly; ball projections are sharp cutoffs so the overlap counting
of a covering family is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Sequence

import numpy as np

from modlab.grid import Field, Grid, SpectralField, from_spectrum, to_spectrum

__all__ = [
    "ModNormSpec",
    "bump",
    "Window",
    "make_window",
    "iso_piece",
    "modulation_norm",
    "dyadic_project",
    "dyadic_multipliers",
    "box_project",
    "ball_cover_centers",
    "SumSpaceBound",
    "sum_space_norm_upper",
]


@dataclass(frozen=True)
class ModNormSpec:
    """Modulation-norm parameters: bracket weight s, spatial p, lattice q."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError(f"p and q must be >= 1, got p={self.p}, q={self.q}")


def bump(r_sq: np.ndarray) -> np.ndarray:
    """C^inf bump exp(-1/(1-r^2)) as a function of r^2, zero for r >= 1."""
    r_sq = np.asarray(r_sq, dtype=float)
    out = np.zeros_like(r_sq)
    inside = r_sq < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - r_sq[inside]))
    return out


@dataclass(frozen=True)
class Window:
    """Square partition of unity from cube-lattice translates of one bump.

    ``kmax`` bounds the per-axis lattice index; the lattice is chosen large
    enough that every representable frequency is covered, so the partition
    identity holds on the whole band.
    """

    grid: Grid
    cube: float
    kmax: int

    @property
    def lattice_size(self) -> int:
        return (2 * self.kmax + 1) ** self.grid.d

    def axis_profiles(self) -> np.ndarray:
        """(2*kmax+1, n) array; row j is the normalized profile of shift j-kmax."""
        return _axis_profiles(self.grid, self.cube, self.kmax)

    def multiplier(self, k: Sequence[int]) -> np.ndarray:
        """The window multiplier sigma_k on the full frequency lattice."""
        k = self._check_k(k)
        prof = self.axis_profiles()
        g = self.grid
        axes = [prof[ki + self.kmax].reshape(g._axis_shape(i)) for i, ki in enumerate(k)]
        return reduce(np.multiply, axes)

    def partition_deviation(self) -> float:
        """max_xi |sum_k sigma_k(xi)^2 - 1| over the representable band."""
        prof = self.axis_profiles()
        per_axis = np.sum(prof**2, axis=0)
        total = reduce(np.multiply.outer, [per_axis] * self.grid.d)
        return float(np.max(np.abs(total - 1.0)))

    def lattice(self) -> Iterable[tuple[int, ...]]:
        rng = range(-self.kmax, self.kmax + 1)
        return itertools.product(rng, repeat=self.grid.d)

    def active_lattice(self, coefficients: np.ndarray) -> list[tuple[int, ...]]:
        """Lattice points whose window can overlap the support of a spectrum.

        Uses per-axis bounding of the support, so the returned set is a
        superset of the truly active one; skipped windows give exactly zero
        pieces.
        """
        prof = self.axis_profiles()
        nonzero = np.abs(coefficients) > 0
        ranges = []
        for axis in range(self.grid.d):
            other = tuple(i for i in range(self.grid.d) if i != axis)
            axis_mask = nonzero.any(axis=other) if other else nonzero
            if not axis_mask.any():
                return []
            # shift j-kmax is active when its profile overlaps the axis mask
            active = [
                j - self.kmax
                for j in range(prof.shape[0])
                if np.any(prof[j][axis_mask] != 0.0)
            ]
            if not active:
                return []
            ranges.append(active)
        return list(itertools.product(*ranges))

    def describe(self) -> dict:
        """Window identity for experiment reports."""
        return {
            "profile": "tensor product of exp(-1/(1-t^2)) bumps, square-normalized",
            "cube": self.cube,
            "kmax": self.kmax,
            "partition_deviation": self.partition_deviation(),
        }

    def _check_k(self, k: Sequence[int]) -> tuple[int, ...]:
        k = tuple(int(v) for v in k)
        if len(k) != self.grid.d:
            raise ValueError(f"k must have {self.grid.d} components, got {k}")
        if max(abs(v) for v in k) > self.kmax:
            raise ValueError(f"lattice point {k} outside |k|_inf <= {self.kmax}")
        return k


@lru_cache(maxsize=32)
def _axis_profiles(grid: Grid, cube: float, kmax: int) -> np.ndarray:
    xi = grid.axis_freqs()
    shifts = np.arange(-kmax, kmax + 1)
    raw = bump(((xi[None, :] - cube * shifts[:, None]) / cube) ** 2)
    # separable normalization: per-axis sum over *all* integer shifts; shifts
    # beyond kmax never touch the representable band by choice of kmax
    denom = np.sqrt(np.sum(raw**2, axis=0))
    if np.any(denom == 0.0):
        raise ValueError("window translates fail to cover the frequency band")
    out = raw / denom[None, :]
    out.flags.writeable = False
    return out


def make_window(grid: Grid, cube: float = 1.0) -> Window:
    """Build the decomposition window for a grid.

    Requires at least four frequency lattice points per cube per axis
    (``dxi <= cube/4``) and a band wide enough for a couple of cubes.
    """
    if cube <= 0:
        raise ValueError(f"cube side must be positive, got {cube}")
    if grid.dxi > cube / 4 + 1e-12:
        raise ValueError(
            f"grid too coarse to resolve the window: dxi={grid.dxi:.4g} > "
            f"cube/4={cube / 4:.4g}"
        )
    if math.floor(grid.xi_max / cube) < 2:
        raise ValueError(
            f"band covers only |k| <= {math.floor(grid.xi_max / cube)} cubes; need >= 2"
        )
    kmax = math.floor(grid.xi_max / cube) + 1
    return Window(grid=grid, cube=float(cube), kmax=kmax)


def iso_piece(f: Field, k: Sequence[int], window: Window) -> Field:
    """The decomposition piece sigma_k(D) f."""
    if f.grid != window.grid:
        raise ValueError("field and window live on different grids")
    F = to_spectrum(f)
    return from_spectrum(SpectralField(f.grid, window.multiplier(k) * F.coefficients))


def _piece_lp_norms(
    F: SpectralField, ks: list[tuple[int, ...]], window: Window, p: float
) -> np.ndarray:
    """L^p norms of all window pieces, batched.

    p = 2 is evaluated on the frequency side (Parseval), every other p via
    chunked inverse FFTs.  The |.| of a piece does not depend on the
    phase/scale conventions of ``from_spectrum`` beyond a multiplicative
    factor, so the inverse transform is taken without the coordinate twist.
    """
    g = window.grid
    if not ks:
        return np.zeros(0)
    if p == 2:
        weight = g.dxi**g.d
        out = np.empty(len(ks))
        absF2 = np.abs(F.coefficients) ** 2
        for i, k in enumerate(ks):
            m = window.multiplier(k)
            out[i] = math.sqrt(weight * float(np.sum(m * m * absF2)))
        return out
    scale = g.dxi**g.d * (2.0 * np.pi) ** (-g.d / 2.0) * g.size
    out = np.empty(len(ks))
    chunk = max(1, int(2**22 // max(g.size, 1)))
    axes = tuple(range(1, g.d + 1))
    for start in range(0, len(ks), chunk):
        batch = ks[start : start + chunk]
        stack = np.empty((len(batch),) + g.shape, dtype=np.complex128)
        for i, k in enumerate(batch):
            stack[i] = window.multiplier(k) * F.coefficients
        phys = np.abs(np.fft.ifftn(stack, axes=axes)) * scale
        if np.isinf(p):
            out[start : start + len(batch)] = phys.max(axis=axes)
        else:
            sums = np.sum(phys**p, axis=axes)
            out[start : start + len(batch)] = (g.cell * sums) ** (1.0 / p)
    return out


def modulation_norm(f: Field, spec: ModNormSpec, window: Window) -> float:
    """Weighted l^q aggregation of per-cube L^p norms.

    ||f|| = ( sum_k <k>^(s q) ||sigma_k(D) f||_p^q )^(1/q), with <k> the
    Japanese bracket of the lattice index and q = inf giving the sup.
    """
    if f.grid != window.grid:
        raise ValueError("field and window live on different grids")
    F = to_spectrum(f)
    ks = window.active_lattice(F.coefficients)
    if not ks:
        return 0.0
    norms = _piece_lp_norms(F, ks, window, spec.p)
    brackets = np.array([math.sqrt(1.0 + sum(v * v for v in k)) for k in ks])
    weighted = brackets**spec.s * norms
    if np.isinf(spec.q):
        return float(weighted.max())
    return float(np.sum(weighted**spec.q) ** (1.0 / spec.q))


# ---------------------------------------------------------------------------
# Littlewood-Paley projections
# ---------------------------------------------------------------------------


def _smoothstep(r: np.ndarray) -> np.ndarray:
    """C^inf cutoff: 1 for r <= 1, 0 for r >= 2, monotone in between."""
    r = np.asarray(r, dtype=float)
    a = np.zeros_like(r)
    b = np.zeros_like(r)
    up = r - 1.0
    down = 2.0 - r
    np.exp(np.divide(-1.0, up, out=np.full_like(r, -np.inf), where=up > 0), out=a)
    np.exp(np.divide(-1.0, down, out=np.full_like(r, -np.inf), where=down > 0), out=b)
    return b / (a + b)


@lru_cache(maxsize=64)
def _abs_freq(grid: Grid) -> np.ndarray:
    out = np.sqrt(grid.freq_sq())
    out.flags.writeable = False
    return out


def _annulus_multiplier(grid: Grid, band: float) -> np.ndarray:
    r = _abs_freq(grid)
    if band == 1:
        return _smoothstep(r)
    return _smoothstep(r / band) - _smoothstep(2.0 * r / band)


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
    F = to_spectrum(f)
    return from_spectrum(SpectralField(g, _annulus_multiplier(g, band) * F.coefficients))


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
        m = _annulus_multiplier(grid, band)
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
    mask = dist_sq <= radius**2
    F = to_spectrum(f)
    return from_spectrum(SpectralField(g, mask * F.coefficients))


def ball_cover_centers(d: int, band: float, radius: float) -> list[tuple[float, ...]]:
    """Centers of a finitely-overlapping family of radius-``radius`` balls
    covering the annulus band/2 <= |xi| <= 2*band.

    Centers sit at the midpoints of the cells of a ``radius``-spaced cube
    lattice, so each point of R^d lies in the ball around its own cell center
    (cell diameter sqrt(d)*radius <= 2*radius for d <= 4) and the overlap
    count is at most 3^d.
    """
    if radius < 1:
        raise ValueError(f"ball radius must be >= 1, got {radius}")
    hi = 2.0 * band + radius
    jmax = math.ceil(hi / radius)
    centers = []
    lo_sq = max(0.0, band / 2.0 - radius) ** 2
    hi_sq = (2.0 * band + radius) ** 2
    for j in itertools.product(range(-jmax, jmax + 1), repeat=d):
        c = tuple(radius * (v + 0.5) for v in j)
        r_sq = sum(v * v for v in c)
        if lo_sq <= r_sq <= hi_sq:
            centers.append(c)
    return centers


# ---------------------------------------------------------------------------
# Sum-space norm
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SumSpaceBound:
    """Upper bound for a modulation + L^2 sum-space norm."""

    value: float
    threshold: float
    table: tuple[tuple[float, float], ...]


def sum_space_norm_upper(
    f: Field,
    spec: ModNormSpec,
    window: Window,
    thresholds: Sequence[float] | None = None,
) -> SumSpaceBound:
    """Upper bound on inf{ ||g||_{M^s_{p,2}} + ||h||_{L^2} : f = g + h }.

    Splits at a smooth dyadic low-pass and minimizes over a threshold sweep.
    Threshold 0 puts everything in L^2, threshold inf everything in the
    modulation part, so the bound never exceeds either single-space norm.
    """
    from modlab.grid import lp_norm, spectrum_l2

    g = f.grid
    if thresholds is None:
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
            low = None
            high = F
        elif np.isinf(thr):
            low = F
            high = None
        else:
            mult = _smoothstep(_abs_freq(g) / thr)
            low = SpectralField(g, mult * F.coefficients)
            high = SpectralField(g, (1.0 - mult) * F.coefficients)
        m = modulation_norm(from_spectrum(low), spec, window) if low is not None else 0.0
        l2 = spectrum_l2(high) if high is not None else 0.0
        rows.append((float(thr), m + l2))
    best_thr, best = min(rows, key=lambda r: r[1])
    return SumSpaceBound(value=best, threshold=best_thr, table=tuple(rows))
