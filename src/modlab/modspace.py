"""Isometric frequency decomposition and modulation norms.

The decomposition windows are integer translates of one smooth profile,
normalized so the translated squares sum to one.  The profile is a tensor
product of a 1-d bump, which makes the normalization separable per axis and
the square partition identity exact to round-off on every representable
frequency.  Consequently the (s=0, p=2, q=2) modulation norm coincides with
the L^2 norm up to round-off, not just up to a constant.  For finite p, q >= 1,
pieces are computed axis by axis, as the windows are separable, and skipped
under an energy floor; each piece's |.|^p is ``grid.abs_power``'s.

A ``cube`` parameter scales the side length of the decomposition cubes.  Unit
cubes are the default; small desk-scale grids use larger cubes so that each
cube still holds several lattice modes.  Parabolic rescaling maps either
convention onto the other without changing fitted exponents.

The smooth ``low_pass`` psi(|xi|/N) is the one dyadic split: its differences
are the Littlewood-Paley multipliers ``dyadic_multiplier``, which telescope
exactly, and ``solver`` splits data with it.  ``ball_cover_centers`` places
the finitely-overlapping balls that localize the bilinear proof chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Sequence

import numpy as np

from modlab.grid import Field, Grid, abs_power, forward

__all__ = [
    "ModNormSpec",
    "bump",
    "Window",
    "make_window",
    "modulation_norm",
    "low_pass",
    "dyadic_multiplier",
    "band_box",
    "ball_cover_centers",
]

# Complex samples the blocks of window pieces in flight may hold together:
# 2**17 of them are 2 MiB, one core's L2 cache on current x86 servers.  That
# bounds the kernel's memory; smaller blocks only add FFT calls.  Norms taken
# on several threads at once split it (``modulation_norm``'s ``in_flight``).
# Sequential norms keep whole 2 MiB blocks: glibc's malloc raises its
# mapping threshold only to the largest block freed, and with 1 MiB blocks
# the bilinear cell's later arrays were mapped and faulted in anew, which
# cost a quarter more run time in a fresh process.
_CHUNK_POINTS = 2**17


@dataclass(frozen=True)
class ModNormSpec:
    """Modulation-norm parameters: bracket weight s, spatial p and lattice q,
    all finite, with p, q >= 1."""

    s: float
    p: float
    q: float

    def __post_init__(self):
        if not math.isfinite(self.s):
            raise ValueError(f"s must be finite, got s={self.s}")
        for name in ("p", "q"):
            value = getattr(self, name)
            if not 1 <= value < math.inf:  # NaN fails every comparison
                raise ValueError(f"{name} must be finite and >= 1, got {name}={value}")


def _flat(x: np.ndarray) -> np.ndarray:
    """C^inf flat function exp(-1/x) for x > 0, zero elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    positive = x > 0.0
    out[positive] = np.exp(-1.0 / x[positive])
    return out


def bump(r_sq: np.ndarray) -> np.ndarray:
    """C^inf bump exp(-1/(1-r^2)) as a function of r^2, zero for r >= 1."""
    return _flat(1.0 - r_sq)


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

    def active_lattice(self, coefficients: np.ndarray) -> list[tuple[int, ...]]:
        """Windows meeting a spectrum's energy: a product of per-axis shift
        ranges, in ``itertools.product`` order.

        Shift j is active on an axis when its profile meets a frequency whose
        marginal energy (|F|^2 summed over the other axes) exceeds tau E, with
        E = sum |F|^2 and tau = 1e-24 / (d n N), N = n^d.  The squared windows
        sum to one, so the skipped pieces hold an L^2 share of at most
        sqrt(d n tau) = 1e-12 / sqrt(N); L^p and L^2 norms on N points lie
        within N^|1/2-1/p| of each other, so an M^0_{p,2} norm moves by under
        1e-12 relative, and an M^s_{p,q} one by <kmax sqrt(d)>^|s|
        (2 kmax + 1)^(d |1/q-1/2|) times that.  FFT round-off, ~1e-16 of the rms
        coefficient, gives marginals up to ~1e-31 E / n, under the floor if d N < 1e7.
        """
        d, n = self.grid.d, self.grid.n
        energy = np.abs(coefficients) ** 2
        floor = 1e-24 / (d * n * self.grid.size) * float(energy.sum())
        ranges = []
        for axis in range(d):
            other = tuple(i for i in range(d) if i != axis)
            marginal = energy.sum(axis=other) if other else energy
            live = self.axis_profiles()[:, marginal > floor]  # row j: shift j - kmax
            active = np.flatnonzero(np.any(live != 0.0, axis=1))
            if active.size == 0:
                return []
            ranges.append((active - self.kmax).tolist())
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
    if not 0 < cube < math.inf:
        raise ValueError(f"cube side must be positive and finite, got cube={cube}")
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


def _piece_lp_norms(
    F: np.ndarray, ks: list, window: Window, p: float, in_flight: int = 1
) -> np.ndarray:
    """L^p norms of the pieces ``ks`` of a spectrum F (a non-empty product of
    per-axis shift ranges in ``itertools.product`` order), in that order,
    for a finite p >= 1.  The kernel walks the prefix tree of the shifts,
    each level one profile multiply and one batched 1-d inverse FFT along its
    axis, splitting shifts past ``_CHUNK_POINTS // in_flight``, and reduces
    each leaf block in one float buffer (``grid.abs_power``, then the row
    sum).  The budget is an L2 cache shared by the ``in_flight`` norms taken
    at once, so those passes read a block of a few MiB, not the whole tree;
    no intermediate holds more than max(budget, ``grid.size``) samples, and
    every budget gives the same bits, as the budget only regroups whole 1-d
    transforms and leaf rows.
    |piece| ignores the coordinate twist of ``inverse``."""
    g = window.grid
    ranges = [sorted({k[a] for k in ks}) for a in range(g.d)]
    if not ks or list(itertools.product(*ranges)) != list(ks):
        raise ValueError("windows must be a product of per-axis shift ranges, in order")
    rows = [window.axis_profiles()[np.array(r) + window.kmax] for r in ranges]
    budget = _CHUNK_POINTS // in_flight

    def descend(stack: np.ndarray, a: int) -> np.ndarray:
        # norms of every piece below the prefixes in ``stack`` (axes < a done)
        if a == g.d:
            block = stack.reshape(len(stack), -1)
            phys = abs_power(block, p, g.inverse_scale)
            return (g.cell * np.sum(phys, axis=1)) ** (1.0 / p)
        # a stack of several prefixes came from a budget-sized group, so its
        # shifts fit in one group here too: groups split only single prefixes
        group = max(1, budget // (math.prod(map(len, rows[a + 1 :])) * g.size))
        parts = []
        for start in range(0, len(rows[a]), group):
            r = rows[a][start : start + group].reshape((1, -1) + g._axis_shape(a))
            nxt = (stack[:, None] * r).reshape((-1,) + g.shape)
            parts.append(descend(np.fft.ifft(nxt, axis=a + 1, out=nxt), a + 1))
        return np.concatenate(parts)

    return descend(F[None], 0)


def modulation_norm(f: Field, spec: ModNormSpec, window: Window, in_flight: int = 1) -> float:
    """Weighted l^q aggregation of per-cube L^p norms.

    ||f|| = ( sum_k <k>^(s q) ||sigma_k(D) f||_p^q )^(1/q), with <k> the
    Japanese bracket of the lattice index.  ``in_flight`` is the number of
    norms the caller takes at once on as many threads; they split the kernel's
    block budget, and the result has the same bits for every value.
    """
    if f.grid != window.grid:
        raise ValueError("field and window live on different grids")
    F = forward(f.grid, f.values)
    F.flags.writeable = False  # callers of active_lattice may keep a reference
    ks = window.active_lattice(F)
    if not ks:
        return 0.0
    norms = _piece_lp_norms(F, ks, window, spec.p, in_flight)
    brackets = np.sqrt(1.0 + np.sum(np.square(ks), axis=1))
    weighted = brackets**spec.s * norms
    return float(np.sum(weighted**spec.q) ** (1.0 / spec.q))


# ---------------------------------------------------------------------------
# Littlewood-Paley multipliers and ball covers
# ---------------------------------------------------------------------------


def _smoothstep(r: np.ndarray) -> np.ndarray:
    """C^inf cutoff: 1 for r <= 1, 0 for r >= 2, monotone in between."""
    b = _flat(2.0 - r)
    return b / (_flat(r - 1.0) + b)


@lru_cache(maxsize=64)
def _abs_freq(grid: Grid) -> np.ndarray:
    out = np.sqrt(grid.freq_sq())
    out.flags.writeable = False
    return out


def low_pass(grid: Grid, cutoff: float) -> np.ndarray:
    """Smooth low-pass psi(|xi|/cutoff): 1 on |xi| <= cutoff, 0 on |xi| >= 2 cutoff."""
    return _smoothstep(_abs_freq(grid) / cutoff)


def dyadic_multiplier(grid: Grid, band: float) -> np.ndarray:
    """Multiplier of P_N: the low ball ``low_pass(grid, 1)`` for N = 1, else the
    annulus ``low_pass(grid, N) - low_pass(grid, N/2)``."""
    if band == 1:
        return low_pass(grid, 1.0)
    return low_pass(grid, band) - low_pass(grid, band / 2.0)


def band_box(grid: Grid, band: float) -> tuple[tuple[int, int], ...]:
    """Signed mode range (lo, hi) per axis outside which ``dyadic_multiplier(grid,
    band)`` is exactly 0.0: it vanishes for |xi| >= 2 band, and |xi| >= |xi_a|,
    so each axis keeps |m| <= ceil(2 band / dxi) - 1, clipped to [-n/2, n/2)."""
    reach = math.ceil(2.0 * band / grid.dxi) - 1
    return ((max(-grid.n // 2, -reach), min(grid.n // 2 - 1, reach)),) * grid.d


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

