"""Periodic grid, unitary discrete Fourier transform, and Lebesgue quadrature.

A torus of period ``L`` stands in for R^d.  All data used downstream is
localized well inside the box, so the periodization error sits far below the
tolerances of the estimates being measured.  Coordinates are centered,
``x_j = -L/2 + j h``, and the transform pair matches the continuum convention

    F(xi) = (2 pi)^{-d/2} \\int f(x) e^{-i x.xi} dx,

realized by an FFT with a per-axis ``(-1)^m`` phase twist.
The pair ``forward``/``inverse`` acts on the trailing d axes and batches
leading ones: a ``Trajectory`` transforms in one call, bit for bit as its
nodes would one at a time.
``abs_power`` is the one power sum's summand |scale z|^p, shared by every
L^p kernel of the package, each defined for finite p >= 1 (``check_exponent``).
Their p is even in every estimate, and an even p squares instead of calling
``np.power``, whose ``pow`` costs about ten multiplies.
``two_thread_map`` is the one place that runs work on a second thread: the
kernels whose items are independent (the certificate's sup norms, the
decoupling cell's shadow blocks) hand their items to it.
"""

from __future__ import annotations

import contextvars
import threading
from dataclasses import dataclass, replace
from functools import lru_cache, reduce
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "InvalidScales",
    "Grid",
    "Field",
    "SpectralField",
    "Trajectory",
    "make_grid",
    "forward",
    "inverse",
    "inverse_pruned",
    "fourier_multiply",
    "to_spectrum",
    "check_exponent",
    "abs_power",
    "lp_norm",
    "spacetime_lp_norm",
    "trapezoid",
    "two_thread_map",
]


class InvalidScales(ValueError):
    """A scale sweep the grid or the fit cannot support."""


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice with ``n`` points per axis on [-L/2, L/2)^d."""

    d: int
    n: int
    length: float

    @property
    def h(self) -> float:
        """Spatial mesh width L/n."""
        return self.length / self.n

    @property
    def dxi(self) -> float:
        """Frequency lattice spacing 2*pi/L."""
        return 2.0 * np.pi / self.length

    @property
    def xi_max(self) -> float:
        """Nyquist frequency pi*n/L; representable band is [-xi_max, xi_max)."""
        return np.pi * self.n / self.length

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n,) * self.d

    @property
    def size(self) -> int:
        return self.n**self.d

    @property
    def cell(self) -> float:
        """Quadrature weight h^d of one spatial cell."""
        return self.h**self.d

    @property
    def inverse_scale(self) -> float:
        """dxi^d (2 pi)^(-d/2) n^d, the factor of ``inverse`` over numpy's ifftn."""
        return self.dxi**self.d * (2.0 * np.pi) ** (-self.d / 2.0) * self.size

    def axis_coords(self) -> np.ndarray:
        """Physical coordinates of one axis, x_j = -L/2 + j*h."""
        return -0.5 * self.length + self.h * np.arange(self.n)

    def axis_freqs(self) -> np.ndarray:
        """Frequencies of one axis in FFT order, dxi * m with m in [-n/2, n/2)."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.h)

    def coords(self) -> list[np.ndarray]:
        """Broadcastable coordinate arrays, one per axis."""
        x = self.axis_coords()
        return [x.reshape(self._axis_shape(i)) for i in range(self.d)]

    def freqs(self) -> list[np.ndarray]:
        """Broadcastable frequency arrays in FFT order, one per axis."""
        xi = self.axis_freqs()
        return [xi.reshape(self._axis_shape(i)) for i in range(self.d)]

    def freq_sq(self) -> np.ndarray:
        """|xi|^2 on the full frequency lattice (FFT order)."""
        return _freq_sq(self)

    def _axis_shape(self, axis: int) -> tuple[int, ...]:
        shape = [1] * self.d
        shape[axis] = self.n
        return tuple(shape)


def make_grid(d: int, n: int, length: float) -> Grid:
    """Validated grid constructor; n must be a power of two >= 8, d in 1..4."""
    if d not in (1, 2, 3, 4):
        raise ValueError(f"spatial dimension must be 1..4, got {d}")
    if n < 8 or (n & (n - 1)) != 0:
        raise ValueError(f"points per axis must be a power of two >= 8, got {n}")
    if not (length > 0):
        raise ValueError(f"period length must be positive, got {length}")
    if not np.isfinite(length):
        raise ValueError(f"period length must be finite, got {length}")
    return Grid(d=d, n=int(n), length=float(length))


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class Field:
    """Complex samples on the physical lattice of a grid.  Immutable."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite samples")
        object.__setattr__(self, "values", _freeze(self.values))

    def __add__(self, other: "Field") -> "Field":
        _same_grid(self.grid, other.grid)
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other: "Field") -> "Field":
        _same_grid(self.grid, other.grid)
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "Field":
        return Field(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class SpectralField:
    """Frozen Fourier coefficients in FFT order, a view for callers outside the package."""

    grid: Grid
    coefficients: np.ndarray

    def __post_init__(self):
        if self.coefficients.shape != self.grid.shape:
            raise ValueError(
                f"spectrum shape {self.coefficients.shape} does not match grid "
                f"{self.grid.shape}"
            )
        if not np.all(np.isfinite(self.coefficients)):
            raise ValueError("spectrum contains non-finite coefficients")
        object.__setattr__(self, "coefficients", _freeze(self.coefficients))


@dataclass(frozen=True, eq=False)  # array fields: compare by identity
class Trajectory:
    """Fields sampled at strictly increasing times, ``times`` of shape (m,)
    and ``values`` of shape (m, *grid.shape).  Immutable; ``path[j]`` is the
    pair (t_j, Field)."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        if times.ndim != 1 or self.values.shape != (times.size, *self.grid.shape):
            raise ValueError(f"values {self.values.shape} do not match {times.size} times")
        if not (np.all(np.isfinite(times)) and np.all(np.diff(times) > 0)):
            raise ValueError("trajectory times must be finite and strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trajectory contains non-finite samples")
        times.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", _freeze(self.values))

    def __len__(self) -> int:
        return self.times.size

    def __getitem__(self, j: int) -> tuple[float, Field]:
        return float(self.times[j]), Field(self.grid, self.values[j])

    def node_index(self, t: float) -> int:
        """Index of the first node within 1e-12 * max(1, |t|) of t."""
        hits = np.flatnonzero(np.abs(self.times - t) <= 1e-12 * max(1.0, abs(t)))
        if hits.size == 0:
            raise ValueError(f"t={t} is not a node of the path")
        return int(hits[0])

    def lp_norms(self, p: float) -> np.ndarray:
        """Per-node L^p norms, each equal to ``lp_norm`` of that node's field."""
        return _lp_norms(self.grid, self.values, p)


def _same_grid(a: Grid, b: Grid) -> None:
    if a != b:
        raise ValueError(f"grid mismatch: {a} vs {b}")


@lru_cache(maxsize=64)
def _phase(grid: Grid) -> np.ndarray:
    # (-1)^(m_1+...+m_d): the centered-coordinate twist, exact by construction.
    alt = np.where(np.arange(grid.n) % 2 == 0, 1.0, -1.0)
    axes = [alt.reshape(grid._axis_shape(i)) for i in range(grid.d)]
    return reduce(np.multiply, axes)


@lru_cache(maxsize=64)
def _freq_sq(grid: Grid) -> np.ndarray:
    out = reduce(np.add, [xi**2 for xi in grid.freqs()])
    out.flags.writeable = False
    return out


def forward(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unitary forward transform over the trailing d axes; leading axes batch."""
    scale = grid.cell * (2.0 * np.pi) ** (-grid.d / 2.0)
    return scale * _phase(grid) * np.fft.fftn(values, axes=range(-grid.d, 0))


def inverse(grid: Grid, coefficients: np.ndarray) -> np.ndarray:
    """Inverse of ``forward``; round-trips it to machine precision."""
    return grid.inverse_scale * np.fft.ifftn(_phase(grid) * coefficients, axes=range(-grid.d, 0))


def inverse_pruned(
    grid: Grid, coefficients: np.ndarray, modes: Sequence[Sequence[int]]
) -> np.ndarray:
    """``inverse(grid, X)``, bit for bit, for the X that holds ``coefficients``
    at the signed modes ``modes`` and is zero elsewhere.

    ``modes`` holds one sequence of signed integer modes per trailing axis;
    mode m sits at index ``m % grid.n``, so modes need not increase, but they
    must be distinct modulo ``grid.n``.  The trailing d axes of
    ``coefficients`` follow ``modes``.  ``grid.n`` must be even: then the
    ``(-1)^index`` twist of ``inverse`` is ``(-1)^m`` for every mode, and
    the result is the trigonometric polynomial with those coefficients,
    sampled at the grid's points; on an odd grid it is not.  Zeros are
    known by index, never tested by value.  The twist goes on the given
    modes only, gathered once per (grid, modes); then, axis by axis in
    ``ifftn``'s order, last axis first, the axis about to be transformed is
    embedded in ``grid.n`` points, so every 1-d transform is one ``ifftn``
    would take and the lines it would take over zeros are skipped (FFT
    pruning, Markel 1971).  Modes that fill every axis in index order leave
    nothing to prune: that case is ``inverse`` itself.
    """
    twist, slots = _embedding(grid, tuple(map(tuple, modes)))
    if slots is None:
        return inverse(grid, coefficients)
    out = twist * coefficients
    for axis in range(-1, -grid.d - 1, -1):
        shape = list(out.shape)
        shape[axis] = grid.n
        embedded = np.zeros(shape, dtype=out.dtype)
        embedded[(..., slots[axis], *[slice(None)] * (-axis - 1))] = out
        out = np.fft.ifft(embedded, axis=axis, out=embedded)
    out *= grid.inverse_scale
    return out


@lru_cache(maxsize=64)
def _embedding(grid: Grid, modes: tuple[tuple[int, ...], ...]):
    # the twist (-1)^(m_1+...+m_d) on the block of ``modes`` and each axis's
    # indices m % n; no indices when the block is the whole grid in order
    if grid.n % 2:
        raise ValueError(f"a pruned inverse needs an even grid length, got {grid.n}")
    if len(modes) != grid.d:
        raise ValueError(f"need modes for {grid.d} axes, got {len(modes)}")
    slots = [[m % grid.n for m in axis] for axis in modes]
    if any(len(set(s)) != len(s) for s in slots):
        raise ValueError(f"modes collide modulo the grid length {grid.n}")
    alt = [np.where(np.array(s) % 2 == 0, 1.0, -1.0) for s in slots]
    twist = reduce(np.multiply.outer, alt)
    twist.flags.writeable = False
    if all(s == list(range(grid.n)) for s in slots):
        return twist, None
    return twist, [np.array(s) for s in slots]


def fourier_multiply(u: Field | Trajectory, multiplier: np.ndarray) -> Field | Trajectory:
    """m(D) u for a Field, or for every node of a Trajectory, u."""
    return replace(u, values=inverse(u.grid, multiplier * forward(u.grid, u.values)))


def to_spectrum(f: Field) -> SpectralField:
    """``forward`` of a field as a frozen ``SpectralField``, for callers outside the package."""
    return SpectralField(f.grid, forward(f.grid, f.values))


def abs_power(values: np.ndarray, p: float, scale: float = 1.0) -> np.ndarray:
    """|scale * values|^p as a new float array: the one power sum's summand.

    An even integer p = 2k squares |scale * values| in place, then takes the
    k-th power of that square by square-and-multiply, in about log2(p)
    passes: a k that is a power of two squares again in place, and any other
    k keeps one more array, the product of the odd steps' factors (for
    k = 3, the square times its own square).  The result is within p ulps of
    ``np.power``, whose transcendental ``pow`` costs about ten multiplies;
    p = 2 is ``np.square``, which equals ``np.power`` bit for bit.  Odd and
    non-integer p take ``np.power``.
    """
    out = np.abs(values)
    if scale != 1.0:
        out *= scale
    if p % 2 != 0:  # odd or non-integer
        return np.power(out, p, out=out)
    np.square(out, out=out)
    k, odd = int(p) // 2, None
    while k > 1:
        if k % 2 and odd is None:
            odd, out = out, np.square(out)
        else:
            if k % 2:
                odd *= out
            np.square(out, out=out)
        k //= 2
    return out if odd is None else np.multiply(out, odd, out=out)


def check_exponent(value: float, name: str = "p") -> None:
    """The domain 1 <= value < inf of every L^p, modulation and variation exponent."""
    if not 1 <= value < np.inf:  # NaN fails every comparison
        raise ValueError(f"{name} must be >= 1 and finite, got {name}={value}")


def _lp_norms(grid: Grid, values: np.ndarray, p: float) -> np.ndarray:
    """L^p quadrature over the trailing d axes, one norm per leading index."""
    check_exponent(p)
    sums = grid.cell * np.sum(abs_power(values, p), axis=tuple(range(-grid.d, 0)))
    # scalar powers on purpose: numpy's vectorized power differs from them in
    # the last bit for a few percent of inputs, which would move every norm
    return np.array([s ** (1.0 / p) for s in sums])


def lp_norm(f: Field, p: float) -> float:
    """Riemann-sum L^p quadrature, (h^d sum |f|^p)^(1/p), for finite p >= 1."""
    return float(_lp_norms(f.grid, f.values[None], p)[0])


def trapezoid(values: np.ndarray, nodes: np.ndarray) -> float:
    """Composite trapezoid rule on finite, strictly increasing nodes."""
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    if nodes.ndim != 1 or nodes.size != values.size:
        raise ValueError("nodes and values must be 1-d and of equal length")
    if nodes.size < 2:
        raise ValueError("need at least two time nodes")
    dt = np.diff(nodes)
    if not (np.all(np.isfinite(nodes)) and np.all(dt > 0)):
        raise ValueError("time nodes must be finite and strictly increasing")
    return float(np.sum(0.5 * dt * (values[1:] + values[:-1])))


def spacetime_lp_norm(path: Trajectory, p: float) -> float:
    """Space-time L^p norm of a sampled trajectory.

    Trapezoid rule in time applied to t -> ||u(t)||_p^p, for finite p >= 1.
    """
    powers = np.array([v**p for v in path.lp_norms(p)])
    return float(trapezoid(powers, path.times) ** (1.0 / p))


def two_thread_map(work: Callable[[int], object], count: int) -> list:
    """``[work(0), ..., work(count - 1)]``, computed on two threads.

    The calling thread takes the even items and one helper thread the odd
    ones, so two items overlap where ``work`` spends its time in numpy calls
    that release the interpreter lock.  Each item is computed whole by one
    thread and the results come back in item order, so a caller that reduces
    them in that order gets bits that do not depend on how the threads are
    scheduled.  The helper runs in a copy of the caller's context, so the
    caller's ``np.errstate`` holds there too, and its first exception is
    raised here once it has been joined.
    """
    results = [None] * count
    failures: list[BaseException] = []

    def take(first: int) -> None:
        for i in range(first, count, 2):
            results[i] = work(i)

    def take_odd() -> None:
        try:
            take(1)
        except BaseException as exc:  # raised again by the caller once joined
            failures.append(exc)

    helper = threading.Thread(target=contextvars.copy_context().run, args=(take_odd,))
    helper.start()
    try:
        take(0)
    finally:
        helper.join()
    if failures:
        raise failures[0]
    return results
