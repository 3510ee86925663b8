"""Reproducible initial-data families and field serialization.

Every generator is a pure function of (parameters, seed, grid), and every
run builds its data by scale through the one table ``scale_family``.  The
headline family is the mollified ball indicator: after L^4 normalization its
modulation norm stays bounded along the radius sweep while the H^1 norm grows
like radius^(d/4), which is the infinite-energy mechanism the solvers are fed
with.
"""

from __future__ import annotations

import struct
from functools import reduce
from pathlib import Path

import numpy as np

from modlab.grid import (
    Field, Grid, InvalidScales, forward, fourier_multiply, inverse, lp_norm, make_grid,
)
from modlab.modspace import (
    ModNormSpec, Window, bump, dyadic_multiplier, modulation_norm,
)
from modlab.propagator import gradient_sq_integral

__all__ = [
    "scale_family",
    "gaussian",
    "mollified_indicator",
    "norm_report",
    "random_field",
    "boundary_decay",
    "save_field",
    "load_field",
]


def scale_family(family: str, scale: float, seed: int, cube: float, grid: Grid) -> Field:
    """The datum of a family at one scale: ``focusing`` is the unit spectrum
    on the box [-scale, scale]^d (its peak, at x = 0, is dxi^d (2 pi)^{-d/2}
    times the number of coefficients), ``random_phase`` unit-modulus random
    phases on |xi| <= scale, ``band_noise`` white noise through the annulus
    at ``scale``, ``bump`` a spectral bump of width 0.45 ``cube`` centered at
    ``scale`` on axis 0, and ``mollified`` ``mollified_indicator`` of radius
    ``scale``.  A zero field is refused."""
    if family == "focusing":
        if scale > grid.xi_max / 4:
            raise InvalidScales(f"scale {scale} exceeds xi_max/4 = {grid.xi_max / 4}")
        mask = reduce(np.logical_and, [np.abs(xi) <= scale for xi in grid.freqs()])
        f = Field(grid, inverse(grid, np.where(mask, 1.0 + 0.0j, 0.0)))
    elif family == "random_phase":
        if scale > grid.xi_max:
            raise InvalidScales(f"scale {scale} outside the band (xi_max={grid.xi_max})")
        mask = grid.freq_sq() <= scale**2
        rng = np.random.default_rng([int(seed), int(round(scale * 16))])
        coeffs = np.zeros(grid.shape, dtype=np.complex128)
        coeffs[mask] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=int(mask.sum())))
        f = Field(grid, inverse(grid, coeffs))
    elif family == "bump":
        arg = reduce(np.add, [
            ((xi - c) / (0.45 * cube)) ** 2
            for xi, c in zip(grid.freqs(), [scale] + [0.0] * (grid.d - 1))
        ])
        f = Field(grid, inverse(grid, bump(arg)))
    elif family == "band_noise":
        rng = np.random.default_rng([int(seed), int(round(scale * 16))])
        white = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        f = Field(grid, inverse(grid, dyadic_multiplier(grid, scale) * white))
    elif family == "mollified":
        f = mollified_indicator(scale, grid)
    else:
        raise ValueError(f"unknown data family {family!r}")
    if lp_norm(f, 2) == 0.0:
        raise ValueError(f"{family} data at scale {scale:g} is a zero field")
    return f


def gaussian(grid: Grid) -> Field:
    """The unit Gaussian exp(-|x|^2 / 2)."""
    r_sq = reduce(np.add, [x**2 for x in grid.coords()])
    return Field(grid, np.exp(-r_sq / 2.0).astype(complex))


def mollified_indicator(n_radius: float, grid: Grid) -> Field:
    """Smooth unit-scale mollifier convolved with the ball indicator 1_B(0,n),
    normalized to unit L^4 norm."""
    if n_radius + 2 > grid.length / 2:
        raise ValueError(
            f"ball of radius {n_radius}+1 does not fit the torus of period {grid.length}"
        )
    r_sq = reduce(np.add, [x**2 for x in grid.coords()])
    indicator = (r_sq <= n_radius**2).astype(np.complex128)
    chi = bump(r_sq)
    chi = chi / (grid.cell * chi.sum())
    # convolution via the transform pair: (f*g)^ = (2 pi)^{d/2} f^ g^
    conv = (2.0 * np.pi) ** (grid.d / 2.0) * forward(grid, chi) * forward(grid, indicator)
    f = Field(grid, inverse(grid, conv))
    return (1.0 / lp_norm(f, 4)) * f


def norm_report(f: Field, window: Window) -> dict:
    """The L^4, L^2 and spectral H^1 norms of a field, its modulation norm
    M^{1+eps}_{4,2} with eps = 0.1 in ``window``, and its ``boundary_decay``,
    flagged when it exceeds 1e-10."""
    l2 = lp_norm(f, 2)
    decay = boundary_decay(f)
    return {
        "l4": lp_norm(f, 4),
        "l2": l2,
        "h1": float(np.sqrt(l2**2 + gradient_sq_integral(f))),
        "eps": 0.1,
        "m_norm": modulation_norm(f, ModNormSpec(1.1, 4.0, 2.0), window),
        "boundary_decay": decay,
        "boundary_flagged": bool(decay > 1e-10),
    }


def random_field(grid: Grid, seed: int, band: float | None = None) -> Field:
    """Complex Gaussian samples; optionally band-limited to |xi| <= band."""
    rng = np.random.default_rng(int(seed))
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    f = Field(grid, vals)
    if band is not None:
        f = fourier_multiply(f, grid.freq_sq() <= band**2)
    return f


def boundary_decay(f: Field) -> float:
    """max |f| over the outermost cell shell relative to the global max."""
    peak = float(np.max(np.abs(f.values)))
    if peak == 0.0:
        return 0.0
    edge = 0.0
    for axis in range(f.grid.d):
        for idx in (0, -1):
            sl = [slice(None)] * f.grid.d
            sl[axis] = idx
            edge = max(edge, float(np.max(np.abs(f.values[tuple(sl)]))))
    return edge / peak


# ---------------------------------------------------------------------------
# Serialization: header (d, n, L) then interleaved re/im doubles, little-endian
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<iid")


def save_field(f: Field, path: str | Path) -> None:
    path = Path(path)
    payload = np.ascontiguousarray(f.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(f.grid.d, f.grid.n, f.grid.length))
        fh.write(payload.tobytes())


def load_field(path: str | Path) -> Field:
    path = Path(path)
    raw = path.read_bytes()
    d, n, length = _HEADER.unpack_from(raw)
    grid = make_grid(d, n, length)
    expected = _HEADER.size + 16 * grid.size
    if len(raw) != expected:
        raise ValueError(f"field file has {len(raw)} bytes, expected {expected}")
    values = np.frombuffer(raw, dtype="<c16", offset=_HEADER.size).reshape(grid.shape)
    return Field(grid, values.astype(np.complex128))
