"""Discrete p-variation and atomic calculus for field-valued paths.

Paths are ``grid.Trajectory`` samples read as right-continuous step
functions; increments only ever use node values, measured in a value norm
that each function takes as an argument.  The conventional terminal value 0 at
t = +infinity is exposed as an explicit flag: plain increment suprema
(``terminal_zero=False``, the default) match the dynamic program stated for
``vp_norm``; the adapted-space norms switch it on, which is what makes the
free trajectory of f carry the single jump of size ||f||.

The atomic norm is not computed exactly (it is an infimum over all
decompositions); ``up_norm_upper`` evaluates the one-atom decomposition a
step function carries on its own partition, and ``up_norm_lower`` samples the
duality characterization from below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from modlab.grid import Field, Grid, Trajectory, fourier_multiply, lp_norm
from modlab.modspace import ModNormSpec, Window, modulation_norm, dyadic_multipliers

__all__ = [
    "LpValueNorm",
    "ModValueNorm",
    "StepFunction",
    "vp_norm",
    "vp_norm_bruteforce",
    "make_atom",
    "up_norm_upper",
    "up_norm_lower",
    "duality_pairing",
    "adapt",
    "step_to_path",
    "ys_norm",
    "xs_norm_upper",
]


class LpValueNorm:
    """Value norm ||.||_{L^p} on fields."""

    def __init__(self, p: float = 2.0):
        self.p = p
        self.name = f"L{p:g}"

    def __call__(self, f: Field) -> float:
        return lp_norm(f, self.p)


class ModValueNorm:
    """Value norm ||.||_{M^s_{p,q}} with a fixed window."""

    def __init__(self, spec: ModNormSpec, window: Window):
        self.spec = spec
        self.window = window
        self.name = f"M^{spec.s:g}_{{{spec.p:g},{spec.q:g}}}"

    def __call__(self, f: Field) -> float:
        return modulation_norm(f, self.spec, self.window)


@dataclass(frozen=True)
class StepFunction:
    """Left-closed right-open step function: value pieces[k] on
    [partition[k], partition[k+1]), zero outside [partition[0], partition[-1])."""

    partition: tuple[float, ...]
    pieces: tuple[Field, ...]
    value_norm: object

    def __post_init__(self):
        part = tuple(float(t) for t in self.partition)
        object.__setattr__(self, "partition", part)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        if len(part) != len(self.pieces) + 1:
            raise ValueError("partition must have one more point than pieces")
        if any(t1 - t0 <= 0 for t0, t1 in zip(part, part[1:])):
            raise ValueError("partition must be strictly increasing")
        if len(self.pieces) < 1:
            raise ValueError("need at least one piece")

    @property
    def grid(self) -> Grid:
        return self.pieces[0].grid


def _increment_table(path: Trajectory, norm) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise increment norms dist[i, j] = ||v_i - v_j|| and node norms."""
    m = len(path)
    dist = np.zeros((m, m))
    for i in range(m):
        for j in range(i):
            dist[i, j] = dist[j, i] = norm(Field(path.grid, path.values[i] - path.values[j]))
    node = np.array([norm(v) for _, v in path])
    return dist, node


def vp_norm(path: Trajectory, p: float, norm, terminal_zero: bool = False) -> float:
    """Exact p-variation of the sampled path in the value norm ``norm``.

    Supremum over increasing node subsequences of
    (sum ||v(t_k) - v(t_{k-1})||^p)^(1/p), by the O(m^2) dynamic program
    D[i] = max(0, max_{j<i} D[j] + ||v_i - v_j||^p).  With
    ``terminal_zero`` the conventional value 0 at t = +infinity is appended,
    adding a final jump ||v_last||.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if len(path) < 2:
        raise ValueError("need at least two nodes")
    dist, node = _increment_table(path, norm)
    m = len(path)
    D = np.zeros(m)
    for i in range(1, m):
        D[i] = max(0.0, max(D[j] + dist[i, j] ** p for j in range(i)))
    if terminal_zero:
        return float(np.max(D + node**p) ** (1.0 / p))
    return float(np.max(D) ** (1.0 / p))


def vp_norm_bruteforce(path: Trajectory, p: float, norm, terminal_zero: bool = False) -> float:
    """Exhaustive enumeration over all node subsequences; oracle for small m."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    m = len(path)
    if m < 2:
        raise ValueError("need at least two nodes")
    if m > 16:
        raise ValueError("brute force limited to m <= 16 nodes")
    dist, node = _increment_table(path, norm)
    best = 0.0
    for mask in range(1, 1 << m):
        idx = [i for i in range(m) if mask >> i & 1]
        s = sum(dist[a, b] ** p for a, b in zip(idx, idx[1:]))
        if terminal_zero:
            s += node[idx[-1]] ** p
        best = max(best, s)
    return best ** (1.0 / p)


def make_atom(
    partition: Sequence[float],
    pieces: Sequence[Field],
    p: float,
    value_norm,
) -> StepFunction:
    """Normalize pieces so that sum ||phi_k||^p = 1; the result is an atom."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    norms = [value_norm(phi) for phi in pieces]
    total = sum(n**p for n in norms)
    if total <= 0.0:
        raise ValueError("cannot normalize an all-zero step function")
    lam = total ** (1.0 / p)
    return StepFunction(
        partition=tuple(partition),
        pieces=tuple((1.0 / lam) * phi for phi in pieces),
        value_norm=value_norm,
    )


def up_norm_upper(u: StepFunction, p: float) -> float:
    """Atomic upper bound from the one-atom decomposition on u's partition:
    lambda = (sum ||phi_k||^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    norms = [u.value_norm(phi) for phi in u.pieces]
    return float(sum(n**p for n in norms) ** (1.0 / p))


def dual_pairing(f: Field, g: Field) -> complex:
    """<f, g> = int f conj(g) dx on the grid."""
    if f.grid != g.grid:
        raise ValueError("pairing needs a common grid")
    return complex(f.grid.cell * np.sum(f.values * np.conj(g.values)))


def duality_pairing(u: StepFunction, v: Trajectory) -> complex:
    """B(u, v) = -sum_k <phi_k - phi_{k-1}, v(t_k)>, phi_{-1} = phi_K = 0.

    The sum runs over all jumps of the step function, including the initial
    jump at partition[0] and the final return to zero at partition[-1]; v
    must be sampled at every partition point.
    """
    if u.grid != v.grid:
        raise ValueError("step function and path live on different grids")
    zero = Field.zero(u.grid)
    padded = (zero,) + u.pieces + (zero,)
    total = 0.0 + 0.0j
    for k, t in enumerate(u.partition):
        jump = padded[k + 1] - padded[k]
        total -= dual_pairing(jump, v[v.node_index(t)][1])
    return total


def up_norm_lower(u: StepFunction, p: float, duals: Iterable[Trajectory]) -> float:
    """Duality lower bound: max |B(u, v)| / ||v||_{V^{p'}} over trial paths,
    the V^{p'} norm measured in ``u.value_norm``."""
    if p <= 1:
        raise ValueError(f"need p > 1 for the dual exponent, got {p}")
    q = p / (p - 1.0)
    best = 0.0
    for v in duals:
        denom = vp_norm(v, q, u.value_norm, terminal_zero=True)
        if denom > 0:
            best = max(best, abs(duality_pairing(u, v)) / denom)
    return best


def step_to_path(u: StepFunction) -> Trajectory:
    """Sample a step function at its partition: pieces then the terminal 0."""
    values = [phi.values for phi in u.pieces] + [Field.zero(u.grid).values]
    return Trajectory(u.grid, u.partition, np.stack(values))


# ---------------------------------------------------------------------------
# Adapted spaces
# ---------------------------------------------------------------------------


def adapt(obj, direction: str = "forward"):
    """Undo (forward) or re-apply (backward) the free flow nodewise.

    Forward composes each value with exp(-i t Laplace) at its own node, so a
    free trajectory becomes a constant path; backward inverts it exactly.
    Step functions are twisted at the left endpoint of each piece.
    """
    from modlab.propagator import free_evolve

    if direction not in ("forward", "backward"):
        raise ValueError(f"direction must be forward or backward, got {direction}")
    sgn = -1.0 if direction == "forward" else 1.0
    if isinstance(obj, Trajectory):
        return replace(obj, values=np.stack([free_evolve(v, sgn * t).values for t, v in obj]))
    if isinstance(obj, StepFunction):
        pieces = tuple(
            free_evolve(phi, sgn * t) for t, phi in zip(obj.partition[:-1], obj.pieces)
        )
        return StepFunction(
            partition=obj.partition, pieces=pieces, value_norm=obj.value_norm
        )
    raise TypeError(f"cannot adapt object of type {type(obj)!r}")


def ys_norm(path: Trajectory, s: float, window: Window) -> float:
    """Dyadically weighted square sum of adapted V^2 norms:

    ( sum_N N^{2s} || P_N u ||^2_{V^2_adapted, M_{4,2}} )^(1/2).

    The V^2 norm uses the terminal-zero convention.
    """
    if len(path) < 2:
        raise ValueError("need at least two time nodes")
    bands = dyadic_multipliers(path.grid)
    if len(bands) < 3:
        raise ValueError("grid resolves fewer than 3 dyadic bands")
    norm = ModValueNorm(ModNormSpec(0.0, 4.0, 2.0), window)
    total = 0.0
    for band, mult in bands:
        adapted = adapt(fourier_multiply(path, mult), "forward")
        v2 = vp_norm(adapted, 2.0, norm, terminal_zero=True)
        total += band ** (2.0 * s) * v2**2
    return float(math.sqrt(total))


def xs_norm_upper(path: Trajectory, s: float, window: Window) -> float:
    """Atomic-decomposition companion of ``ys_norm``.

    Reads each adapted band path as the step function on its own nodes and
    aggregates the one-atom U^2 bounds with the same dyadic weights.  This is
    the reported stand-in for the atomic iteration norm, not an exact value.
    """
    if len(path) < 2:
        raise ValueError("need at least two time nodes")
    bands = dyadic_multipliers(path.grid)
    norm = ModValueNorm(ModNormSpec(0.0, 4.0, 2.0), window)
    partition = (*path.times, path.times[-1] + (path.times[-1] - path.times[-2]))
    total = 0.0
    for band, mult in bands:
        adapted = adapt(fourier_multiply(path, mult), "forward")
        pieces = tuple(f for _, f in adapted)
        step = StepFunction(partition=partition, pieces=pieces, value_norm=norm)
        total += band ** (2.0 * s) * up_norm_upper(step, 2.0) ** 2
    return float(math.sqrt(total))
