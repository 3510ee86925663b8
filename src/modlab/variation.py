"""Discrete p-variation and atomic calculus for field-valued paths.

Every path, a step function included, is a ``grid.Trajectory`` read as a
right-continuous step function: node k holds the value on [t_k, t_{k+1}).
An atom's last node is the 0 it takes from its last partition point on.
Increments only ever use node values, measured in a value norm that each
function takes as an argument, e.g. ``partial(lp_norm, p=2.0)``.  The
conventional terminal value 0 at t = +infinity is exposed as an explicit
flag: plain increment suprema (``terminal_zero=False``, the default) match the
dynamic program stated for ``vp_norm``; the adapted V^2 norm of a free
trajectory switches it on, which is what makes the profile path of f carry
the single jump of size ||f||.

The atomic norm is not computed exactly (it is an infimum over all
decompositions); ``up_norm_upper`` evaluates the one-atom decomposition a
step function carries on its own nodes, and ``duality_pairing`` is the
pairing B(u, v) that bounds it from below.
"""

from __future__ import annotations

import math
from dataclasses import replace
from itertools import combinations
from typing import Sequence

import numpy as np

from modlab.grid import Field, Trajectory, check_exponent

__all__ = [
    "vp_norm",
    "vp_norm_bruteforce",
    "make_atom",
    "up_norm_upper",
    "duality_pairing",
]


def _root(total, p: float) -> float:
    """total^(1/p) of a sum of p-th powers; an overflowed sum raises."""
    if not math.isfinite(total):
        raise OverflowError(f"sum of p-th powers overflows at p = {p:g}")
    return float(total ** (1.0 / p))


def _increment_table(path: Trajectory, p: float, norm, terminal_zero: bool):
    """Pairwise increment norms dist[i, j] = ||v_i - v_j|| and, only with
    ``terminal_zero``, node norms, after the checks ``check_exponent`` and two
    nodes."""
    check_exponent(p)
    m = len(path)
    if m < 2:
        raise ValueError("need at least two nodes")
    dist = np.zeros((m, m))
    for j, i in combinations(range(m), 2):
        dist[i, j] = dist[j, i] = norm(Field(path.grid, path.values[i] - path.values[j]))
    node = np.array([norm(v) for _, v in path]) if terminal_zero else None
    return dist, node


def vp_norm(path: Trajectory, p: float, norm, terminal_zero: bool = False) -> float:
    """Exact p-variation of the sampled path in the value norm ``norm``.

    Supremum over increasing node subsequences of
    (sum ||v(t_k) - v(t_{k-1})||^p)^(1/p), by the O(m^2) dynamic program
    D[i] = max(0, max_{j<i} D[j] + ||v_i - v_j||^p).  With
    ``terminal_zero`` the conventional value 0 at t = +infinity is appended,
    adding a final jump ||v_last||.
    """
    dist, node = _increment_table(path, p, norm, terminal_zero)
    D = np.zeros(len(path))
    with np.errstate(over="ignore"):  # an overflowed power is inf; _root raises
        for i in range(1, len(path)):
            D[i] = max(0.0, max(D[j] + dist[i, j] ** p for j in range(i)))
        if terminal_zero:
            D = D + node**p
    return _root(np.max(D), p)


def vp_norm_bruteforce(path: Trajectory, p: float, norm, terminal_zero: bool = False) -> float:
    """Exhaustive enumeration over all node subsequences; oracle for small m.
    It measures its own increments, sharing no table with ``vp_norm``."""
    check_exponent(p)
    m = len(path)
    if not 2 <= m <= 16:
        raise ValueError(f"brute force needs 2 to 16 nodes, got {m}")
    dist = np.zeros((m, m))
    for a, b in combinations(range(m), 2):
        dist[a, b] = norm(path[b][1] - path[a][1])
    node = np.array([norm(f) for _, f in path]) if terminal_zero else None
    best = 0.0
    with np.errstate(over="ignore"):
        for mask in range(1, 1 << m):
            idx = [i for i in range(m) if mask >> i & 1]
            s = sum(dist[a, b] ** p for a, b in zip(idx, idx[1:]))
            if terminal_zero:
                s += node[idx[-1]] ** p
            best = max(best, s)
    return _root(best, p)


def make_atom(partition: Sequence[float], pieces: Sequence[Field], p: float, norm) -> Trajectory:
    """The atom pieces[k] / lambda on [partition[k], partition[k+1]), 0 from
    partition[-1] on, with lambda = (sum ||pieces[k]||^p)^(1/p): a Trajectory
    on the partition whose last node is that 0."""
    grid = pieces[0].grid
    values = np.stack([f.values for f in pieces] + [np.zeros(grid.shape)])
    step = Trajectory(grid, partition, values)
    lam = up_norm_upper(step, p, norm)
    if lam <= 0.0:
        raise ValueError("cannot normalize an all-zero step function")
    return replace(step, values=(1.0 / lam) * step.values)


def up_norm_upper(u: Trajectory, p: float, norm) -> float:
    """Atomic upper bound from the one-atom decomposition on u's nodes:
    lambda = (sum_k ||u(t_k)||^p)^(1/p)."""
    check_exponent(p)
    return _root(sum(norm(f) ** p for _, f in u), p)


def duality_pairing(u: Trajectory, v: Trajectory) -> complex:
    """B(u, v) = -sum_k <u(t_k) - u(t_{k-1}), v(t_k)>, u(t_{-1}) = 0, with
    <f, g> = int f conj(g) dx.

    The sum runs over every jump of the step function u, including the
    initial one at t_0 and, for an atom, the return to zero at its last node;
    v must be sampled at every node of u.
    """
    if u.grid != v.grid:
        raise ValueError("step function and path live on different grids")
    jumps = np.diff(u.values, axis=0, prepend=0)
    total = 0.0 + 0.0j
    for t, jump in zip(u.times, jumps):
        total -= complex(u.grid.cell * np.sum(jump * np.conj(v.values[v.node_index(t)])))
    return total
