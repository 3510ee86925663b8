"""Span tracer for the modlab benchmark.

The tracer observes modlab from outside: it replaces the public entry points
of each layer with timing wrappers for the length of one run and puts the
originals back afterwards, so no file of the package is edited and the
experiment's outputs are unchanged.

A span records a name, a start, an end and the index of its parent span.
Spans are kept in memory; the caller writes them out when the run ends.  The
self time of a span is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
from dataclasses import dataclass

# The modules whose public functions are wrapped, imported before patching so
# every module that bound a name with ``from ... import`` is patched alike.
MODLAB_MODULES = (
    "modlab.grid",
    "modlab.modspace",
    "modlab.propagator",
    "modlab.variation",
    "modlab.datagen",
    "modlab.estimates",
    "modlab.solver",
    "modlab.cli",
)

# Transforms in numpy.fft; fftfreq and the shift helpers move no data.
FFT_NAMES = (
    "fft", "ifft", "fft2", "ifft2", "fftn", "ifftn",
    "rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn", "hfft", "ihfft",
)

SWEEPS = (
    "smoothing_ratio",
    "strichartz_l4_ratio",
    "bilinear_ratio",
    "v2_bilinear_ratio",
    "decoupling_ratio",
)

# A window piece with less energy than this share of the field's cannot move
# a modulation norm at the 1e-12 agreement the reference check uses.
USEFUL_PIECE_ENERGY = 1e-24


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def busy_time(spans: list[Span], name: str) -> float:
    """Wall time inside spans called ``name``, nested repeats counted once."""
    total = 0.0
    for s in spans:
        if s.name != name:
            continue
        p = s.parent
        while p >= 0 and spans[p].name != name:
            p = spans[p].parent
        if p < 0:
            total += s.end - s.start
    return total


def _fft_size(name: str, args: tuple, kwargs: dict) -> tuple[int, int]:
    """(points transformed, length of one transform) for a numpy.fft call."""
    a = args[0] if args else kwargs["a"]
    shape = getattr(a, "shape", None) or (len(a),)
    points = math.prod(shape)
    if name.endswith("n"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else None)
    elif name.endswith("2"):
        axes = kwargs.get("axes", args[2] if len(args) > 2 else (-2, -1))
    else:
        axes = (kwargs.get("axis", args[2] if len(args) > 2 else -1),)
    if axes is None:
        axes = range(len(shape))
    return points, math.prod(shape[ax] for ax in axes)


def decoupling_macs(resolved: dict) -> int:
    """Complex multiply-adds of a decoupling sweep, computed from its config.

    Mirrors the geometry of ``modlab.estimates._decoupling_cell``: at each
    sampled time, every space point inside the ball takes one mat-vec over the
    unit-ball mesh for the full extension and one, split across caps, for the
    cap pieces.
    """
    import numpy as np

    d, total = resolved["d"], 0
    for R in resolved["scales"]:
        mesh = resolved["mesh"] or math.ceil(2.6 * R)
        xi = -1.0 + (2.0 / mesh) * (np.arange(mesh) + 0.5)
        nmesh = int(np.count_nonzero(functools.reduce(np.add.outer, [xi**2] * d) < 1.0))
        m = math.ceil(2.0 * R * resolved["samples_per_unit"])
        axis = -R + (2.0 * R / m) * (np.arange(m) + 0.5)
        in_ball = functools.reduce(np.add.outer, [axis**2] * (d + 1)) <= R**2
        total += 2 * int(np.count_nonzero(in_ball)) * nmesh
    return total


class Tracer:
    """Installs timing wrappers into modlab and numpy.fft, and removes them."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.fft_points = 0
        self.fft_flops = 0.0
        self.norm_inputs: list[tuple] = []  # (window, spectrum, active ks)
        self.picard_iterations = 0
        self.iterate_gaps: list[float] = []
        self.splitstep_steps = 0

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    # -- patching ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind ``original`` in every modlab module that holds it."""
        for modname, module in list(sys.modules.items()):
            if modname != "modlab" and not modname.startswith("modlab."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        import numpy.fft

        for modname in MODLAB_MODULES:
            importlib.import_module(modname)
        grid = sys.modules["modlab.grid"]
        modspace = sys.modules["modlab.modspace"]
        propagator = sys.modules["modlab.propagator"]
        estimates = sys.modules["modlab.estimates"]
        solver = sys.modules["modlab.solver"]

        for name in FFT_NAMES:
            if name in vars(numpy.fft):
                self._set(numpy.fft, name, self._fft_wrapper(name, getattr(numpy.fft, name)))

        self._set(grid.Field, "__post_init__",
                  self._spanned("grid.field", grid.Field.__post_init__))
        self._set(modspace.Window, "active_lattice",
                  self._active_lattice_wrapper(modspace.Window.active_lattice))
        self._replace_everywhere(
            modspace.modulation_norm, self._spanned("modspace.norm", modspace.modulation_norm)
        )
        for fn_name in ("free_evolve", "duhamel_path"):
            fn = getattr(propagator, fn_name)
            self._replace_everywhere(fn, self._spanned(f"propagator.{fn_name}", fn))
        for fn_name in SWEEPS:
            fn = getattr(estimates, fn_name)
            self._replace_everywhere(fn, self._spanned("estimates.sweep", fn))
        self._replace_everywhere(
            estimates.bilinear_chain_log,
            self._spanned("estimates.chain", estimates.bilinear_chain_log),
        )
        self._replace_everywhere(solver.picard_solve, self._picard_wrapper(solver.picard_solve))
        self._replace_everywhere(
            solver.splitstep_solve, self._splitstep_wrapper(solver.splitstep_solve)
        )

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- wrappers that also count work ------------------------------------

    def _fft_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            points, length = _fft_size(name, args, kwargs)
            self.fft_points += points
            if length > 1:
                self.fft_flops += 5.0 * points * math.log2(length)
            return self.call("grid.fft", fn, *args, **kwargs)

        return wrapper

    def _active_lattice_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(window, coefficients):
            ks = fn(window, coefficients)
            # spectra reach here read-only (SpectralField freezes them), so a
            # reference is enough to score the windows after the run
            self.norm_inputs.append((window, coefficients, ks))
            return ks

        return wrapper

    def _picard_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            user_hook = kwargs.pop("iterate_hook", None)
            last_exit = [None]

            def hook(j, path):
                entered = time.perf_counter()
                if last_exit[0] is not None:
                    self.iterate_gaps.append(entered - last_exit[0])
                if user_hook is not None:
                    self.call("solver.certificate", user_hook, j, path)
                last_exit[0] = time.perf_counter()

            result = self.call("solver.picard", fn, *args, iterate_hook=hook, **kwargs)
            self.picard_iterations += result[1].iterations
            return result

        return wrapper

    def _splitstep_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(problem, dt, *args, **kwargs):
            self.splitstep_steps += int(round(problem.horizon / dt))
            return self.call("solver.splitstep", fn, problem, dt, *args, **kwargs)

        return wrapper

    # -- results ------------------------------------------------------------

    def window_counts(self) -> tuple[int, int]:
        """(active windows, active windows holding a useful piece)."""
        import numpy as np

        active = useful = 0
        for window, coefficients, ks in self.norm_inputs:
            active += len(ks)
            if not ks:
                continue
            weights = window.axis_profiles() ** 2
            energy = np.abs(coefficients) ** 2
            # per-axis contraction: E[k] = sum_xi prod_i w[k_i, xi_i] |F(xi)|^2
            piece = energy
            for _ in range(window.grid.d):
                piece = np.tensordot(piece, weights, axes=([0], [1]))
            floor = USEFUL_PIECE_ENERGY * float(energy.sum())
            offset = window.kmax
            useful += sum(
                1 for k in ks if piece[tuple(v + offset for v in k)] >= floor
            )
        return active, useful

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times from the recorded spans."""
        spans = self.spans
        own = self_times(spans)
        count = lambda name: sum(1 for s in spans if s.name == name)
        self_of = lambda pred: sum((t for s, t in zip(spans, own) if pred(s.name)), 0.0)
        fft_s = busy_time(spans, "grid.fft")
        active, useful = self.window_counts()
        return {
            "grid.fft_calls": count("grid.fft"),
            "grid.fft_s": fft_s,
            "grid.fft_points": self.fft_points,
            "grid.fft_gflops": self.fft_flops / fft_s / 1e9 if fft_s > 0 else 0.0,
            "grid.field_count": count("grid.field"),
            "grid.field_s": busy_time(spans, "grid.field"),
            "modspace.norm_calls": count("modspace.norm"),
            "modspace.norm_s": busy_time(spans, "modspace.norm"),
            "modspace.norm_self_s": self_of(lambda n: n == "modspace.norm"),
            "modspace.windows_active": active,
            "modspace.window_useful_frac": useful / active if active else 0.0,
            "propagator.free_evolve_calls": count("propagator.free_evolve"),
            "propagator.free_evolve_s": busy_time(spans, "propagator.free_evolve"),
            "propagator.duhamel_path_calls": count("propagator.duhamel_path"),
            "propagator.duhamel_path_s": busy_time(spans, "propagator.duhamel_path"),
            "estimates.sweep_s": busy_time(spans, "estimates.sweep"),
            "estimates.self_s": self_of(lambda n: n.startswith("estimates.")),
            "estimates.chain_s": busy_time(spans, "estimates.chain"),
            "solver.picard_calls": count("solver.picard"),
            "solver.picard_s": busy_time(spans, "solver.picard"),
            "solver.picard_iterations": self.picard_iterations,
            "solver.iterate_s": statistics.median(self.iterate_gaps)
            if self.iterate_gaps
            else 0.0,
            "solver.certificate_s": busy_time(spans, "solver.certificate"),
            "solver.splitstep_s": busy_time(spans, "solver.splitstep"),
            "solver.splitstep_steps": self.splitstep_steps,
            "cli.self_s": self_of(lambda n: n == "cli.run"),
        }

    def span_records(self) -> list[list]:
        return [[s.name, s.start, s.end, s.parent] for s in self.spans]
