"""Self-tests of the benchmark harness.

Run from the repository root: python3 -m pytest -q perfbench/test_perfbench.py
"""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from tracer import Span, Tracer, busy_time, self_times  # noqa: E402


def test_self_time_of_a_span_tree():
    spans = [
        Span("cli.run", 0.0, 10.0, -1),
        Span("estimates.sweep", 1.0, 9.0, 0),
        Span("grid.fft", 2.0, 3.0, 1),
        Span("modspace.norm", 4.0, 8.0, 1),
        Span("grid.fft", 5.0, 7.5, 3),
    ]
    assert self_times(spans) == pytest.approx([2.0, 3.0, 1.0, 1.5, 2.5])
    assert busy_time(spans, "grid.fft") == pytest.approx(3.5)
    nested = [Span("estimates.sweep", 0.0, 4.0, -1), Span("estimates.sweep", 1.0, 3.0, 0)]
    assert busy_time(nested, "estimates.sweep") == pytest.approx(4.0)


def test_window_energies_match_explicit_pieces():
    from modlab.grid import make_grid, to_spectrum
    from modlab.modspace import make_window, modulation_norm, ModNormSpec
    from modlab.datagen import random_field

    grid = make_grid(2, 16, 2 * np.pi)
    window = make_window(grid, 4.0)
    f = random_field(grid, 3, band=2.0)
    with Tracer() as tracer:
        modulation_norm(f, ModNormSpec(0.0, 4.0, 2.0), window)
    active, useful = tracer.window_counts()
    F = to_spectrum(f).coefficients
    energies = [
        float(np.sum(np.abs(window.multiplier(k) * F) ** 2))
        for k in window.active_lattice(F)
    ]
    floor = 1e-24 * float(np.sum(np.abs(F) ** 2))
    assert active == len(energies)
    assert useful == sum(e >= floor for e in energies)


def _patchable_state():
    import numpy.fft

    import modlab.grid
    import modlab.modspace

    state = {("numpy.fft", k): v for k, v in vars(numpy.fft).items()}
    for name, module in list(sys.modules.items()):
        if name == "modlab" or name.startswith("modlab."):
            state.update({(name, k): v for k, v in vars(module).items()})
    state["Field.__post_init__"] = modlab.grid.Field.__dict__["__post_init__"]
    state["Window.active_lattice"] = modlab.modspace.Window.__dict__["active_lattice"]
    return state


@pytest.mark.parametrize("workload", ["solve_d1", "largedata_d3", "bilinear_d3"])
def test_tracing_only_observes(workload, tmp_path):
    from modlab import cli

    config = str(ROOT / run.WORKLOADS[workload][0])
    assert cli.run(config, str(tmp_path / "plain"), seed=1) == 0
    before = _patchable_state()
    tracer = Tracer()
    tracer.install()
    try:
        rc = tracer.call("cli.run", cli.run, config, str(tmp_path / "traced"), seed=1)
    finally:
        tracer.uninstall()
    assert rc == 0
    after = _patchable_state()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    plain = run.output_files(tmp_path / "plain")
    traced = run.output_files(tmp_path / "traced")
    assert plain[0].read_bytes() == traced[0].read_bytes()
    assert plain[1].read_bytes() == traced[1].read_bytes()
    layers = tracer.layer_metrics()
    assert layers["grid.fft_calls"] > 0 and layers["grid.fft_s"] > 0
    assert 0.0 < layers["cli.self_s"] < tracer.spans[0].end - tracer.spans[0].start


def test_reference_tolerance():
    ref = {"slope": 0.0, "lhs/0": 2.5, "pass": True, "iterations": 3}
    assert run.reference_mismatches(dict(ref), ref) == []
    assert run.reference_mismatches({**ref, "slope": 5e-13, "lhs/0": 2.5 * (1 + 1e-13)}, ref) == []
    assert run.reference_mismatches({**ref, "lhs/0": 2.5 * (1 + 1e-10)}, ref) == ["lhs/0"]
    assert run.reference_mismatches({**ref, "pass": False}, ref) == ["pass"]
    assert run.reference_mismatches({**ref, "new_output": 1}, ref) == []
    assert run.reference_mismatches({k: v for k, v in ref.items() if k != "slope"}, ref) == ["slope"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve_d1", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
