"""Benchmark of modlab: time to a verdict for four experiment configs.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads below, or ``all`` to run each in turn.  Run from
the root of a modlab checkout; the program is imported from its ``src/``.

Every experiment runs in a fresh process, one at a time (closed loop), with
BLAS and OpenMP pinned to one thread, because a user of ``modlab run`` pays
cold caches and imports on every run.  The benchmark repeats the experiment
for S seconds (at least twice), checks every output, and prints one line per
metric and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
runs); with ``--trace 1`` one more run is made with the span tracer installed
and the metrics are the per-layer ones from that run.  A run fails when its
exit code is not 0, its JSON says ``pass: false``, an experiment-specific
check is false, its JSON is not byte-identical to the other runs' with the
same seed, or a value in it differs from the reference recorded for that
seed in ``references.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"
REFERENCES = BENCH_DIR / "references.json"
BENCHMARK = ROOT / "BENCHMARK.json"

# config, modlab modules the experiment imports, and the checks on its JSON
# beyond ``pass``; README.md says why each workload was chosen
WORKLOADS = {
    "bilinear_d3": (
        "perfbench/configs/bilinear_d3_half.cfg",
        ("modlab.estimates",),
        {
            "chain.cover_ok": ("low", "meta", "chain", "cover_ok"),
            "chain.holder_ok": ("low", "meta", "chain", "holder_ok"),
        },
    ),
    "largedata_d3": (
        "configs/largedata_d3.cfg",
        ("modlab.solver", "modlab.datagen"),
        {
            "certificate.holds": ("report", "certificate", "holds"),
            "converged": ("report", "converged"),
        },
    ),
    "decoupling_d1": (
        "configs/decoupling_d1_p6.cfg",
        ("modlab.estimates", "modlab.propagator"),
        {},
    ),
    "solve_d1": (
        "configs/solve_quintic.cfg",
        ("modlab.solver", "modlab.datagen"),
        {"cross_validation.agrees": ("cross_validation", "agrees")},
    ),
}

# --seed n runs the program with seed n mod REFERENCE_SEEDS, so every run has
# a recorded reference output to be checked against.  A workload whose output
# does not depend on the seed, apart from the config's echo of it (SEED_ECHO,
# left out of references), has one record for every seed, under "any".
REFERENCE_SEEDS = 8
SEED_ECHO = ("config/seed", "config/resolved/seed")
# agreement required of a value against its reference: 1e-12 relative, with
# the same absolute floor for values near 0 such as fitted slopes
RTOL = ATOL = 1e-12

MIN_RUNS = 2  # two runs with one seed are needed for the byte-identity check
SETUP_PROBES = 6  # extra import-only processes for the set-up median
TIME_LIMIT_S = 170.0  # every benchmark invocation ends within 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared_units(trace: bool) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this kind of run."""
    spec = json.loads(BENCHMARK.read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


def spawn(mode: str, workload: str, out: Path, seed: int, deadline: Deadline,
          config: str | None = None) -> dict:
    """One fresh child process; returns its result, or a failure record."""
    default_config, modules, _ = WORKLOADS[workload]
    config = config or default_config
    out.mkdir(parents=True, exist_ok=True)
    result_file = out / "child-result.json"
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [
        sys.executable, str(BENCH_DIR / "child.py"), mode, str(ROOT / config),
        str(out), str(seed), str(result_file), ",".join(modules),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline.left()),
        )
    except subprocess.TimeoutExpired:
        return {"rc": None, "error": "timed out"}
    if not result_file.is_file():
        return {"rc": proc.returncode, "error": proc.stderr.strip()[-2000:]}
    result = json.loads(result_file.read_text())
    result["rc"] = proc.returncode
    return result


def flatten(obj, prefix: str = "") -> dict:
    """Leaves of a JSON document keyed by their path."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return {prefix: obj}
    out = {}
    for key, value in items:
        out.update(flatten(value, f"{prefix}/{key}" if prefix else str(key)))
    return out


def reference_mismatches(leaves: dict, reference: dict) -> list[str]:
    """Reference paths missing from ``leaves`` or holding another value.

    Paths that only ``leaves`` has are new outputs, not differences.
    """
    bad = sorted(set(reference) - set(leaves))
    for path in set(leaves) & set(reference):
        a, b = leaves[path], reference[path]
        numeric = all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b)
        )
        if numeric:
            if abs(a - b) > RTOL * max(abs(a), abs(b)) + ATOL:
                bad.append(path)
        elif a != b:
            bad.append(path)
    return bad


def output_files(out: Path) -> tuple[Path, Path]:
    jsons = [p for p in out.glob("*.json") if p.name not in ("child-result.json", "spans.json")]
    if len(jsons) != 1:
        raise FileNotFoundError(f"expected one experiment JSON in {out}, found {len(jsons)}")
    return jsons[0], jsons[0].with_suffix(".csv")


def check_run(workload: str, result: dict, out: Path, reference: dict | None) -> list[str]:
    """Reasons the run failed; empty when it passed every check."""
    if result.get("rc") != 0:
        return [f"exit code {result.get('rc')}: {result.get('error', '')}"]
    try:
        json_path, csv_path = output_files(out)
    except FileNotFoundError as exc:
        return [str(exc)]
    if not csv_path.is_file():
        return [f"missing {csv_path.name}"]
    summary = json.loads(json_path.read_text())
    reasons = [] if summary.get("pass") is True else ["pass is not true"]
    for label, keys in WORKLOADS[workload][2].items():
        value = summary
        for key in keys:
            value = value.get(key, {}) if isinstance(value, dict) else None
        if value is not True:
            reasons.append(f"{label} is not true")
    if reference is None:
        reasons.append("no reference output for this seed")
    else:
        bad = reference_mismatches(flatten(summary), reference)
        if bad:
            reasons.append(f"differs from reference at {', '.join(bad[:5])}")
    return reasons


def src_line_count() -> int:
    return sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )


def environment() -> dict:
    """What bench numbers from different commits or machines depend on."""
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": "pocketfft (numpy.fft)" if hasattr(numpy.fft, "_pocketfft") else "numpy.fft",
        "blas": blas_name,
        "threads": {v: "1" for v in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": src_line_count(),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = Deadline(TIME_LIMIT_S)
    work = WORK_DIR / workload
    shutil.rmtree(work, ignore_errors=True)
    prog_seed = seed % REFERENCE_SEEDS
    refs = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    by_seed = refs.get(workload, {})
    reference = by_seed.get(str(prog_seed), by_seed.get("any"))

    setups = []
    for i in range(SETUP_PROBES):
        probe = spawn("setup", workload, work / f"setup-{i}", prog_seed, deadline)
        if "setup_s" in probe:
            setups.append(probe["setup_s"])

    runs, failures, first_json = [], [], None
    start = time.monotonic()
    while True:
        # start a run only if it is expected to end inside the window
        typical = statistics.median(r["wall"] for r in runs) if runs else 0.0
        if len(runs) >= MIN_RUNS and time.monotonic() - start + typical > seconds:
            break
        if runs and max(r["wall"] for r in runs) > deadline.left() - 5.0:
            break
        out = work / f"run-{len(runs)}"
        t = time.monotonic()
        result = spawn("run", workload, out, prog_seed, deadline)
        result["wall"] = time.monotonic() - t
        reasons = check_run(workload, result, out, reference)
        if not reasons:
            data = output_files(out)[0].read_bytes()
            first_json = first_json or data
            if data != first_json:
                reasons.append("JSON differs from an earlier run with the same seed")
        runs.append(result)
        failures += [f"run-{len(runs) - 1}: {r}" for r in reasons]
        if result["rc"] is None:
            break
    good = [r for r in runs if "run_s" in r]
    setups += [r["setup_s"] for r in good]
    attempted = len(runs)
    metrics = {}
    if good:
        metrics = {
            "run_s": statistics.median(r["run_s"] for r in good),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
        }
    samples = {"run_s": [r.get("run_s") for r in runs], "setup_s": setups}

    if trace and good:
        out = work / "traced"
        result = spawn("trace", workload, out, prog_seed, deadline)
        attempted += 1
        reasons = check_run(workload, result, out, reference)
        if not reasons and output_files(out)[0].read_bytes() != first_json:
            reasons.append("traced JSON differs from the untraced runs'")
        failures += [f"traced: {r}" for r in reasons]
        if "layers" in result:
            metrics = layer_metrics(result, out, metrics["run_s"])

    failed = len({f.split(":", 1)[0] for f in failures})
    units = declared_units(trace)
    return {
        "workload": workload,
        "seed": seed,
        "program_seed": prog_seed,
        "correct": not failures and set(metrics) == set(units),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics},
        "samples": samples,
        "environment": environment(),
    }


def layer_metrics(result: dict, out: Path, untraced_run_s: float) -> dict:
    from tracer import decoupling_macs

    layers = dict(result["layers"])
    json_path, csv_path = output_files(out)
    summary = json.loads(json_path.read_text())
    config = summary["config"]
    macs = decoupling_macs(config["resolved"]) if config["experiment"] == "decoupling" else 0
    sweep_s = layers["estimates.sweep_s"]
    layers.update({
        "estimates.cells": len(csv_path.read_text().splitlines()) - 1,
        "estimates.decoupling_macs": macs,
        "estimates.decoupling_gmacs": macs / sweep_s / 1e9 if macs and sweep_s > 0 else 0.0,
        "cli.out_bytes": json_path.stat().st_size + csv_path.stat().st_size,
        "trace.overhead_frac": result["run_s"] / untraced_run_s - 1.0,
        "trace.coverage_frac": 1.0 - layers["cli.self_s"] / result["run_s"],
    })
    return layers


def report(res: dict) -> None:
    name = res["workload"]
    for key, m in res["metrics"].items():
        print(f"{name} {key} {m['value']!r} {m['unit']}")
    print(f"{name} fail_frac {res['failed'] / res['attempted']!r} ({res['failed']} of {res['attempted']} runs)")
    for f in res["failures"]:
        print(f"{name} FAILED {f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modlab" / "cli.py").is_file():
        print(f"error: no modlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH_DIR))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure(name, args.seed, args.seconds, bool(args.trace))
        results.append(res)
        WORK_DIR.mkdir(exist_ok=True)
        (WORK_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(res, indent=2) + "\n"
        )
        report(res)
    print("environment " + json.dumps(results[0]["environment"], sort_keys=True))
    metrics = {}
    for res in results:
        prefix = f"{res['workload']}." if len(results) > 1 else ""
        metrics.update({prefix + k: v for k, v in res["metrics"].items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
