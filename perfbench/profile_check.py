"""Check the tracer's layer split of one workload against cProfile.

Usage: python3 perfbench/profile_check.py [WORKLOAD] [--config PATH]

Runs the workload once with the span tracer (in a fresh process, as the
benchmark does) and once under cProfile in this process, and prints each
layer's share of the run time by both, with the difference as a share of the
run.  The two should agree to within a tenth of the run; cProfile adds cost
to every Python call, so it reads the Python-heavy layers high.
``--config`` profiles another config with the workload's modules, e.g. the
full-size configs/bilinear_d3.cfg that is too slow to be a workload.
"""

import argparse
import cProfile
import json
import os
import pstats
import sys
import time

import run

SEED = 0  # the program seed both runs use
LAYERS = ("grid.fft_s", "modspace.norm_s", "estimates.self_s", "estimates.chain_s")


def cprofile_layers(config: str, out: str) -> tuple[float, dict]:
    """Run time and layer seconds from cProfile, by the tracer's definitions."""
    sys.path.insert(0, str(run.ROOT / "src"))
    from modlab import cli

    prof = cProfile.Profile()
    start = time.perf_counter()
    prof.runcall(cli.run, config, out, seed=SEED)
    total = time.perf_counter() - start
    stats = pstats.Stats(prof).stats  # (file, line, name) -> (cc, nc, tt, ct, callers)

    def own(pred):
        return sum(v[2] for k, v in stats.items() if pred(k[0].replace(os.sep, "/")))

    def cumulative(path_end, name):
        return sum(v[3] for k, v in stats.items() if k[0].endswith(path_end) and k[2] == name)

    return total, {
        "grid.fft_s": own(lambda f: "/numpy/fft/" in f),
        "modspace.norm_s": cumulative("modspace.py", "modulation_norm"),
        "estimates.self_s": own(lambda f: f.endswith("modlab/estimates.py")),
        "estimates.chain_s": cumulative("estimates.py", "bilinear_chain_log"),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", nargs="?", default="bilinear_d3", choices=list(run.WORKLOADS))
    parser.add_argument("--config", default=None)
    args = parser.parse_args()
    os.environ.update({v: "1" for v in run.THREAD_VARS})  # before numpy loads
    config = args.config or run.WORKLOADS[args.workload][0]
    work = run.WORK_DIR / "profile_check"

    traced = run.spawn("trace", args.workload, work / "traced", SEED,
                       run.Deadline(3600.0), config=config)
    if "layers" not in traced:
        print(f"traced run failed: {traced.get('error')}", file=sys.stderr)
        return 1
    profiled_s, profiled = cprofile_layers(str(run.ROOT / config), str(work / "cprofile"))

    rows = {}
    for layer in LAYERS:
        a = traced["layers"][layer] / traced["run_s"]
        b = profiled[layer] / profiled_s
        rows[layer] = {"traced_share": a, "cprofile_share": b, "agrees": abs(a - b) <= 0.1}
        print(f"{layer:20s} traced {a:6.3f}  cprofile {b:6.3f}  diff {a - b:+.3f}")
    print(f"run_s traced {traced['run_s']:.3f} s, under cProfile {profiled_s:.3f} s")
    print(json.dumps({
        "config": config,
        "seed": SEED,
        "traced_run_s": traced["run_s"],
        "cprofile_run_s": profiled_s,
        "traced_layers_s": {k: traced["layers"][k] for k in LAYERS},
        "cprofile_layers_s": profiled,
        "shares": rows,
    }))
    return 0 if all(r["agrees"] for r in rows.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
