"""Run one modlab experiment in this fresh process and record what it cost.

Usage: python3 perfbench/child.py MODE CONFIG OUT SEED RESULT MODULES

MODE is ``setup`` (import only), ``run`` (untraced) or ``trace`` (with the
span tracer installed).  MODULES is a comma-separated list of the modlab
modules the experiment uses; importing them is the set-up a user pays before
``modlab.cli.run``.  The result, a JSON object, goes to the file RESULT; the
exit code is that of ``modlab.cli.run``.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402  (already loaded by the interpreter)
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    mode, config, out, seed, result_path, modules = argv
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    for name in ("modlab", "modlab.cli", *modules.split(",")):
        importlib.import_module(name)
    setup_s = time.perf_counter() - T0

    import json
    import resource

    result = {"setup_s": setup_s}
    if mode != "setup":
        from modlab import cli

        tracer = None
        call = lambda: cli.run(config, out, seed=int(seed))
        if mode == "trace":
            sys.path.insert(0, str(BENCH_DIR))
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            untraced = call
            call = lambda: tracer.call("cli.run", untraced)
        start = time.perf_counter()
        try:
            rc = call()
        finally:
            run_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        result.update(
            rc=rc,
            run_s=run_s,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            with open(Path(out) / "spans.json", "w") as fh:
                json.dump(tracer.span_records(), fh)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return result.get("rc", 0)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
