"""Record the reference outputs that the benchmark checks every run against.

Usage: python3 perfbench/record_references.py [WORKLOAD ...]

Runs each workload once per program seed (0 .. REFERENCE_SEEDS-1) and stores
every leaf of its JSON output but the echo of the seed in
perfbench/references.json: once per seed, or once under "any" when every seed
gave the same leaves.  Re-record only at a commit whose outputs are known to
be right: a later change that moves a value beyond the tolerance is a failed
run, not a new reference.
"""

import json
import shutil
import sys

import run


def main(names: list[str]) -> int:
    refs = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.is_file() else {}
    deadline = run.Deadline(3600.0)
    for name in names or list(run.WORKLOADS):
        by_seed = {}
        for seed in range(run.REFERENCE_SEEDS):
            out = run.WORK_DIR / "references" / name / str(seed)
            shutil.rmtree(out, ignore_errors=True)
            result = run.spawn("run", name, out, seed, deadline)
            reasons = run.check_run(name, result, out, reference={})
            if reasons:
                print(f"{name} seed {seed}: {reasons}", file=sys.stderr)
                return 1
            summary = json.loads(run.output_files(out)[0].read_text())
            leaves = run.flatten(summary)
            by_seed[str(seed)] = {k: v for k, v in leaves.items() if k not in run.SEED_ECHO}
            print(f"{name} seed {seed}: recorded, run_s {result['run_s']:.3f}")
        records = list(by_seed.values())
        refs[name] = {"any": records[0]} if all(r == records[0] for r in records) else by_seed
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
