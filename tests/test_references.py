"""Every workload of the benchmark against its recorded outputs.

``perfbench/references.json`` holds every value the benchmark's experiments
report, recorded once; the benchmark fails a run that moves one by more than
1e-12 relative (1e-12 absolute near 0).  Running the workloads here at seed
0, through the benchmark's own config table, reference lookup and
comparison, makes a change that moves the round-off of any norm kernel they
share fail the test suite as well.  The solver and decoupling outputs are
deterministic, so their references sit under "any" seed; ``bilinear_d3``
has random inputs and is held to seed 0's record.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from modlab.cli import EXIT_PASS, run

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("workload", ["solve_d1", "largedata_d3", "decoupling_d1", "bilinear_d3"])
def test_matches_benchmark_reference(tmp_path, workload):
    config = ROOT / bench.WORKLOADS[workload][0]
    assert run(str(config), str(tmp_path), seed=0) == EXIT_PASS
    summary = json.loads(next(tmp_path.glob("*.json")).read_text())
    by_seed = json.loads(bench.REFERENCES.read_text())[workload]
    reference = by_seed.get("0", by_seed.get("any"))
    assert bench.reference_mismatches(bench.flatten(summary), reference) == []
