"""Every shipped config outside the benchmark against its recorded outputs.

``tests/config_references.json`` holds every flattened JSON leaf of these
runs, recorded once.  A run that moves a leaf past the benchmark's rule
(1e-12 relative, 1e-12 absolute near 0; ``perfbench/run.py``'s
``reference_mismatches``) fails, so a kernel change cannot move a shipped
number unseen.  The benchmark's configs are held to
``perfbench/references.json`` by ``test_references.py``; ``bilinear_d3``
is held to neither, as it takes about 5 s and acceptance criterion 04 runs
the same cell.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from modlab.cli import EXIT_PASS, run

ROOT = Path(__file__).resolve().parent.parent
RECORDS = json.loads((Path(__file__).with_name("config_references.json")).read_text())
_spec = importlib.util.spec_from_file_location("perfbench_run", ROOT / "perfbench" / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.mark.parametrize("config", sorted(RECORDS))
def test_matches_record(tmp_path, config):
    assert run(str(ROOT / "configs" / f"{config}.cfg"), str(tmp_path), seed=None) == EXIT_PASS
    summary = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert bench.reference_mismatches(bench.flatten(summary), RECORDS[config]) == []


def test_every_shipped_config_is_pinned():
    benchmark = {Path(config).stem for config, *_ in bench.WORKLOADS.values()}
    shipped = {path.stem for path in (ROOT / "configs").glob("*.cfg")}
    assert shipped == set(RECORDS) | (benchmark & shipped) | {"bilinear_d3"}
