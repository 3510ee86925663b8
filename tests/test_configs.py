"""Every shipped config outside the benchmark against its recorded outputs.

``tests/config_references.json`` holds every flattened JSON leaf of these
runs, recorded once.  A run that moves a leaf past the benchmark's rule
(1e-12 relative, 1e-12 absolute near 0; ``perfbench/run.py``'s
``reference_mismatches``) fails, so a kernel change cannot move a shipped
number unseen.  The benchmark's configs are held to
``perfbench/references.json`` by ``test_references.py``; ``bilinear_d3``
is held to neither, as it takes about 5 s and acceptance criterion 04 runs
the same cell.  ``decoupling_d1_p6``, the one shipped run whose bits pass
through BLAS, must also write the same bytes at 1 and 2 OpenBLAS threads.
"""

import importlib.util
import json
import os
import subprocess
import sys
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


def test_decoupling_config_keeps_its_bytes_at_any_blas_thread_count(tmp_path):
    # the one shipped run whose bits pass through BLAS: its cap GEMMs give
    # the same bits at 1 and 2 OpenBLAS threads while every cap holds fewer
    # than about 222 mesh points, as these do
    config, src = str(ROOT / "configs" / "decoupling_d1_p6.cfg"), str(ROOT / "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "modlab.cli", "run", config, "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == EXIT_PASS, done.stderr
        outs.append([(out / name).read_bytes() for name in ("decoupling.json", "decoupling.csv")])
    assert outs[0] == outs[1]
