import json
from pathlib import Path

import numpy as np
import pytest

from modlab.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_SCALES,
    EXIT_UNKNOWN,
    main,
    run,
)
from modlab.datagen import load_field


SMOOTHING_CFG = """
[experiment]
kind = smoothing
seed = 7

[grid]
d = 1
n = 512
length = 25.132741228718345

[sweep]
scales = 2 4 8
family = focusing
p = 4
time_nodes = 257
margin = 0.15
"""


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_smoothing_run_outputs(self, tmp_path):
        cfg = write(tmp_path, SMOOTHING_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        csv = (out / "smoothing.csv").read_text().strip().splitlines()
        assert csv[0] == "experiment,scale,lhs,rhs,ratio"
        assert len(csv) == 4  # header + 3 scales
        summary = json.loads((out / "smoothing.json").read_text())
        for key in ("slope", "intercept", "residual", "predicted", "margin", "pass"):
            assert key in summary
        assert summary["pass"] is True
        assert summary["config"]["resolved"]["seed"] == 7
        assert summary["config"]["resolved"]["scales"] == [2.0, 4.0, 8.0]

    def test_seed_override_embedded(self, tmp_path):
        cfg = write(tmp_path, SMOOTHING_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=11) == EXIT_PASS
        summary = json.loads((out / "smoothing.json").read_text())
        assert summary["config"]["seed"] == 11

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write(tmp_path, SMOOTHING_CFG)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run(str(cfg), str(out1)) == EXIT_PASS
        assert run(str(cfg), str(out2)) == EXIT_PASS
        assert (out1 / "smoothing.json").read_bytes() == (out2 / "smoothing.json").read_bytes()
        assert (out1 / "smoothing.csv").read_bytes() == (out2 / "smoothing.csv").read_bytes()

    def test_malformed_config_no_partial_output(self, tmp_path):
        cfg = write(tmp_path, "not an ini file [ [ [")
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_kind_rejected(self, tmp_path):
        cfg = write(tmp_path, "[experiment]\nseed = 1\n")
        assert run(str(cfg), str(tmp_path / "out")) == EXIT_CONFIG

    def test_unknown_experiment(self, tmp_path):
        cfg = write(tmp_path, "[experiment]\nkind = frobnicate\n")
        assert run(str(cfg), str(tmp_path / "out")) == EXIT_UNKNOWN

    def test_invalid_scales(self, tmp_path):
        bad = SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 3 5 7")
        cfg = write(tmp_path, bad)
        assert run(str(cfg), str(tmp_path / "out")) == EXIT_SCALES

    def test_out_of_band_scales(self, tmp_path):
        bad = SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 2 4 64")
        cfg = write(tmp_path, bad)
        assert run(str(cfg), str(tmp_path / "out")) == EXIT_SCALES


class TestExperiments:
    def test_norms(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = norms
seed = 3

[grid]
d = 2
n = 32
length = 25.132741228718345

[sweep]
trials = 10
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        summary = json.loads((out / "norms.json").read_text())
        assert summary["max_rel_deviation"] <= 1e-10

    def test_variation(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = variation
seed = 5

[grid]
d = 1
n = 8
length = 1.0

[sweep]
trials = 25
p = 2
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        summary = json.loads((out / "variation.json").read_text())
        assert summary["dp_matches_bruteforce"]
        assert summary["duality_inequality"]

    def test_solve(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = solve
seed = 1

[grid]
d = 1
n = 256
length = 50.26548245743669

[problem]
data = gaussian
amplitude = 0.2
horizon = 0.1
time_nodes = 65
tolerance = 1e-5
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        summary = json.loads((out / "solve.json").read_text())
        assert summary["cross_validation"]["agrees"]
        assert summary["sum_space_smallness"]["bound"] > 0

    def test_largedata(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = largedata
seed = 1

[grid]
d = 3
n = 16
length = 25.132741228718345

[problem]
data = mollified
n_radius = 2
amplitude = 1.0
horizon = 1.0
time_nodes = 17
c0 = 0.4
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        summary = json.loads((out / "largedata.json").read_text())
        assert summary["report"]["certificate"]["holds"]

    def test_datagen_writes_binary_and_report(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = datagen
seed = 2

[grid]
d = 1
n = 512
length = 64.0

[sweep]
scales = 2 4
family = mollified
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        f = load_field(out / "field_mollified_2.bin")
        assert f.grid.n == 512
        summary = json.loads((out / "datagen.json").read_text())
        assert len(summary["reports"]) == 2
        assert summary["reports"][0]["boundary_flagged"] is False


class TestSweepKinds:
    def test_strichartz(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = strichartz
seed = 2

[grid]
d = 3
n = 32
length = 6.283185307179586
cube = 4.0

[sweep]
scales = 1 2 4
family = focusing
time_nodes = 33
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        assert (out / "strichartz.json").exists()

    def test_bilinear(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = bilinear
seed = 2

[grid]
d = 3
n = 16
length = 6.283185307179586
cube = 4.0

[sweep]
scales = 1 2 4
fixed_scale = 1
family = band_noise
time_nodes = 33
min_separation = 1
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS
        rows = (out / "bilinear.csv").read_text().strip().splitlines()
        assert len(rows) == 7  # header + two 3-point sweeps
        summary = json.loads((out / "bilinear.json").read_text())
        assert "high" in summary and "low" in summary

    def test_v2bilinear(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = v2bilinear
seed = 2

[grid]
d = 3
n = 16
length = 6.283185307179586
cube = 4.0

[sweep]
scales = 1 2 4
fixed_scale = 4
family = band_noise
time_nodes = 33
min_separation = 1
atoms = 2
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS

    def test_decoupling(self, tmp_path):
        cfg = write(
            tmp_path,
            """
[experiment]
kind = decoupling
seed = 0

[grid]
d = 1

[sweep]
scales = 16 32 64
p = 6
profile = constant
margin = 0.2
""",
        )
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_PASS


class TestFailurePaths:
    def test_failing_criterion_exits_one(self, tmp_path):
        # an impossible margin turns a passing sweep into a reported failure
        bad = SMOOTHING_CFG.replace("margin = 0.15", "margin = -10")
        cfg = write(tmp_path, bad)
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_FAIL
        summary = json.loads((out / "smoothing.json").read_text())
        assert summary["pass"] is False

    def test_unwritable_output_is_io_error(self, tmp_path):
        from modlab.cli import EXIT_IO

        cfg = write(tmp_path, SMOOTHING_CFG)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run(str(cfg), str(blocker / "out")) == EXIT_IO


class TestExitCodes:
    def test_plain_value_error_is_a_config_error(self, tmp_path, monkeypatch):
        # the exit code follows the exception type, not the word "scale"
        import modlab.estimates as est

        def broken(config):
            raise ValueError("rescale failed")

        monkeypatch.setattr(est, "smoothing_ratio", broken)
        cfg = write(tmp_path, SMOOTHING_CFG)
        assert run(str(cfg), str(tmp_path / "out")) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "text",
        [
            # fewer than 3 scales for the fit
            SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 2 4"),
            # bilinear scales beyond xi_max/2 = 4
            """
[experiment]
kind = bilinear

[grid]
d = 3
n = 16
length = 6.283185307179586
cube = 4.0

[sweep]
scales = 1 2 8
family = band_noise
""",
            # random-phase data beyond the band, xi_max = 8 pi
            """
[experiment]
kind = datagen

[grid]
d = 1
n = 512
length = 64.0

[sweep]
scales = 32
family = random_phase
""",
        ],
        ids=["fit", "bilinear_band", "datagen_band"],
    )
    def test_run_time_scale_errors_exit_scales(self, tmp_path, text):
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert run(str(cfg), str(out)) == EXIT_SCALES
        assert not out.exists()


class TestMain:
    def test_main_run(self, tmp_path, capsys):
        cfg = write(tmp_path, SMOOTHING_CFG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_PASS
        assert "pass" in capsys.readouterr().out
