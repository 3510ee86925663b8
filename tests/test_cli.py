import ast
import configparser
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from modlab.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_SCALES,
    EXIT_UNKNOWN,
    EXPERIMENTS,
    main,
    run,
)
from modlab.datagen import load_field
from tests.conftest import unreached


LARGEDATA_CFG = """
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
"""

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

NORMS_CFG = """
[experiment]
kind = norms
seed = 3

[grid]
d = 2
n = 32
length = 25.132741228718345
"""

VARIATION_CFG = """
[experiment]
kind = variation
seed = 5

[grid]
d = 1
n = 8
length = 1.0

[sweep]
p = 2
"""


ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "configs"
# every config file the repository ships: configs/ and the benchmark's own
SHIPPED = sorted(CONFIGS.glob("*.cfg")) + sorted((ROOT / "perfbench" / "configs").glob("*.cfg"))
# the fixed resolved leaves of six retired ExperimentConfig fields
RETIRED = {"q": 2.0, "sweep": "low", "s": 0.0, "horizon": 1.0, "mesh": 0, "samples_per_unit": 2.0}


def write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_smoothing_run_outputs(self, tmp_path):
        cfg = write(tmp_path, SMOOTHING_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
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
        assert run(str(cfg), str(out1), seed=None) == EXIT_PASS
        assert run(str(cfg), str(out2), seed=None) == EXIT_PASS
        assert (out1 / "smoothing.json").read_bytes() == (out2 / "smoothing.json").read_bytes()
        assert (out1 / "smoothing.csv").read_bytes() == (out2 / "smoothing.csv").read_bytes()

    def test_malformed_config_no_partial_output(self, tmp_path):
        cfg = write(tmp_path, "not an ini file [ [ [")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_CONFIG
        assert not out.exists()

    def test_missing_kind_rejected(self, tmp_path):
        cfg = write(tmp_path, "[experiment]\nseed = 1\n")
        assert run(str(cfg), str(tmp_path / "out"), seed=None) == EXIT_CONFIG

    def test_unknown_experiment(self, tmp_path):
        cfg = write(tmp_path, "[experiment]\nkind = frobnicate\n")
        assert run(str(cfg), str(tmp_path / "out"), seed=None) == EXIT_UNKNOWN

    def test_invalid_scales(self, tmp_path):
        bad = SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 3 5 7")
        cfg = write(tmp_path, bad)
        assert run(str(cfg), str(tmp_path / "out"), seed=None) == EXIT_SCALES

    def test_threads_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MODLAB_THREADS", "abc")
        cfg = write(tmp_path, SMOOTHING_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        assert (out / "smoothing.csv").is_file()
        summary = json.loads((out / "smoothing.json").read_text())
        assert summary["config"]["threads"] is None

    def test_out_of_band_scales(self, tmp_path):
        bad = SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 2 4 64")
        cfg = write(tmp_path, bad)
        assert run(str(cfg), str(tmp_path / "out"), seed=None) == EXIT_SCALES


class TestExperiments:
    def test_norms(self, tmp_path):
        cfg = write(tmp_path, NORMS_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        summary = json.loads((out / "norms.json").read_text())
        assert summary["max_rel_deviation"] <= 1e-10

    def test_variation(self, tmp_path):
        cfg = write(tmp_path, VARIATION_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        summary = json.loads((out / "variation.json").read_text())
        assert summary["dp_matches_bruteforce"]
        assert summary["duality_inequality"]
        rows = (out / "variation.csv").read_text().splitlines()[1:]
        assert len(rows) == 50  # the variation driver's fixed trial count
        for row in rows:
            for cell in row.split(",")[1:]:
                float(cell)  # a numeric cell is a plain float literal

    @pytest.mark.parametrize("p", ["inf", "nan", "1e308"])
    def test_variation_bad_p_is_a_config_error(self, tmp_path, capsys, p):
        cfg = write(tmp_path, VARIATION_CFG.replace("p = 2", f"p = {p}"))
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

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
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        summary = json.loads((out / "solve.json").read_text())
        assert summary["cross_validation"]["agrees"]
        assert summary["sum_space_smallness"]["bound"] > 0

    def test_largedata(self, tmp_path):
        cfg = write(tmp_path, LARGEDATA_CFG)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        summary = json.loads((out / "largedata.json").read_text())
        assert summary["report"]["certificate"]["holds"]
        # the datum's norm report: unit L^4 norm, a clean boundary, and at
        # s = 1.1 the modulation norm the certificate's A is
        data = summary["data"]
        assert data["l4"] == pytest.approx(1.0, rel=1e-12)
        assert data["boundary_flagged"] is False
        assert data["m_norm"] == summary["report"]["certificate"]["A"]

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
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        f = load_field(out / "field_mollified_2.bin")
        assert f.grid.n == 512
        summary = json.loads((out / "datagen.json").read_text())
        assert len(summary["reports"]) == 2
        assert summary["reports"][0]["boundary_flagged"] is False

    @pytest.mark.parametrize(
        "family", ["mollified", "focusing", "random_phase", "bump", "band_noise"]
    )
    def test_datagen_scale_families(self, tmp_path, family):
        # every family of the one table is reported by its scale and the one
        # norm report
        from modlab.datagen import mollified_indicator, norm_report, save_field
        from modlab.grid import Field, inverse, make_grid
        from modlab.modspace import bump, dyadic_multiplier, make_window

        text = (CONFIGS / "datagen_mollified.cfg").read_text()
        cfg = write(tmp_path, text.replace("family = mollified", f"family = {family}")
                    .replace("2 4 8 16", "2 4"))
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        summary = json.loads((out / "datagen.json").read_text())
        assert [sorted(rep) for rep in summary["reports"]] == [
            ["boundary_decay", "boundary_flagged", "eps", "h1", "l2", "l4", "m_norm", "scale"]
        ] * 2
        assert [rep["scale"] for rep in summary["reports"]] == [2.0, 4.0]
        rows = (out / "datagen.csv").read_text().splitlines()[1:]
        grid = make_grid(1, 512, 64.0)
        for scale, rep, row in zip((2.0, 4.0), summary["reports"], rows):
            if family == "mollified":
                f = mollified_indicator(scale, grid)
            elif family == "focusing":
                # unit spectrum on the box [-scale, scale]
                f = Field(grid, inverse(grid, (np.abs(grid.freqs()[0]) <= scale) + 0j))
            elif family == "random_phase":
                # unit-modulus phases of seed (2, 16 scale) on |xi| <= scale
                mask = grid.freq_sq() <= scale**2
                rng = np.random.default_rng([2, int(16 * scale)])
                coeffs = np.zeros(grid.shape, dtype=complex)
                coeffs[mask] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=mask.sum()))
                f = Field(grid, inverse(grid, coeffs))
            elif family == "bump":
                # width 0.45 cube, centered at the scale; cube defaults to 1
                f = Field(grid, inverse(grid, bump(((grid.freqs()[0] - scale) / 0.45) ** 2)))
            else:
                # complex white noise of seed (2, 16 scale) through the annulus
                rng = np.random.default_rng([2, int(16 * scale)])
                white = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
                f = Field(grid, inverse(grid, dyadic_multiplier(grid, scale) * white))
            save_field(f, tmp_path / "direct.bin")
            written = out / f"field_{family}_{scale:g}.bin"
            assert written.read_bytes() == (tmp_path / "direct.bin").read_bytes()
            direct = norm_report(f, make_window(grid))
            assert {key: rep[key] for key in direct} == direct
            assert row.split(",")[2:4] == [repr(direct["m_norm"]), repr(direct["h1"])]

    def test_unknown_datagen_family_is_a_config_error(self, tmp_path, capsys):
        text = (CONFIGS / "datagen_mollified.cfg").read_text()
        cfg = write(tmp_path, text.replace("family = mollified", "family = comb"))
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_CONFIG
        assert "unknown data family 'comb'" in capsys.readouterr().err
        assert not out.exists()


class TestResolvedConfig:
    def test_defaults_are_those_of_experiment_config(self, tmp_path):
        from modlab.estimates import ExperimentConfig

        cfg = write(tmp_path, "[experiment]\nkind = norms\n")
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
        resolved = json.loads((out / "norms.json").read_text())["config"]["resolved"]
        assert resolved == {**ExperimentConfig().to_dict(), **RETIRED}

    def test_every_key_is_read_from_its_section(self, tmp_path):
        from dataclasses import replace

        from modlab.estimates import ExperimentConfig

        sections = {
            "experiment": {"seed": 4},
            "grid": {"d": 1, "n": 64, "length": 20.0, "cube": 2.0},
            "sweep": {
                "scales": (1.0, 2.0), "family": "bump", "p": 6.0, "time_nodes": 17,
                "margin": 0.3, "fixed_scale": 2.0, "min_separation": 2.0, "atoms": 3,
                "profile": "bump",
            },
        }
        text = "[experiment]\nkind = norms\n"
        for section, values in sections.items():
            text += f"[{section}]\n" if section != "experiment" else ""
            for key, value in values.items():
                value = " ".join(map(str, value)) if key == "scales" else value
                text += f"{key} = {value}\n"
        out = tmp_path / "out"
        assert run(str(write(tmp_path, text)), str(out), seed=None) == EXIT_PASS
        resolved = json.loads((out / "norms.json").read_text())["config"]["resolved"]
        fields = {k: v for values in sections.values() for k, v in values.items()}
        assert resolved == {**replace(ExperimentConfig(), **fields).to_dict(), **RETIRED}

    def test_variation_runs_the_recorded_p(self, tmp_path, monkeypatch):
        import modlab.variation as variation

        seen = []
        vp_norm = variation.vp_norm

        def recording(path, p, *args, **kwargs):
            seen.append(p)
            return vp_norm(path, p, *args, **kwargs)

        monkeypatch.setattr(variation, "vp_norm", recording)
        text = "[experiment]\nkind = variation\n[grid]\nn = 8\nlength = 1.0\n"
        out = tmp_path / "out"
        run(str(write(tmp_path, text)), str(out), seed=None)
        resolved = json.loads((out / "variation.json").read_text())["config"]["resolved"]
        assert seen[0] == resolved["p"]

    def test_infinite_length_is_a_config_error(self, tmp_path, capsys, recwarn):
        text = (CONFIGS / "datagen_mollified.cfg").read_text()
        cfg = write(tmp_path, text.replace("length = 64.0", "length = inf"))
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_CONFIG
        assert "period length" in capsys.readouterr().err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()


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
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
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
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS
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
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS

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
        assert run(str(cfg), str(out), seed=None) == EXIT_PASS


class TestFailurePaths:
    def test_failing_criterion_exits_one(self, tmp_path):
        # an impossible margin turns a passing sweep into a reported failure
        bad = SMOOTHING_CFG.replace("margin = 0.15", "margin = -10")
        cfg = write(tmp_path, bad)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_FAIL
        summary = json.loads((out / "smoothing.json").read_text())
        assert summary["pass"] is False

    def test_unwritable_output_is_io_error(self, tmp_path):
        from modlab.cli import EXIT_IO

        cfg = write(tmp_path, SMOOTHING_CFG)
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not a directory")
        assert run(str(cfg), str(blocker / "out"), seed=None) == EXIT_IO

    def test_certificate_violation_is_reported(self, tmp_path, capsys):
        # a horizon far past the smallness bound: the iterates leave the ball
        cfg = write(tmp_path, LARGEDATA_CFG.replace("amplitude = 1.0", "amplitude = 2.0")
                    .replace("c0 = 0.4", "c0 = 5\nc1 = 1e9"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_FAIL
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "largedata.json").read_text())
        assert summary["pass"] is False
        assert "certificate violation at iterate" in summary["violation"]
        assert "> 2A" in summary["violation"]
        cert = summary["report"]["certificate"]
        assert cert["holds"] is False and cert["total_norms"][-1] > 2 * cert["A"]
        # the datum's report is written on this branch too: amplitude 2 of
        # the unit-L^4 datum
        assert summary["data"]["l4"] == pytest.approx(2.0, rel=1e-12)
        assert summary["data"]["m_norm"] == cert["A"]
        rows = (out / "largedata.csv").read_text().splitlines()
        assert len(rows) == 1 + len(cert["total_norms"])

    def test_nan_tail_norm_is_reported_as_a_violation(self, tmp_path, capsys, nan_tail_norm):
        # a NaN tail failed holds() but passed the hook: pass was false with
        # no violation named
        out = tmp_path / "out"
        assert main(["run", str(CONFIGS / "largedata_d3.cfg"), "--out", str(out)]) == EXIT_FAIL
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "largedata.json").read_text())
        assert summary["pass"] is False
        assert summary["violation"].startswith("certificate violation at iterate 0: ||P_>N u||")
        assert summary["report"]["certificate"]["tail_norms"] == ["nan"]

    @pytest.mark.parametrize(
        "key, value",
        [("horizon", "nan"), ("horizon", "inf"), ("tolerance", "inf"), ("tolerance", "nan"),
         ("tolerance", "-1"), ("tolerance", "0"), ("amplitude", "inf"),
         ("amplitude", "nan"), ("c0", "nan"), ("c0", "-1"), ("c0", "0"), ("c1", "inf"),
         ("c1", "nan"), ("c1", "-1"), ("n_radius", "nan"), ("n_radius", "-2")],
    )
    def test_bad_problem_value_names_its_key(self, tmp_path, capsys, key, value):
        # any run would pass under an infinite tolerance, and so would a
        # large-data run whose c1 = inf let the protocol take the whole
        # horizon; an infinite amplitude read as non-finite samples after a
        # numpy warning, a NaN or negative c0 as a missing dyadic cutoff, a
        # NaN n_radius ended in a ZeroDivisionError traceback, and -2 ran as 2
        base = "largedata_d3.cfg" if key in ("c0", "c1", "n_radius") else "solve_quintic.cfg"
        lines = (CONFIGS / base).read_text().splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith(f"{key} ="))
        cfg = write(tmp_path, text.replace("[problem]\n", f"[problem]\n{key} = {value}\n"))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and "already exists" not in err
        assert re.search(rf"^error: (bad config: bad value for \[\w+\] )?{key}\b", err, re.M)
        assert not out.exists()

    def test_unknown_problem_data_is_a_config_error(self, tmp_path, capsys):
        # gaussian and mollified are the problem data; random is not one
        text = (CONFIGS / "solve_quintic.cfg").read_text()
        cfg = write(tmp_path, text.replace("data = gaussian", "data = random"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert "unknown problem data 'random'" in capsys.readouterr().err
        assert not out.exists()

    def test_underflowed_norms_exit_2(self, tmp_path, capsys):
        # at p = 1e300 every M_{p,2} norm underflows to 0 and the L^p norms
        # read 0 or inf: the fit divided 0 by 0 and raised ZeroDivisionError
        text = SMOOTHING_CFG.replace("n = 512", "n = 128").replace("p = 4", "p = 1e300")
        text = text.replace("scales = 2 4 8", "scales = 1 2 4").replace("= 257", "= 9")
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "error: smoothing lhs is not positive and finite: [0.0, inf, inf]" in err
        assert not out.exists()

    def test_negative_amplitude_is_legal(self):
        from modlab.cli import _parse_config, _problem, _read

        cfg = _parse_config(CONFIGS / "solve_quintic.cfg")
        cfg["problem"]["amplitude"] = "-0.2"
        problem = _problem(*_read(cfg, "solve", None))
        cfg["problem"]["amplitude"] = "0.2"
        positive = _problem(*_read(cfg, "solve", None))
        assert np.array_equal(problem.u0.values, -positive.u0.values)

    @pytest.mark.parametrize("p", ["inf", "nan", "1.5", "-6"])
    def test_bad_decoupling_p_names_its_key(self, tmp_path, capsys, monkeypatch, p):
        # p = inf read lhs 1.0 at every scale and passed with an overflow
        # warning, and p < 2 was caught by sdec only after every cell ran:
        # the check comes before the first cell
        from modlab import estimates

        def no_cell(*args):
            raise AssertionError("a decoupling cell ran")

        monkeypatch.setattr(estimates, "_decoupling_cell", no_cell)
        text = (CONFIGS / "decoupling_d1_p6.cfg").read_text()
        cfg = write(tmp_path, text.replace("p = 6\n", f"p = {p}\n"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert [line for line in err.splitlines() if line.startswith("error:") and "p = " in line]
        assert not out.exists()

    def test_repeated_decoupling_scales_exit_before_any_cell(self, tmp_path, capsys, monkeypatch):
        # three equal scales make a rank-1 fit, which passed with a slope
        from modlab import estimates

        monkeypatch.setattr(
            estimates, "extension_ball_norms", unreached("a cell was measured")
        )
        text = (CONFIGS / "decoupling_d1_p6.cfg").read_text()
        cfg = write(tmp_path, text.replace("scales = 16 64 256", "scales = 16 16 16"))
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_SCALES
        assert "scales must be distinct, got 16 more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, old, new, repeated",
        [
            ("smoothing_d1_p8.cfg", "scales = 4 8 16 32", "scales = 1 2 4 4", "4"),
            ("datagen_mollified.cfg", "scales = 2 4 8 16", "scales = 2 2", "2"),
        ],
    )
    def test_repeated_scale_exits_4_naming_it(self, tmp_path, capsys, config, old, new, repeated):
        # smoothing measured the repeated cell twice and fitted it twice;
        # datagen wrote one field file and reported two entries
        text = (CONFIGS / config).read_text()
        out = tmp_path / "out"
        assert run(str(write(tmp_path, text.replace(old, new))), str(out), seed=None) == EXIT_SCALES
        assert capsys.readouterr().err == (
            f"error: invalid scales: scales must be distinct, got {repeated} more than once\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value",
        [("time_nodes", "1"), ("time_nodes", "-5"), ("margin", "nan"), ("margin", "inf"),
         ("fixed_scale", "0"), ("fixed_scale", "nan"), ("fixed_scale", "inf"),
         ("fixed_scale", "-1"), ("cube", "nan"), ("cube", "inf"), ("cube", "0"),
         ("atoms", "0"), ("atoms", "-1"), ("p", "inf"), ("p", "nan")],
    )
    def test_bad_sweep_value_names_its_key(self, tmp_path, capsys, key, value):
        # every key is checked whatever the kind reads: the smoothing sweep
        # has no fixed scale; cube sits under [grid]
        section = "[grid]" if key == "cube" else "[sweep]"
        lines = [line for line in SMOOTHING_CFG.splitlines() if not line.startswith(key)]
        text = "\n".join(lines).replace(section, f"{section}\n{key} = {value}")
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert re.search(rf"^error: (bad config: bad value for \[\w+\] )?{key}\b", err, re.M)
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, old, new, key",
        [
            # misspellings: a default that still passes loosened the gate or
            # moved the run unseen, and c_0 = 9 exited 2 naming no key
            ("largedata_d3.cfg", "c0 = 0.4", "c_0 = 9", "[problem] c_0"),
            ("solve_quintic.cfg", "time_nodes = 129", "time_node = 65", "[problem] time_node"),
            ("decoupling_d1_p6.cfg", "margin = 0.2", "margn = 0.0", "[sweep] margn"),
            ("smoothing_d1_p8.cfg", None, "[Sweep]\np = 4", "[Sweep] p"),
            # keys of another kind
            ("solve_quintic.cfg", "[problem]", "[problem]\nc0 = 0.4", "[problem] c0"),
            ("smoothing_d1_p8.cfg", None, "[problem]\nhorizon = 1.0", "[problem] horizon"),
            ("largedata_d3.cfg", None, "[sweep]\ntime_nodes = 17", "[sweep] time_nodes"),
            # retired keys
            ("norms_d2.cfg", None, "[sweep]\nq = 3", "[sweep] q"),
            ("norms_d2.cfg", None, "[sweep]\nsweep = high", "[sweep] sweep"),
            ("variation_d1.cfg", "[sweep]", "[sweep]\ntrials = 10", "[sweep] trials"),
            # s = -1 recorded -1.0 while the sweep measured with its automatic
            # exponent, mesh = 1 passed on caps [1, 1, 1] with slope 0, and
            # samples_per_unit = 1e-9 exited 1 as a failed estimate
            ("v2bilinear_d3.cfg", "[sweep]", "[sweep]\ns = -1", "[sweep] s"),
            ("smoothing_d1_p8.cfg", "[sweep]", "[sweep]\nhorizon = 0.5", "[sweep] horizon"),
            ("decoupling_d1_p6.cfg", "[sweep]", "[sweep]\nmesh = 1", "[sweep] mesh"),
            ("decoupling_d1_p6.cfg", "[sweep]", "[sweep]\nsamples_per_unit = 1e-9",
             "[sweep] samples_per_unit"),
            ("solve_quintic.cfg", "[problem]", "[problem]\nkappa = 3", "[problem] kappa"),
            # largedata keys that no solve run sets: the sum-space bound is at
            # s = 0.5 and mollified data at radius 2
            ("solve_quintic.cfg", "[problem]", "[problem]\ns = 0.5", "[problem] s"),
            ("solve_quintic.cfg", "[problem]", "[problem]\nn_radius = 2", "[problem] n_radius"),
        ],
    )
    def test_unknown_key_exits_2_naming_it(self, tmp_path, capsys, config, old, new, key):
        text = (CONFIGS / config).read_text()
        text = text + f"\n{new}\n" if old is None else text.replace(old, new)
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        kind = _sections(text)["experiment"]["kind"]
        assert capsys.readouterr().err == (
            f"error: bad config: unknown key {key} for kind '{kind}'\n"
        )
        assert not out.exists()

    def test_default_section_exits_2_naming_it(self, tmp_path, capsys):
        # configparser copied [DEFAULT] margin into every section, and the
        # refusal named [experiment] margin, a key the file does not have
        text = "[DEFAULT]\nmargin = 0.3\n" + (CONFIGS / "decoupling_d1_p6.cfg").read_text()
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: bad config: unknown key [DEFAULT] margin: "
            "a config sets each key in its own section\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "config, old, new, argv",
        [
            ("norms_d2.cfg", "", "", ["--seed", "-1"]),
            ("datagen_mollified.cfg", "", "", ["--seed", "-3"]),
            ("v2bilinear_d3.cfg", "seed = 0", "seed = -2", []),
        ],
    )
    def test_negative_seed_names_its_key(self, tmp_path, capsys, config, old, new, argv):
        # numpy refused the seed without naming it, and datagen took -3
        text = (CONFIGS / config).read_text().replace(old, new)
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, text)), "--out", str(out), *argv]) == EXIT_CONFIG
        seed = (argv or [None, "-2"])[1]
        assert capsys.readouterr().err == f"error: seed must be non-negative, got {seed}\n"
        assert not out.exists()

    def test_strichartz_p_other_than_4_exits_2(self, tmp_path, capsys, monkeypatch):
        # p = 6 measured the p = 4 sweep and recorded p = 6.0
        from modlab import estimates

        monkeypatch.setattr(estimates, "smoothing_ratio", unreached("a sweep ran"))
        text = (CONFIGS / "strichartz_d3.cfg").read_text() + "p = 6\n"
        out = tmp_path / "out"
        assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: strichartz harness measures p = 4, got p = 6\n"
        assert not out.exists()

    def test_picard_divergence_is_reported(self, tmp_path, capsys):
        text = (CONFIGS / "solve_quintic.cfg").read_text()
        cfg = write(tmp_path, text.replace("amplitude = 0.2", "amplitude = 2.0"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_FAIL
        assert capsys.readouterr().err == ""
        summary = json.loads((out / "solve.json").read_text())
        assert summary["pass"] is False
        assert summary["cross_validation"]["picard_report"]["diverged"] is True
        assert summary["cross_validation"]["agrees"] is False

    @pytest.mark.parametrize("factors", [[0.6], [0.6, 1e-3]], ids=["only", "first"])
    def test_a_factor_of_a_half_or_more_fails(self, tmp_path, monkeypatch, factors):
        # the oracle agrees, but the Picard run does not contract; the only
        # factor of a run, and its first, count like the others
        import modlab.solver as solver

        real = solver.picard_solve

        def slow_start(*args, **kwargs):
            path, report = real(*args, **kwargs)
            report.contraction_factors = factors
            return path, report

        monkeypatch.setattr(solver, "picard_solve", slow_start)
        out = tmp_path / "out"
        assert main(["run", str(CONFIGS / "solve_quintic.cfg"), "--out", str(out)]) == EXIT_FAIL
        validation = json.loads((out / "solve.json").read_text())["cross_validation"]
        assert validation["agrees"] is True and validation["contracting"] is False

    def test_too_few_nodes_to_cross_validate_exits_2(self, tmp_path, capsys):
        text = (CONFIGS / "solve_quintic.cfg").read_text()
        cfg = write(tmp_path, text.replace("time_nodes = 129", "time_nodes = 17"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "Traceback" not in err and "time_nodes >= 31, got 17" in err
        assert not out.exists()

    def test_split_step_blow_up_is_reported(self, tmp_path, capsys, monkeypatch):
        import modlab.solver as solver

        def blows_up(problem, dt):
            raise solver.BlowUp(0.05, float("nan"), solver._BLOWUP_GUARD)

        monkeypatch.setattr(solver, "splitstep_solve", blows_up)
        out = tmp_path / "out"
        code = main(["run", str(CONFIGS / "solve_quintic.cfg"), "--out", str(out)])
        assert code == EXIT_FAIL
        assert "Traceback" not in capsys.readouterr().err
        summary = json.loads((out / "solve.json").read_text())
        assert summary["pass"] is False
        assert summary["violation"] == (
            "blow-up guard tripped at t=0.05: sup|u| = nan exceeded 1e+06 x initial"
        )
        assert (out / "solve.csv").read_text() == "experiment,scale,lhs,rhs,ratio\n"


def _sections(text):
    cp = configparser.ConfigParser()
    cp.read_string(text)
    return {s: dict(cp.items(s)) for s in cp.sections()}


# the configs a fuzzed config starts from: two shipped ones and a small
# variation run
_FUZZ_BASES = [
    (CONFIGS / "solve_quintic.cfg").read_text(),
    (CONFIGS / "datagen_mollified.cfg").read_text(),
    VARIATION_CFG,
]


# sizes stay small or invalid, so no draw allocates more than a few MB
_SIZES = {
    "d": ["1", "2"],
    "n": ["16", "32", "64"],
    "time_nodes": ["3", "16", "17", "33"],
}
_BAD = ["", "inf", "-inf", "nan", "0", "-1", "-2.5", "0.5", "1e100", "1e400", "garbage", "%(x)s"]


@st.composite
def fuzzed_configs(draw):
    """A base config (shipped solve or datagen, or a small variation run)
    with values replaced by drawn tokens, keys and sections dropped, and
    maybe one junk line."""
    text = st.text(st.characters(codec="utf-8", exclude_characters="\n\r"), max_size=6)
    lines = []
    for section, items in _sections(draw(st.sampled_from(_FUZZ_BASES))).items():
        if draw(st.sampled_from(["keep"] * 9 + ["drop"])) == "drop":
            continue
        lines.append(f"[{section}]")
        for key, value in items.items():
            action = draw(st.sampled_from(["keep"] * 6 + ["replace", "drop"]))
            if key in _SIZES:  # never dropped nor kept: the shipped n is 256 or 512
                value = draw(st.sampled_from(_SIZES[key] if action == "keep" else _BAD))
            elif action == "drop":
                continue
            elif action == "replace":
                value = draw(st.sampled_from(_BAD) | text)
            lines.append(f"{key} = {value}")
    junk = draw(st.sampled_from([None] * 12 + ["garbage", "[experiment]", "= 3", "[grid"]))
    if junk is not None:
        lines.insert(draw(st.integers(0, len(lines))), junk)
    return "\n".join(lines) + "\n"


class TestConfigFuzz:
    @settings(max_examples=100, deadline=None)
    @given(text=fuzzed_configs())
    def test_any_config_gives_an_exit_code(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "fuzz.cfg"
            cfg.write_text(text, encoding="utf-8")
            code = run(str(cfg), str(Path(tmp) / "out"), seed=None)
        assert isinstance(code, int) and 0 <= code <= 5


def _readme_keys():
    """(kinds, section, key) of every row of the README's two key tables;
    kinds is None for the first, whose keys every kind but the solver kinds
    reads."""
    text = (ROOT / "README.md").read_text()
    text = text[text.index("## CLI"):text.index("Each run writes, atomically")]
    rows, column = [], None
    for line in text.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|") or set(cells[0]) <= set("-"):
            continue
        if cells[0] in ("section", "kind"):
            column = cells.index("key")
            continue
        ticked = [re.findall(r"`([^`]+)`", cell) for cell in cells]
        kinds = ticked[0] if column == 2 else None
        section = ticked[column - 1][0].strip("[]")
        rows += [(kinds, section, key) for key in ticked[column]]
    return rows


def _keys_written():
    """(kind, section, key) of every key that a shipped config of ``kind``
    sets, or that an ``ExperimentConfig(...)`` call of the acceptance suite
    passes by name (kind None: the call names no kind)."""
    from modlab.cli import _SECTIONS, _parse_config

    written = set()
    for path in SHIPPED:
        cfg = _parse_config(path)
        kind = cfg["experiment"]["kind"]
        written |= {(kind, section, key) for section, keys in cfg.items() for key in keys}
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "ExperimentConfig":
            written |= {(None, _SECTIONS.get(k.arg, "sweep"), k.arg) for k in node.keywords}
    return written


class TestKeyTable:
    @pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
    def test_shipped_config_passes_the_key_check(self, path):
        # read, not run: no tier-1 test runs configs/bilinear_d3.cfg
        from modlab.cli import _parse_config, _read

        cfg = _parse_config(path)
        kind = cfg["experiment"]["kind"]
        assert kind in EXPERIMENTS
        _read(cfg, kind, None)

    def test_every_key_is_set_by_a_shipped_run(self):
        # a key no run sets is a constant in disguise, and one that is read
        # unchecked is a way to run nonsense: [sweep] s = -1 recorded -1.0
        # while the v2 bilinear sweep measured with its automatic exponent.
        # A [problem] key counts per kind: solve and largedata share names
        # but not runs, and [problem] s = 1.1 of largedata_d3.cfg set no
        # solve run's s
        from modlab.cli import _keys

        written = _keys_written()
        by_name = {(section, key) for _, section, key in written}
        unset = sorted({
            f"[{section}] {key}" + (f" of {kind}" if section == "problem" else "")
            for kind in EXPERIMENTS
            for section, key in _keys(kind)
            if ((kind, section, key) not in written if section == "problem"
                else (section, key) not in by_name)
        })
        assert not unset, f"keys no shipped run sets: {unset}"

    @pytest.mark.parametrize("kind", sorted(EXPERIMENTS))
    def test_readme_tables_are_the_keys_read(self, kind):
        from modlab.cli import _keys

        named = {
            (section, key) for kinds, section, key in _readme_keys()
            if kind in (kinds or [kind])
            and not (kinds is None and section == "sweep" and kind in ("solve", "largedata"))
        }
        assert named == set(_keys(kind)) | {("experiment", "kind")}


# each sweep kind and the modlab.estimates function it runs
SWEEP_FUNCTIONS = {
    "smoothing": "smoothing_ratio",
    "strichartz": "strichartz_l4_ratio",
    "bilinear": "bilinear_ratio",
    "v2bilinear": "v2_bilinear_ratio",
    "decoupling": "decoupling_ratio",
}


class TestExitCodes:
    @pytest.mark.parametrize("kind", list(SWEEP_FUNCTIONS))
    def test_plain_value_error_is_a_config_error(self, tmp_path, monkeypatch, capsys, kind):
        # the exit code follows the exception type, not the word "scale"; the
        # sweep function is looked up when the run starts, so a rebinding of
        # the module attribute is the function that runs
        import modlab.estimates as est

        def broken(config):
            raise ValueError("rescale failed")

        monkeypatch.setattr(est, SWEEP_FUNCTIONS[kind], broken)
        cfg = write(tmp_path, SMOOTHING_CFG.replace("kind = smoothing", f"kind = {kind}"))
        assert run(str(cfg), str(tmp_path / "out"), seed=None) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: rescale failed\n"

    @pytest.mark.parametrize(
        "text",
        [
            # fewer than 3 scales for the fit
            SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 2 4"),
            # non-finite scales
            SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 2 4 inf"),
            SMOOTHING_CFG.replace("scales = 2 4 8", "scales = 2 4 nan"),
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
            # v2 bilinear fixed band 2 beyond xi_max/2 = 1: the shipped
            # v2bilinear_d3 config on its old default 8 pi box
            """
[experiment]
kind = v2bilinear

[grid]
d = 3
n = 16

[sweep]
scales = 0.5 1 2
fixed_scale = 2
atoms = 2
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
            # focusing data beyond xi_max/4 = 6.28 from the third scale on:
            # the first two scales must leave no file behind either
            (CONFIGS / "datagen_mollified.cfg").read_text().replace(
                "family = mollified", "family = focusing"
            ),
        ],
        ids=[
            "fit", "inf", "nan", "bilinear_band", "v2bilinear_band", "datagen_band",
            "datagen_later_scale",
        ],
    )
    def test_run_time_scale_errors_exit_scales(self, tmp_path, text):
        cfg = write(tmp_path, text)
        out = tmp_path / "out"
        assert run(str(cfg), str(out), seed=None) == EXIT_SCALES
        assert not out.exists()


class TestMain:
    def test_main_run(self, tmp_path, capsys):
        cfg = write(tmp_path, SMOOTHING_CFG)
        code = main(["run", str(cfg), "--out", str(tmp_path / "out")])
        assert code == EXIT_PASS
        assert "pass" in capsys.readouterr().out
