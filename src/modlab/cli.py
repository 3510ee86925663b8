"""Batch experiment runner.

Usage: ``modlab run <config> --out <dir> [--seed N]``

Configs are flat INI key-value files with sections (see configs/ for
examples).  ``[experiment] kind`` picks one entry of ``EXPERIMENTS``, the
table of experiment drivers; the five ratio sweeps among them name their
``modlab.estimates`` function in ``SWEEPS``.  ``_keys`` is the one table of
the keys a kind may set: the fields of ``estimates.ExperimentConfig``, with
its defaults and types (``d``, ``n``, ``length`` and ``cube`` under
``[grid]``, ``seed`` under ``[experiment]``, the rest under ``[sweep]``),
and for the solver kinds ``[problem]`` in place of ``[sweep]``.  ``_read``
casts every key before a driver runs, and refuses any other key first.

Each run writes, atomically, a CSV with the fixed columns (experiment,
scale, lhs, rhs, ratio) and a JSON summary carrying the fit keys (slope,
intercept, residual, predicted, margin, pass) plus the fully resolved config
for provenance.  Its ``threads`` leaf (null) and ``resolved`` leaves ``q``
and ``sweep`` are fixed: no run reads them, and recorded outputs keep them.

Exit codes: 0 pass; 1 criteria failed (a certificate violation or a solve
run's blow-up too, both files written, the reason under ``violation``); 2
bad config: an unknown key, a bad value or seed, an overflow; 3 unknown
experiment; 4 invalid scales; 5 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import itertools
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from modlab.grid import InvalidScales

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN = 3
EXIT_SCALES = 4
EXIT_IO = 5

# sweep kind -> name of its function in modlab.estimates, looked up at call
# time so that a rebinding of the module attribute takes effect
SWEEPS = {
    "smoothing": "smoothing_ratio",
    "strichartz": "strichartz_l4_ratio",
    "bilinear": "bilinear_ratio",
    "v2bilinear": "v2_bilinear_ratio",
    "decoupling": "decoupling_ratio",
}

# config section of each ExperimentConfig field outside [sweep]
_SECTIONS = {"d": "grid", "n": "grid", "length": "grid", "cube": "grid", "seed": "experiment"}

# fixed leaves of the resolved config, beside the fixed null ``threads``:
# fields no run read, kept so that recorded outputs keep their keys
_RETIRED = {"q": 2.0, "sweep": "low"}


class ConfigError(ValueError):
    pass


class UnknownExperiment(ValueError):
    pass


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def _parse_config(path: Path) -> dict:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    # configparser copies [DEFAULT] keys into every section, so refuse them
    # under [DEFAULT], where they are written
    if cp.defaults():
        key = next(iter(cp.defaults()))
        raise ConfigError(f"unknown key [DEFAULT] {key}: a config sets each key in its own section")
    out: dict = {}
    for section in cp.sections():
        out[section] = dict(cp.items(section))
    if "experiment" not in out or "kind" not in out["experiment"]:
        raise ConfigError("config must have an [experiment] section with a 'kind' key")
    return out


def _get(cfg: dict, section: str, key: str, cast, default):
    raw = cfg.get(section, {}).get(key)
    if raw is None:
        return default
    try:
        return cast(raw)
    except InvalidScales:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc


def _positive_float(raw: str) -> float:
    value = float(raw)
    if not 0 < value < math.inf:
        raise ValueError(f"must be finite and positive, got {value}")
    return value


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"must be finite, got {value}")
    return value


def _scales(raw: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise InvalidScales(f"cannot parse scales {raw!r}") from exc
    if not vals:
        raise InvalidScales("empty scale list")
    return vals


# [problem] key -> (cast, default) of each solver kind; no other kind reads
# [problem], and the solver kinds read no [sweep] key
_SOLVER_KEYS = {
    "data": (str, "gaussian"), "amplitude": (_finite_float, 0.2),
    "n_radius": (_positive_float, 2.0), "horizon": (float, 0.1), "time_nodes": (int, 65),
    "kappa": (lambda v: float(v) if v else None, None), "sign": (int, 1),
}
_PROBLEM_KEYS = {
    "solve": {**_SOLVER_KEYS, "tolerance": (_positive_float, 1e-5), "s": (float, 0.5)},
    "largedata": {
        **_SOLVER_KEYS, "c0": (_positive_float, 0.1), "c1": (_positive_float, 0.1),
        "s": (float, 1.1),
    },
}


def _keys(kind: str) -> dict:
    """(section, key) -> (cast, default) of every key but ``[experiment]
    kind`` that a config of ``kind`` may set."""
    from modlab.estimates import ExperimentConfig

    keys = {
        (_SECTIONS.get(f.name, "sweep"), f.name):
            (_scales if f.name == "scales" else type(f.default), f.default)
        for f in dataclasses.fields(ExperimentConfig)
    }
    if kind not in _PROBLEM_KEYS:
        return keys
    problem = {("problem", key): spec for key, spec in _PROBLEM_KEYS[kind].items()}
    return {sk: spec for sk, spec in keys.items() if sk[0] != "sweep"} | problem


def _read(cfg: dict, kind: str, seed: int | None):
    """The ``ExperimentConfig`` of a config and the ``[problem]`` values of
    its kind, each cast; a key the kind does not know is refused first."""
    from modlab.estimates import ExperimentConfig

    keys = _keys(kind)
    for section, key in ((section, key) for section in cfg for key in cfg[section]):
        if (section, key) not in keys and (section, key) != ("experiment", "kind"):
            raise ConfigError(f"unknown key [{section}] {key} for kind {kind!r}")
    values = {sk: _get(cfg, *sk, *spec) for sk, spec in keys.items()}
    if seed is not None:
        values["experiment", "seed"] = seed
    fields = {key: v for (section, key), v in values.items() if section != "problem"}
    problem = {key: v for (section, key), v in values.items() if section == "problem"}
    return ExperimentConfig(**fields), problem


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _sanitize(obj):
    """Make results JSON-safe (inf/nan become strings); ``json.dumps`` sorts keys."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return "nan"
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        return f
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _atomic_write(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    finally:
        if tmp.exists():
            tmp.unlink(missing_ok=True)


def _write_outputs(out_dir: Path, name: str, rows: list, summary: dict) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = ["experiment,scale,lhs,rhs,ratio"]
    for scale, lhs, rhs, ratio in rows:
        lines.append(f"{name},{scale!r},{lhs!r},{rhs!r},{ratio!r}")
    _atomic_write(out_dir / f"{name}.csv", ("\n".join(lines) + "\n").encode())
    payload = json.dumps(_sanitize(summary), sort_keys=True, indent=2)
    _atomic_write(out_dir / f"{name}.json", (payload + "\n").encode())


def _fit_rows(fit) -> list:
    return list(zip(fit.scales, fit.lhs, fit.rhs, fit.ratios))


def _summary(margin: float, passed: bool, **extra) -> dict:
    """JSON summary with every fit key; an experiment that fits no exponent
    leaves the ones it does not pass in ``extra`` null."""
    fit_keys = dict(slope=None, intercept=None, residual=None, predicted=None)
    return {**fit_keys, "margin": margin, "pass": passed, **extra}


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def _run_norms(xcfg, values, out_dir):
    from modlab.datagen import random_field
    from modlab.grid import lp_norm
    from modlab.modspace import ModNormSpec, modulation_norm

    trials, tol = 20, 1e-10
    grid = xcfg.grid()
    window = xcfg.window()
    spec = ModNormSpec(0.0, 2.0, 2.0)
    rows, devs = [], []
    for trial in range(trials):
        f = random_field(grid, xcfg.seed + trial)
        lhs = modulation_norm(f, spec, window)
        rhs = lp_norm(f, 2)
        rows.append((trial, lhs, rhs, lhs / rhs))
        devs.append(abs(lhs - rhs) / rhs)
    passed = max(devs) <= tol
    return rows, _summary(
        tol, passed, predicted=1.0, max_rel_deviation=max(devs), window=window.describe()
    )


def _run_sweep(kind, xcfg, values, out_dir):
    from modlab import estimates

    result = getattr(estimates, SWEEPS[kind])(xcfg)
    if kind != "bilinear":
        return _fit_rows(result), result.to_dict()
    high, low = result
    passed = high.passed and low.passed
    fit = {key: getattr(low, key) for key in ("slope", "intercept", "residual", "predicted")}
    summary = _summary(low.margin, passed, **fit, high=high.to_dict(), low=low.to_dict())
    return _fit_rows(high) + _fit_rows(low), summary


def _run_variation(xcfg, values, out_dir):
    from modlab.datagen import random_field
    from modlab.grid import Trajectory, lp_norm
    from modlab.variation import duality_pairing, make_atom, vp_norm, vp_norm_bruteforce

    p = xcfg.p
    grid = xcfg.grid()
    norm = partial(lp_norm, p=2.0)
    rng = np.random.default_rng(xcfg.seed)
    rows, exact, duality_ok = [], True, True
    for trial in range(50):
        m = int(rng.integers(2, 11))
        fields = tuple(random_field(grid, xcfg.seed + 7 * trial + j) for j in range(m))
        path = Trajectory(grid, np.arange(m), np.stack([f.values for f in fields]))
        lhs = vp_norm(path, p, norm)
        rhs = vp_norm_bruteforce(path, p, norm)
        rows.append((trial, lhs, rhs, lhs / rhs if rhs else 1.0))
        exact = exact and abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
        if m >= 3:
            k = m // 2
            atom = make_atom(
                tuple(range(k + 1)), fields[:k], p if p > 1 else 2.0, norm
            )
            q = (p / (p - 1.0)) if p > 1 else 2.0
            bound = 1.0001 * vp_norm(path, q, norm)
            duality_ok = duality_ok and abs(duality_pairing(atom, path)) <= bound
    passed = exact and duality_ok
    summary = _summary(0.0, passed, dp_matches_bruteforce=exact, duality_inequality=duality_ok)
    return rows, summary


def _problem(xcfg, values):
    from modlab.datagen import gaussian, scale_family
    from modlab.solver import NLSProblem

    grid = xcfg.grid()
    if values["data"] == "gaussian":
        u0 = gaussian(grid)
    elif values["data"] == "mollified":
        u0 = scale_family("mollified", values["n_radius"], xcfg.seed, xcfg.cube, grid)
    else:
        raise ConfigError(f"unknown problem data {values['data']!r}")
    given = {key: values[key] for key in ("horizon", "time_nodes", "kappa", "sign")}
    return NLSProblem(u0=values["amplitude"] * u0, **given)


def _run_solve(xcfg, values, out_dir):
    from modlab.solver import BlowUp, cross_validate, sum_space_smallness

    problem = _problem(xcfg, values)
    tol = values["tolerance"]
    smallness = None
    if problem.d <= 2:
        # the d <= 2 theory takes sum-space data; record the smallness bound
        # the contraction hypothesis is checked against
        smallness = sum_space_smallness(problem.u0, xcfg.window(), s=values["s"])
    try:
        report = cross_validate(problem, tol=tol)
    except BlowUp as exc:
        # the split-step oracle stopped, so there is no solution to compare
        summary = _summary(tol, False, violation=str(exc), sum_space_smallness=smallness)
        return [], summary
    factors = report["picard_report"]["contraction_factors"]
    padded = itertools.zip_longest(report["picard_report"]["residuals"], factors, fillvalue=0.0)
    rows = [(j, r, tol, f) for j, (r, f) in enumerate(padded)]
    summary = _summary(
        tol,
        report["agrees"] and report["contracting"],
        residual=report["distance"],
        cross_validation=report,
        sum_space_smallness=smallness,
    )
    return rows, summary


def _run_largedata(xcfg, values, out_dir):
    from modlab.datagen import norm_report
    from modlab.solver import CertificateViolation, large_data_protocol

    problem = _problem(xcfg, values)
    window = xcfg.window()
    try:
        _, report = large_data_protocol(
            problem, window=window, s=values["s"], c0=values["c0"], c1=values["c1"]
        )
    except CertificateViolation as exc:
        # the run stopped at the violating iterate: report the partial certificate
        cert = exc.certificate
        summary = _summary(
            0.0, False, violation=exc.inequality, report={"certificate": cert.to_dict()}
        )
    else:
        cert = report.certificate
        summary = _summary(
            0.0,
            cert.holds() and report.converged,
            residual=report.final_residual,
            report=report.to_dict(),
        )
    summary["data"] = norm_report(problem.u0, window)
    rows = [
        (j, tot, tail, tot / (2 * cert.A))
        for j, (tot, tail) in enumerate(zip(cert.total_norms, cert.tail_norms))
    ]
    return rows, summary


def _run_datagen(xcfg, values, out_dir):
    from modlab.datagen import norm_report, save_field, scale_family

    grid = xcfg.grid()
    window = xcfg.window()
    family = xcfg.family
    # every scale is built before any file is written
    fields = [scale_family(family, scale, xcfg.seed, xcfg.cube, grid) for scale in xcfg.scales]
    reports = [
        {"scale": scale, **norm_report(f, window)} for scale, f in zip(xcfg.scales, fields)
    ]
    rows = [(r["scale"], r["m_norm"], r["h1"], r["boundary_decay"]) for r in reports]
    out_dir.mkdir(parents=True, exist_ok=True)
    for scale, f in zip(xcfg.scales, fields):
        save_field(f, out_dir / f"field_{family}_{scale:g}.bin")
    return rows, _summary(0.0, True, reports=reports, window=window.describe())


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


EXPERIMENTS = {
    "norms": _run_norms,
    **{kind: partial(_run_sweep, kind) for kind in SWEEPS},
    "variation": _run_variation,
    "solve": _run_solve,
    "largedata": _run_largedata,
    "datagen": _run_datagen,
}


def run(config_path: str, out: str, seed: int | None) -> int:
    out_dir = Path(out)
    try:
        cfg = _parse_config(Path(config_path))
        kind = cfg["experiment"]["kind"].strip()
        if kind not in EXPERIMENTS:
            raise UnknownExperiment(f"unknown experiment kind {kind!r}")
        xcfg, values = _read(cfg, kind, seed)
        rows, summary = EXPERIMENTS[kind](xcfg, values, out_dir)
    except InvalidScales as exc:
        print(f"error: invalid scales: {exc}", file=sys.stderr)
        return EXIT_SCALES
    except UnknownExperiment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ConfigError, configparser.Error) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    summary["config"] = {
        "experiment": kind,
        "resolved": {**xcfg.to_dict(), **_RETIRED},
        "raw": cfg,
        "seed": xcfg.seed,
        "threads": None,
    }
    try:
        _write_outputs(out_dir, kind, rows, summary)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{kind}: {'pass' if summary['pass'] else 'FAIL'} -> {out_dir}")
    return EXIT_PASS if summary["pass"] else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="modlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("config", help="path to the INI config")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    args = parser.parse_args(argv)
    return run(args.config, args.out, args.seed)


if __name__ == "__main__":
    sys.exit(main())
