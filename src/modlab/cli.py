"""Batch experiment runner.

Usage: ``modlab run <config> --out <dir> [--seed N] [--threads K]``

Configs are flat INI key-value files with sections (see configs/ for
examples).  Each run executes one experiment and writes, atomically, a CSV
with the fixed columns (experiment, scale, lhs, rhs, ratio) and a JSON
summary carrying the fit keys (slope, intercept, residual, predicted,
margin, pass) plus the fully resolved config for provenance.  The process
exit code is 0 only when every pass criterion of the experiment holds.

Exit codes: 0 pass, 1 criteria failed, 2 config parse error,
3 unknown experiment, 4 invalid scales, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_UNKNOWN = 3
EXIT_SCALES = 4
EXIT_IO = 5

EXPERIMENTS = (
    "norms",
    "smoothing",
    "strichartz",
    "bilinear",
    "v2bilinear",
    "decoupling",
    "variation",
    "solve",
    "largedata",
    "datagen",
)


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
    out: dict = {}
    for section in cp.sections():
        out[section] = dict(cp.items(section))
    if "experiment" not in out or "kind" not in out["experiment"]:
        raise ConfigError("config must have an [experiment] section with a 'kind' key")
    return out


def _get(cfg: dict, section: str, key: str, cast, default=None):
    try:
        raw = cfg.get(section, {}).get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing key {key!r} in section [{section}]")
            return default
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {exc}") from exc


def _scales(cfg: dict, default=None) -> tuple[float, ...]:
    from modlab.estimates import InvalidScales

    raw = cfg.get("sweep", {}).get("scales")
    if raw is None:
        if default is None:
            raise ConfigError("missing [sweep] scales")
        return default
    try:
        vals = tuple(float(v) for v in raw.replace(",", " ").split())
    except ValueError as exc:
        raise InvalidScales(f"cannot parse scales {raw!r}") from exc
    if not vals:
        raise InvalidScales("empty scale list")
    return vals


def _experiment_config(cfg: dict, seed_override: int | None):
    from modlab.estimates import ExperimentConfig

    seed = seed_override
    if seed is None:
        seed = _get(cfg, "experiment", "seed", int, 0)
    kwargs = dict(
        d=_get(cfg, "grid", "d", int, 1),
        n=_get(cfg, "grid", "n", int, 256),
        length=_get(cfg, "grid", "length", float, 8.0 * math.pi),
        cube=_get(cfg, "grid", "cube", float, 1.0),
        seed=seed,
        scales=_scales(cfg, default=(2.0, 4.0, 8.0)),
        family=_get(cfg, "sweep", "family", str, "focusing"),
        p=_get(cfg, "sweep", "p", float, 4.0),
        s=_get(cfg, "sweep", "s", float, 0.0),
        q=_get(cfg, "sweep", "q", float, 2.0),
        horizon=_get(cfg, "sweep", "horizon", float, 1.0),
        time_nodes=_get(cfg, "sweep", "time_nodes", int, 129),
        margin=_get(cfg, "sweep", "margin", float, 0.15),
        fixed_scale=_get(cfg, "sweep", "fixed_scale", float, 1.0),
        min_separation=_get(cfg, "sweep", "min_separation", float, 1.0),
        atoms=_get(cfg, "sweep", "atoms", int, 1),
        mesh=_get(cfg, "sweep", "mesh", int, 0),
        samples_per_unit=_get(cfg, "sweep", "samples_per_unit", float, 2.0),
        profile=_get(cfg, "sweep", "profile", str, "constant"),
    )
    return ExperimentConfig(**kwargs)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------


def _sanitize(obj):
    """Make results JSON-safe and deterministic (inf/nan become strings)."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))}
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


def _fit_rows(name: str, fit) -> list:
    return [
        (s, l, r, q)
        for s, l, r, q in zip(fit.scales, fit.lhs, fit.rhs, fit.ratios)
    ]


def _fit_summary(fit) -> dict:
    return fit.to_dict()


# ---------------------------------------------------------------------------
# Experiment drivers
# ---------------------------------------------------------------------------


def _run_norms(cfg, xcfg, out_dir):
    from modlab.datagen import random_field
    from modlab.grid import lp_norm
    from modlab.modspace import ModNormSpec, modulation_norm

    trials = _get(cfg, "sweep", "trials", int, 20)
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
    tol = _get(cfg, "sweep", "tolerance", float, 1e-10)
    passed = max(devs) <= tol
    summary = {
        "slope": None,
        "intercept": None,
        "residual": None,
        "predicted": 1.0,
        "margin": tol,
        "pass": passed,
        "max_rel_deviation": max(devs),
        "window": window.describe(),
    }
    return rows, summary, passed


def _run_sweep(kind, cfg, xcfg, out_dir):
    from modlab import estimates

    if kind == "smoothing":
        fit = estimates.smoothing_ratio(xcfg)
        return _fit_rows(kind, fit), _fit_summary(fit), fit.passed
    if kind == "strichartz":
        fit = estimates.strichartz_l4_ratio(xcfg)
        return _fit_rows(kind, fit), _fit_summary(fit), fit.passed
    if kind == "decoupling":
        fit = estimates.decoupling_ratio(xcfg)
        return _fit_rows(kind, fit), _fit_summary(fit), fit.passed
    if kind == "v2bilinear":
        fit = estimates.v2_bilinear_ratio(xcfg)
        return _fit_rows(kind, fit), _fit_summary(fit), fit.passed
    if kind == "bilinear":
        fit_high, fit_low = estimates.bilinear_ratio(xcfg)
        rows = _fit_rows("bilinear_high", fit_high) + _fit_rows("bilinear_low", fit_low)
        passed = fit_high.passed and fit_low.passed
        summary = {
            "slope": fit_low.slope,
            "intercept": fit_low.intercept,
            "residual": fit_low.residual,
            "predicted": fit_low.predicted,
            "margin": fit_low.margin,
            "pass": passed,
            "high": _fit_summary(fit_high),
            "low": _fit_summary(fit_low),
        }
        return rows, summary, passed
    raise UnknownExperiment(kind)


def _run_variation(cfg, xcfg, out_dir):
    from modlab.datagen import random_field
    from modlab.variation import (
        LpValueNorm,
        SampledPath,
        make_atom,
        duality_pairing,
        vp_norm,
        vp_norm_bruteforce,
    )

    trials = _get(cfg, "sweep", "trials", int, 50)
    p = _get(cfg, "sweep", "p", float, 2.0)
    grid = xcfg.grid()
    norm = LpValueNorm(2.0)
    rng = np.random.default_rng(xcfg.seed)
    rows, exact, duality_ok = [], True, True
    for trial in range(trials):
        m = int(rng.integers(2, 11))
        fields = tuple(random_field(grid, xcfg.seed + 7 * trial + j) for j in range(m))
        path = SampledPath(tuple(range(m)), fields, norm)
        lhs = vp_norm(path, p)
        rhs = vp_norm_bruteforce(path, p)
        rows.append((trial, lhs, rhs, lhs / rhs if rhs else 1.0))
        exact = exact and abs(lhs - rhs) <= 1e-12 * max(1.0, rhs)
        if m >= 3:
            k = m // 2
            atom = make_atom(
                tuple(range(k + 1)), fields[:k], p if p > 1 else 2.0, norm
            )
            q = (p / (p - 1.0)) if p > 1 else 2.0
            bound = 1.0001 * vp_norm(path, q)
            duality_ok = duality_ok and abs(duality_pairing(atom, path)) <= bound
    passed = exact and duality_ok
    summary = {
        "slope": None,
        "intercept": None,
        "residual": None,
        "predicted": None,
        "margin": 0.0,
        "pass": passed,
        "dp_matches_bruteforce": exact,
        "duality_inequality": duality_ok,
    }
    return rows, summary, passed


def _problem_from_config(cfg, xcfg):
    from modlab.datagen import mollified_indicator, random_field
    from modlab.grid import Field
    from modlab.solver import NLSProblem

    grid = xcfg.grid()
    data = _get(cfg, "problem", "data", str, "gaussian")
    amplitude = _get(cfg, "problem", "amplitude", float, 0.2)
    if data == "gaussian":
        coords = grid.coords()
        r_sq = sum(x**2 for x in coords)
        u0 = Field(grid, amplitude * np.exp(-r_sq / 2.0).astype(complex))
    elif data == "mollified":
        n_radius = _get(cfg, "problem", "n_radius", float, 2.0)
        u0, _ = mollified_indicator(n_radius, grid)
        u0 = amplitude * u0 if amplitude != 1.0 else u0
    elif data == "random":
        u0 = amplitude * random_field(grid, xcfg.seed, band=grid.xi_max / 4)
    else:
        raise ConfigError(f"unknown problem data {data!r}")
    kappa_raw = cfg.get("problem", {}).get("kappa")
    return NLSProblem(
        u0=u0,
        horizon=_get(cfg, "problem", "horizon", float, 0.1),
        time_nodes=_get(cfg, "problem", "time_nodes", int, 65),
        kappa=float(kappa_raw) if kappa_raw else None,
        sign=_get(cfg, "problem", "sign", int, 1),
    )


def _run_solve(cfg, xcfg, out_dir):
    from modlab.solver import cross_validate, sum_space_smallness

    problem = _problem_from_config(cfg, xcfg)
    tol = _get(cfg, "problem", "tolerance", float, 1e-5)
    smallness = None
    if problem.d <= 2:
        # the d <= 2 theory takes sum-space data; record the smallness bound
        # the contraction hypothesis is checked against
        smallness = sum_space_smallness(
            problem.u0, xcfg.window(), s=_get(cfg, "problem", "s", float, 0.5)
        )
    report = cross_validate(problem, tol=tol)
    factors = report["picard_report"]["contraction_factors"]
    contracting = all(f < 0.5 for f in factors[1:]) if len(factors) > 1 else True
    passed = report["agrees"] and contracting
    rows = [
        (j, r, tol, f)
        for j, (r, f) in enumerate(
            zip(
                report["picard_report"]["residuals"],
                factors + [0.0] * (len(report["picard_report"]["residuals"]) - len(factors)),
            )
        )
    ]
    summary = {
        "slope": None,
        "intercept": None,
        "residual": report["distance"],
        "predicted": None,
        "margin": tol,
        "pass": passed,
        "cross_validation": report,
        "sum_space_smallness": smallness,
    }
    return rows, summary, passed


def _run_largedata(cfg, xcfg, out_dir):
    from modlab.solver import large_data_protocol

    problem = _problem_from_config(cfg, xcfg)
    c0 = _get(cfg, "problem", "c0", float, 0.1)
    c1 = _get(cfg, "problem", "c1", float, 0.1)
    s = _get(cfg, "problem", "s", float, 1.1)
    path, report = large_data_protocol(
        problem, window=xcfg.window(), s=s, c0=c0, c1=c1
    )
    cert = report.certificate
    passed = cert.holds() and report.converged
    rows = [
        (j, tot, tail, tot / (2 * cert.A))
        for j, (tot, tail) in enumerate(zip(cert.total_norms, cert.tail_norms))
    ]
    summary = {
        "slope": None,
        "intercept": None,
        "residual": report.final_residual,
        "predicted": None,
        "margin": 0.0,
        "pass": passed,
        "report": report.to_dict(),
    }
    return rows, summary, passed


def _run_datagen(cfg, xcfg, out_dir):
    from modlab.datagen import (
        boundary_decay,
        focusing_data,
        mollified_indicator,
        random_phase_data,
        save_field,
    )

    grid = xcfg.grid()
    window = xcfg.window()
    family = xcfg.family
    rows = []
    reports = []
    for scale in xcfg.scales:
        if family == "mollified":
            f, rep = mollified_indicator(scale, grid, window=window)
        elif family == "focusing":
            f = focusing_data(scale, grid)
            rep = {"n_radius": scale}
        elif family == "random_phase":
            f = random_phase_data(scale, xcfg.seed, grid)
            rep = {"scale": scale}
        else:
            raise ConfigError(f"unknown datagen family {family!r}")
        decay = boundary_decay(f)
        rep["boundary_decay"] = decay
        rep["boundary_flagged"] = bool(decay > 1e-10)
        out_dir.mkdir(parents=True, exist_ok=True)
        save_field(f, out_dir / f"field_{family}_{scale:g}.bin")
        reports.append(rep)
        rows.append(
            (scale, rep.get("m_norm", 0.0), rep.get("h1", 0.0), decay)
        )
    summary = {
        "slope": None,
        "intercept": None,
        "residual": None,
        "predicted": None,
        "margin": 0.0,
        "pass": True,
        "reports": reports,
        "window": window.describe(),
    }
    return rows, summary, True


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(config_path: str, out: str, seed: int | None = None, threads: int | None = None) -> int:
    from modlab.estimates import InvalidScales

    out_dir = Path(out)
    try:
        cfg = _parse_config(Path(config_path))
        kind = cfg["experiment"]["kind"].strip()
        if kind not in EXPERIMENTS:
            raise UnknownExperiment(f"unknown experiment kind {kind!r}")
        xcfg = _experiment_config(cfg, seed)
        if kind == "norms":
            rows, summary, passed = _run_norms(cfg, xcfg, out_dir)
        elif kind in ("smoothing", "strichartz", "bilinear", "v2bilinear", "decoupling"):
            rows, summary, passed = _run_sweep(kind, cfg, xcfg, out_dir)
        elif kind == "variation":
            rows, summary, passed = _run_variation(cfg, xcfg, out_dir)
        elif kind == "solve":
            rows, summary, passed = _run_solve(cfg, xcfg, out_dir)
        elif kind == "largedata":
            rows, summary, passed = _run_largedata(cfg, xcfg, out_dir)
        elif kind == "datagen":
            rows, summary, passed = _run_datagen(cfg, xcfg, out_dir)
        else:  # pragma: no cover - guarded above
            raise UnknownExperiment(kind)
    except InvalidScales as exc:
        print(f"error: invalid scales: {exc}", file=sys.stderr)
        return EXIT_SCALES
    except UnknownExperiment as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN
    except (ConfigError, configparser.Error) as exc:
        print(f"error: bad config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO

    if threads is None:
        threads = int(os.environ.get("MODLAB_THREADS", "0")) or None

    summary["config"] = {
        "experiment": kind,
        "resolved": xcfg.to_dict(),
        "raw": cfg,
        "seed": xcfg.seed,
        "threads": threads,
    }
    try:
        _write_outputs(out_dir, kind, rows, summary)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"{kind}: {'pass' if passed else 'FAIL'} -> {out_dir}")
    return EXIT_PASS if passed else EXIT_FAIL


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="modlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment from a config file")
    runp.add_argument("config", help="path to the INI config")
    runp.add_argument("--out", required=True, help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--threads", type=int, default=None, help="worker hint (recorded)")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.seed, args.threads)
    parser.error(f"unknown command {args.command}")
    return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
