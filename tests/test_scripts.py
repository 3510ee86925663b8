"""Smoke test of the exploration scripts: each must import and print its
help, so that a renamed public name breaks a test rather than a script.
A ratio sweep runs through ``modlab run <config>`` alone, so no script
builds an ``ExperimentConfig`` or calls a sweep of ``modlab.estimates``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from modlab.cli import SWEEPS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: path.name)
def test_script_help(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script), "--help"],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "usage:" in done.stdout


def test_no_script_forks_the_cli():
    # a script that builds an ExperimentConfig and runs a sweep repeats what
    # cli._experiment_config and a config file do; a sweep at another p or d
    # is the same config with that key changed
    sweep_names = {"ExperimentConfig", *SWEEPS.values()}

    def names(node):
        # imported from modlab, or reached as an attribute of a module
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("modlab"):
            return [alias.name for alias in node.names]
        return [node.attr] if isinstance(node, ast.Attribute) else []

    forks = sorted(
        f"{script.name}: {name}"
        for script in SCRIPTS
        for node in ast.walk(ast.parse(script.read_text()))
        for name in names(node)
        if name in sweep_names
    )
    assert not forks, f"scripts that fork `modlab run`: {forks}"
