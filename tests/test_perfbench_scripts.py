"""The library calls of the benchmark's helper scripts still work.

perfbench/oracle.py computes the expected output of the seeded ``eval``
tasks through public library names, and perfbench/setup_probe.py builds
the braid-move tables of a workload's elements.  Both are loaded here by
path and run against the current package, so removing or changing a name
they use fails these tests rather than the benchmark run.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from rexcalc.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_script(name: str, monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as it is
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_seeded_eval_tasks_match_the_cli(capsys, monkeypatch, seed):
    oracle = load_script("oracle", monkeypatch)
    tasks = oracle.seeded_tasks(seed, 3)
    assert len(tasks) == 3
    for task in tasks:
        code = main(task["argv"])
        out = capsys.readouterr().out
        assert code == 0, task["argv"]
        assert json.loads(out) == task["expect"], task["argv"]


def test_setup_probe_builds_the_cli_mix_tables(monkeypatch):
    probe = load_script("setup_probe", monkeypatch)
    monkeypatch.setattr(sys, "argv", ["setup_probe.py", "4", "13231", "12321", "23121", "12312"])
    assert probe.main() == 0
