"""The library calls of the benchmark's helper scripts still work.

perfbench/oracle.py computes the expected output of the seeded ``eval``
tasks through public library names, and perfbench/setup_probe.py builds
the braid-move tables of a workload's elements.  Both are loaded here by
path and run against the current package, so removing or changing a name
they use fails these tests rather than the benchmark run.
perfbench/tracer.py wraps a fixed list of package names and reads some of
their results; it is run here as the benchmark runs it, so a wrapped name
that is gone, or a result its hooks can no longer read, fails here too.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from rexcalc.cli import main

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


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


@pytest.mark.parametrize(
    "task",
    [
        "verify fpc-s4 --format json",
        "verify family --rank 6 --format json",
        "verify zam --rank 4 --format json",
        "eval 12321 --path s,c,t,c --element 1,x2,1,1,1,1",
    ],
)
def test_traced_run_matches_its_expected_output_and_reports_every_name(tmp_path, task):
    expected = json.loads((PERFBENCH / "expected.json").read_text())[task]
    stats = tmp_path / "stats.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    proc = subprocess.run(
        [sys.executable, "-B", str(PERFBENCH / "tracer.py"), str(stats), *task.split()],
        capture_output=True,
        env=env,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == expected["exit"], proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == expected["sha256"]
    assert json.loads(stats.read_text())["missing"] == []
