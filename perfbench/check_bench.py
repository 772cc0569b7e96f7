"""Self-checks of the benchmark harness.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/check_bench.py

The file name keeps these checks out of the package's own test run; they
start real CLI processes and take a few seconds.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench  # noqa: E402
import tracer  # noqa: E402

ZAM3 = "verify zam --rank 3 --format json"
EVAL = "eval 12321 --path s,c,t,c --element 1,x2,1,1,1,1"
COUNT_SUFFIXES = (".calls", ".built", ".distinct")


@pytest.fixture(scope="module")
def deadline():
    limit = time.perf_counter() + bench.MARGIN_S
    bench.prepare(limit)
    yield limit
    shutil.rmtree(bench.WORK, ignore_errors=True)


def fixed_task(text: str, digest: str | None = None) -> bench.Task:
    with open(bench.EXPECTED) as fh:
        exp = json.load(fh)[text]
    return bench.Task(text.split(), exp["exit"], digest or exp["sha256"])


def test_wrong_expected_digest_counts_as_failure(deadline):
    workload = bench.Workload(4, ["121"], [fixed_task(ZAM3), fixed_task(ZAM3, "0" * 64)])
    metrics, tally, samples = bench.measure(workload, 0.1, deadline)
    assert tally.failed == samples["passes"] >= 1
    assert all(f.startswith(ZAM3) for f in tally.failures)
    assert metrics["pass_share"]["value"] < 1


def test_timeout_is_reported_apart_from_a_wrong_output(deadline):
    tally = bench.Tally()
    bench.run_pass(bench.Workload(4, ["121"], [fixed_task(ZAM3)]), tally, time.perf_counter())
    assert tally.failed == tally.timed_out == 1
    assert "timed out" in tally.failures[0]


def test_traced_runs_repeat_their_counts_and_output(deadline):
    workload = bench.Workload(4, ["12321"], [fixed_task(ZAM3), fixed_task(EVAL)])
    first, tally_a, _ = bench.measure_traced(workload, deadline)
    second, tally_b, _ = bench.measure_traced(workload, deadline)
    # each traced task's stdout digest was checked against the untraced expectation
    assert tally_a.failed == tally_b.failed == 0
    counts = [m for m in bench.LAYER_FIELDS if m.endswith(COUNT_SUFFIXES) or m == "rexgraph.words"]
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    # every declared per-layer metric is printed, also where it reads 0
    assert set(first) == set(second) == declared
    assert first["fpc.search.calls"]["value"] == 0
    assert first["fpc.zam.calls"]["value"] == 2
    assert first["fpc.check.s"]["value"] > 0
    assert first["braidmor.apply.calls"]["value"] == 1
    assert {m: first[m]["value"] for m in counts if m in first} == {
        m: second[m]["value"] for m in counts if m in second
    }


def test_vanished_names_are_absent_and_uncalled_ones_read_zero(tmp_path):
    sys.path.insert(0, bench.SRC)
    import rexcalc.cli  # noqa: F401
    from rexcalc.polyring import Polynomial

    mul = Polynomial.__mul__
    t = tracer.Tracer()
    t.install([("polyring", "Polynomial.no_such_method", "polyring.mul"), ("no_such_module", "f", "gone.f")])
    assert t.missing == ["polyring.mul", "gone.f"]
    assert Polynomial.__mul__ is mul

    stats = {
        "import_s": 0.01,
        "missing": ["polyring.mul", "braidmor.key.distinct"],
        "totals": {
            "polyring.mul": {"calls": 3, "s": 0.1, "self_s": 0.1},
            "polyring.add": {"calls": 2, "s": 0.1, "self_s": 0.1},
            "braidmor.key": {"calls": 4, "s": 0.1, "self_s": 0.1},
            "fpc.search": {"calls": 0, "s": 0.0, "self_s": 0.0},
        },
        "spans": [],
    }
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(stats))
    metrics = bench.layer_metrics([(str(path), 1.0)])
    assert "polyring.mul.calls" not in metrics and "braidmor.key.distinct" not in metrics
    assert metrics["fpc.search.calls"]["value"] == 0
    # a time summed over several names is absent when one of them is
    assert "fpc.check.s" not in metrics
    assert metrics["polyring.add.calls"]["value"] == 2
    assert metrics["braidmor.key.calls"]["value"] == 4
