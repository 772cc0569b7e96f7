"""The scripts under scripts/ run end to end against the current package."""

from __future__ import annotations

import importlib.util
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

from rexcalc.rexgraph import graph_for_word, to_dot

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name: str):
    """The script as a module, imported without running its main()."""
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], text=True, capture_output=True, env=env, timeout=300
    )


def test_run_verification_reports_every_suite_as_expected():
    proc = run_script("run_verification.py")
    assert proc.returncode == 0, proc.stderr
    header, *rows, verdict = proc.stdout.splitlines()
    assert verdict == "all verdicts as expected"
    assert len(rows) == 15 and all(" ok " in row for row in rows)
    # every label fits its column, so the verdict and time columns line up
    assert {len(row) for row in rows} == {len(header)}


def test_export_graphs_writes_the_dot_text_of_every_showcase_graph(tmp_path):
    proc = run_script("export_graphs.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    script = load_script("export_graphs")
    assert len(script.SHOWCASE) == 8
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{name}.dot" for name, *_ in script.SHOWCASE)
    for name, word, rank, kind in script.SHOWCASE:
        rex, conf = graph_for_word(word, rank=rank)
        graph = rex if kind == "expanded" else conf
        assert (tmp_path / f"{name}.dot").read_text() == "\n".join(to_dot(graph)) + "\n"


def test_bench_polyring_prints_its_usage():
    proc = run_script("bench_polyring.py", "--help")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_bench_polyring_clears_its_tables_and_times_an_edge_row():
    script = load_script("bench_polyring")
    script.clear_tables()
    assert script.time_for_edge() > 0


def test_bench_polyring_times_the_bsbimod_rows():
    script = load_script("bench_polyring")
    slot_sets = script.tensor_slots(random.Random(5))
    assert len(slot_sets) == script.TENSOR_COUNT
    assert all(len(slots) == len(script.TENSOR_WORD) + 1 for slots in slot_sets)
    one = script.Polynomial.one(script.TENSOR_RANK)
    assert all(sum(p is not one for p in slots) in (1, 2) for slots in slot_sets)
    assert len(set(script.TABLE_MOVES)) == 20
    assert script.time_local_tables() > 0
    # cold: the row derived all four window shapes, after clearing them
    assert script.braidmor._shape_table.cache_info().misses == 4


def test_bench_polyring_times_cold_step_tables():
    script = load_script("bench_polyring")
    rex, conf = graph_for_word(script.STEP_WORD, rank=6)
    assert len(conf.edges) == 4
    script.time_step_tables(rex, conf)  # warm
    assert script.time_step_tables(rex, conf) > 0
    # cold: the row derived every window shape it used once, after clearing them
    shapes = script.braidmor._shape_table.cache_info()
    assert shapes.misses == shapes.currsize == 4


def test_bench_polyring_times_the_step_columns_of_the_family_check():
    script = load_script("bench_polyring")
    reads = script.family_step_columns()
    # check_family(6) builds 290 of the 4,096 columns of its 8 steps, each once
    assert len(reads) == len(set(reads)) == 290
    rex, conf = graph_for_word(script.STEP_WORD, rank=6)
    assert script.time_family_step_columns(rex, conf, reads) > 0
    shapes = script.braidmor._shape_table.cache_info()
    assert shapes.misses == shapes.currsize == 4


def test_bench_polyring_times_a_cold_import_and_the_graph_writer(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    script = load_script("bench_polyring")
    ns, loop_ns = script.time_cold_import()
    assert ns > 0 and loop_ns > 0
    # the row's meter ratio is taken to the loop the child timed around its import
    assert script.measure(lambda: (ns, loop_ns), 1) == (ns, ns / loop_ns)
    rows = script.graph_layer_rows()
    for name in ("braid_closure", "emit_graph_json", "emit_conflated_json", "emit_graph_dot"):
        once, _ = rows[name]
        assert once() > 0


def test_bench_polyring_reads_the_graph_build_peak(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    script = load_script("bench_polyring")
    peak = script.graph_peak_kb()
    # a fresh child's peak RSS: an interpreter, the package and both graphs of GRAPH_WORD
    assert type(peak) is int and 2_000 < peak < 500_000 and not tracemalloc.is_tracing()
    # the rank-5 row reads its peak through the same child runner
    printed, child_peak = script.run_child("print(6 * 7)")
    assert printed == "42\n" and 0 < child_peak < peak


def test_bench_polyring_reads_the_graph_json_writer_peak():
    script = load_script("bench_polyring")
    peak = script.emit_graph_json_peak_kb()
    # the built graph is traced too, and it alone holds about 1,900 kB
    assert peak > 1000 and not tracemalloc.is_tracing()
