#!/usr/bin/env python3
"""Time the polynomial kernel, element normal forms, matrix products, edge matrices, the graph layer and the path search.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 scripts/bench_polyring.py [--repeat 7] [--w0-rank5]

Prints one JSON object: nanoseconds per operation (best of the repeats)
for ``Polynomial`` multiplication and addition, for ``polyring.split_terms``
(``split``) on the ``split_calls`` tagged states that the ``from_tensor``
row's normal forms split, recorded once by wrapping the name ``bsbimod``
calls, for one warm
``fpc.check_zam_identities(4)`` and ``fpc.check_dud_udu_all(4)``
(``zam_walks``: the source/sink identities and DUD = UDU on the longest
element of S_4 as pool walks, with the graphs and edge matrices built
before the row), and for ``MorphismMatrix.for_edge`` on one adjacent move of the
word 123545321 of the element 123454321 (512 columns), with the package's
cached tables cleared before each repeat (``for_edge_adjacent``; no
verdict builds a distant move's matrix: ``path_morphism`` applies runs of
distant moves as mask permutations).  The ``bsbimod`` rows:
``from_tensor`` is one normal form of a pure tensor over the rank-5 word
1213214321, whose slots are 1 but for one or two seeded random
polynomials of rank 5, and ``local_tables`` is one cold
``derive_local_table`` of each of the 8 adjacent and 12 distant moves of
rank 6, with the cached tables cleared before each repeat: 4 shape
derivations (the element arithmetic of the window rewrites and checks,
once per shape, up, down, (1, 3) and (3, 1)) and 20 renamings of their
variables.  ``step_tables`` times one
cold ``ConflatedMorphisms`` of 123454321 at rank 6, the line6 workload's
step matrices (4 conflated edges, so 8 steps, whose lifts make 8
adjacent and 24 distant moves), with its graphs built before the row and
the cached tables cleared before each repeat.  Its 24 distant moves form
12 runs, each applied as one mask permutation: 6 lead a step and are
read through by its edge matrix's columns, and 6 end a step and relabel
its rows.  The graph rows time, best of
``GRAPH_REPEAT`` runs and in nanoseconds, ``braid_closure`` (the closure
``build_rex_graph`` takes as its neighbour map), ``build_rex_graph`` and
``build_conflated`` on the element 121321432154 of S_6 (5,775 words,
17,486 edges, 82 clouds), and the writing of its ``rexcalc graph --format
json`` (``emit_graph_json``) and ``rexcalc graph --conflated --format
json`` (``emit_conflated_json``) documents into /dev/null by
``cli.write_graph_json``, the writer ``cmd_graph`` uses for JSON, and of
its ``rexcalc graph --format dot`` document (``emit_graph_dot``): the
lines of ``to_dot`` into /dev/null through ``cli._emit``, the piecewise
writer ``cmd_graph`` uses for text and DOT.
``graph_peak_kb`` is the peak RSS, in kB (``ru_maxrss``), of a fresh
child interpreter that imports the package and runs one
``build_rex_graph`` and ``build_conflated`` of that element: the memory
the two graphs and their construction hold at once, on top of the
interpreter and its imports (about 13 MB).  A process peak counts memory
that ``tracemalloc`` does not see, such as reused blocks of the tuple
free list, so it compares commits.  Each child of this row and of
``--w0-rank5`` is spawned under ``perfbench/launch.py``, which reaps it
and reports its own ``ru_maxrss``; the launcher's speed meter takes
about 2% of the child's CPU.
``emit_graph_json_peak_kb`` is the ``tracemalloc`` peak, in kB, while
``cli.write_graph_json`` writes that element's built expanded graph
into /dev/null, the graph included: where ``rexcalc graph --format
json`` peaks.
``generator_sets`` times one cold ``bsbimod.bimodule_generator_masks``
(its cache cleared before each repeat) of each of the 8 cloud
representatives of the longest element of S_4 and of 123543215 at rank 6,
where the line6 workload's two walks start, in nanoseconds per word.
``cold_import`` times ``import rexcalc.cli`` in a fresh child
interpreter, one child per repeat and best of ``IMPORT_REPEAT``: the
import every CLI call pays once.  The
child times the meter loop itself, just before and just after its
import, so its ``per_meter_loop`` divides by the speed of the CPU the
import ran on.
The search rows time one ``fpc.check_fpc`` with its graphs and edge
matrices already built by a first call, so they measure the path search
alone: ``value_search`` on 12321, the S_4 counterexample, at bound 9
(it stops after a few dozen steps), and ``value_search_w0`` on 121321,
the longest element of S_4 (an 8-cloud cycle), at bound 20.  The
12321 row includes walking its witness's unit columns.
For each, and for ``zam_walks``, ``search_work`` gives what the
``fpc._MatrixPool`` pools did, read by wrapping that class: interned
values, distinct columns, memoized column images, and generated states
(one per start and per ``extend``, merged or not) with their rate over
the row's best time.  A value keeps only its columns at the two-sided
generator masks of its domain (``bsbimod.bimodule_generator_masks``), so
columns and column images count those.  ``--w0-rank5`` also builds
the ``ConflatedMorphisms`` of the longest element of S_5 in a fresh child
process and reports the build's seconds and the child's peak RSS in MB
(``ru_maxrss``), and adds the row
``generator_sets_w0_rank5``: ``generator_sets`` on the 62 cloud
representatives of the longest element of S_5.  The operands are fixed: seeded random
integer-coefficient polynomials of rank 4 (1-4 terms, exponents up to 2,
the shape of the S_4 sweep's matrix entries).

Reading the two units.  The ns figures are wall times, and the speed of a
vCPU on a shared machine drifts by up to 2x within seconds, so they
compare only rows of one run.  Before each repeat of a row the script
times a fixed interpreter loop (``meter`` of ``perfbench/launch.py``:
4,000 tuple-keyed dict updates, best of ``METER_REPEAT`` runs in thread
CPU time), and ``per_meter_loop`` gives each row's best ratio of a
repeat's time to the loop's time just before it: how many loops the
operation costs on the CPU as fast as it was just then.  Compare runs
and commits by ``per_meter_loop``; its noise is the drift between a
meter reading and the repeat after it.  The script pins itself to the
CPU it starts on, as ``perfbench/launch.py`` does, so the child
interpreters of ``cold_import`` and ``--w0-rank5`` run on the meter's
CPU.

Apart from clearing the cached tables, the pool wrapper, the
``split_terms`` recorder and the DOT row's ``cli._emit``, only public
names are used.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc

# the benchmark launcher's meter loop and CPU choice, so both tools read alike
PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
from launch import current_cpu, meter  # noqa: E402

from rexcalc import (
    BraidMove,
    ConflatedMorphisms,
    MorphismMatrix,
    Polynomial,
    braidmor,
    bsbimod,
    cli,
    derive_local_table,
    fpc,
    from_tensor,
    graph_for_word,
)
from rexcalc.polyring import split_terms
from rexcalc.rexgraph import build_conflated, build_rex_graph, to_dot
from rexcalc.symgroup import braid_closure, longest_element, word_to_perm

# spawns each fresh child of the peak rows, so their ru_maxrss is the child's own
LAUNCH = os.path.join(PERFBENCH, "launch.py")

RANK = 4

EDGE_WORD = (1, 2, 3, 5, 4, 5, 3, 2, 1)
EDGE_MOVE = BraidMove(3, "down", 4)

STEP_WORD = (1, 2, 3, 4, 5, 4, 3, 2, 1)

TENSOR_RANK = 5
TENSOR_WORD = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1)
TENSOR_COUNT = 100

# the moves of rank 6: adjacent windows (i, i+1, i) up and (i+1, i, i+1) down, then distant windows (i, j)
TABLE_MOVES = [BraidMove(0, kind, i) for kind in ("up", "down") for i in range(1, 5)] + [
    BraidMove(0, "distant", i, j) for i in range(1, 6) for j in range(1, 6) if abs(i - j) >= 2
]

# where the line6 workload's walks start: the second cloud of 123454321's line
LINE6_START = (1, 2, 3, 5, 4, 3, 2, 1, 5)

GRAPH_WORD = (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4)
GRAPH_REPEAT = 5

# row name -> (word, bound) of one check_fpc on rank 4
SEARCHES = {
    "value_search": ((1, 2, 3, 2, 1), 9),
    "value_search_w0": ((1, 2, 1, 3, 2, 1), 20),
}

METER_REPEAT = 20

IMPORT_REPEAT = 10
# argv: the perfbench directory and METER_REPEAT; prints the import's
# seconds and the best meter loop read around it, in seconds
IMPORT_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
from launch import meter
loops = [meter() for _ in range(int(sys.argv[2]))]
start = time.perf_counter()
import rexcalc.cli
took = time.perf_counter() - start
loops += [meter() for _ in range(int(sys.argv[2]))]
print(took, min(loops))
"""


def random_polys(rng: random.Random, count: int, rank: int = RANK) -> list[Polynomial]:
    polys = []
    for _ in range(count):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            mono = tuple(rng.randint(0, 2) for _ in range(rank))
            terms[mono] = terms.get(mono, 0) + rng.choice((-2, -1, 1, 1, 2, 3))
        polys.append(Polynomial(rank, terms))
    return polys


def tensor_slots(rng: random.Random) -> list[list[Polynomial]]:
    """TENSOR_COUNT slot lists for TENSOR_WORD: all 1 but for one or two random polynomials."""
    one = Polynomial.one(TENSOR_RANK)
    sets = []
    for _ in range(TENSOR_COUNT):
        slots = [one] * (len(TENSOR_WORD) + 1)
        for j, p in zip(rng.sample(range(len(slots)), 2), random_polys(rng, rng.randint(1, 2), TENSOR_RANK)):
            slots[j] = p
        sets.append(slots)
    return sets


def recorded_splits(slot_sets) -> list[tuple]:
    """The (terms, letter, rank) of every split_terms call that from_tensor makes on the slot lists."""
    calls = []

    def record(terms, i, rank):
        calls.append((terms, i, rank))
        return split_terms(terms, i, rank)

    bsbimod.split_terms = record
    try:
        for slots in slot_sets:
            from_tensor(TENSOR_WORD, slots, TENSOR_RANK)
    finally:
        bsbimod.split_terms = split_terms
    return calls


def cloud_words(word, rank: int) -> list:
    """The cloud representatives of the conflated graph of the element a word spells."""
    return [c.representative for c in graph_for_word(word, rank=rank)[1].clouds]


def time_generator_sets(words) -> float:
    """One cold bimodule_generator_masks of each (word, rank), in nanoseconds per word."""
    bsbimod.bimodule_generator_masks.cache_clear()
    return run_ns(lambda: [bsbimod.bimodule_generator_masks(w, rank) for w, rank in words], len(words))


def run_ns(fn, ops: int) -> float:
    """One run of fn(), in nanoseconds per operation."""
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) / ops * 1e9


def measure(once, repeat: int) -> tuple[float, float]:
    """Best of ``repeat`` calls of once() (ns/op), and the best ratio of a call to the meter loop timed just before it.

    A row timed in a child interpreter returns (ns, the child's own meter
    loop in ns), and its ratio is taken to that loop instead.
    """
    best = best_ratio = float("inf")
    for _ in range(repeat):
        loop_ns = min(meter() for _ in range(METER_REPEAT)) * 1e9
        ns = once()
        if isinstance(ns, tuple):
            ns, loop_ns = ns
        best, best_ratio = min(best, ns), min(best_ratio, ns / loop_ns)
    return best, best_ratio


def clear_tables() -> None:
    braidmor._shape_table.cache_clear()


def time_for_edge() -> float:
    """One cold build of the edge matrix of EDGE_MOVE on EDGE_WORD, in nanoseconds."""
    clear_tables()
    return run_ns(lambda: MorphismMatrix.for_edge(EDGE_MOVE, EDGE_WORD, 6), 1)


def time_local_tables() -> float:
    """One cold derive_local_table of every move of TABLE_MOVES at rank 6, in nanoseconds per move."""
    clear_tables()
    return run_ns(lambda: [derive_local_table(move, 6) for move in TABLE_MOVES], len(TABLE_MOVES))


def time_step_tables(rex, conf) -> float:
    """One cold ConflatedMorphisms build over prebuilt graphs, in nanoseconds."""
    clear_tables()
    return run_ns(lambda: ConflatedMorphisms(rex, conf), 1)


W0_RANK5_CHILD = """
import time
from rexcalc import ConflatedMorphisms, graph_for_word
from rexcalc.symgroup import longest_element
rex, conf = graph_for_word(longest_element(5), rank=5)
start = time.perf_counter()
ConflatedMorphisms(rex, conf)
print(time.perf_counter() - start)
"""


def run_child(program: str) -> tuple[str, int]:
    """Run a Python program in a fresh child interpreter: what it printed, and its peak RSS in kB.

    A child's ``ru_maxrss`` starts at the resident size of the process that
    spawned it, so the child is spawned, with ``os.posix_spawn``, under
    ``perfbench/launch.py``: the launcher stays near 8 MB, reaps the child
    with ``os.wait4`` and reports its ``ru_maxrss``, which is then the
    child's own, not this process's.
    """
    out_read, out_write = os.pipe()
    report_read, report_write = os.pipe()
    os.set_inheritable(report_write, True)
    pid = os.posix_spawn(
        sys.executable,
        [sys.executable, "-I", "-S", LAUNCH, str(report_write), sys.executable, "-c", program],
        os.environ,
        file_actions=[(os.POSIX_SPAWN_DUP2, out_write, 1)],
    )
    os.close(out_write)
    os.close(report_write)
    with os.fdopen(out_read) as out, os.fdopen(report_read) as report:
        printed, fields = out.read(), report.read().split()
    os.waitpid(pid, 0)
    if len(fields) != 5 or fields[1] != "0":
        raise RuntimeError(f"the child interpreter failed: launcher report {' '.join(fields)!r}")
    return printed, int(fields[2])


def time_w0_rank5() -> tuple[float, float]:
    """Seconds for one ConflatedMorphisms build of the longest element of S_5, in a fresh child, and its peak RSS in MB."""
    printed, peak_kb = run_child(W0_RANK5_CHILD)
    return float(printed), peak_kb / 1024


def time_cold_import() -> tuple[float, float]:
    """One ``import rexcalc.cli`` in a fresh child interpreter, and the child's meter loop, in nanoseconds."""
    child = subprocess.run(
        [sys.executable, "-c", IMPORT_CHILD, PERFBENCH, str(METER_REPEAT)],
        capture_output=True,
        text=True,
        check=True,
    )
    took, loop = map(float, child.stdout.split())
    return took * 1e9, loop * 1e9


def graph_layer_rows() -> dict:
    """Row name -> (one-run timer in nanoseconds, repeats) of the graph layer on GRAPH_WORD."""
    perm = word_to_perm(GRAPH_WORD, 6)
    rex = build_rex_graph(perm)
    conf = build_conflated(rex)

    def emit_json(graph):
        with open(os.devnull, "w") as sink:
            cli.write_graph_json(GRAPH_WORD, graph, sink)

    def emit_dot():
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            cli._emit(None, "dot", to_dot(rex))

    return {
        "braid_closure": (lambda: run_ns(lambda: braid_closure(perm), 1), GRAPH_REPEAT),
        "build_rex_graph": (lambda: run_ns(lambda: build_rex_graph(perm), 1), GRAPH_REPEAT),
        "build_conflated": (lambda: run_ns(lambda: build_conflated(rex), 1), GRAPH_REPEAT),
        "emit_graph_json": (lambda: run_ns(lambda: emit_json(rex), 1), GRAPH_REPEAT),
        "emit_conflated_json": (lambda: run_ns(lambda: emit_json(conf), 1), GRAPH_REPEAT),
        "emit_graph_dot": (lambda: run_ns(emit_dot, 1), GRAPH_REPEAT),
    }


GRAPH_PEAK_CHILD = f"""
from rexcalc.rexgraph import build_conflated, build_rex_graph
from rexcalc.symgroup import word_to_perm
build_conflated(build_rex_graph(word_to_perm({GRAPH_WORD!r}, 6)))
"""


def graph_peak_kb() -> int:
    """The peak RSS, in kB, of a fresh child interpreter that builds both graphs of GRAPH_WORD."""
    return run_child(GRAPH_PEAK_CHILD)[1]


def emit_graph_json_peak_kb() -> float:
    """The tracemalloc peak while cli.write_graph_json writes the built expanded graph of GRAPH_WORD, in kB."""
    perm = word_to_perm(GRAPH_WORD, 6)
    tracemalloc.start()
    try:
        rex = build_rex_graph(perm)
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as sink:
            cli.write_graph_json(GRAPH_WORD, rex, sink)
        return tracemalloc.get_traced_memory()[1] / 1024
    finally:
        tracemalloc.stop()


def search_work(check) -> dict:
    """What the pools of one run of check() did, read by wrapping fpc._MatrixPool."""
    pools, states = [], [0]

    class Counted(fpc._MatrixPool):
        def __init__(self, cm):
            super().__init__(cm)
            pools.append(self)

        def identity(self, word):
            states[0] += 1
            return super().identity(word)

        def extend(self, value, step):
            states[0] += 1
            return super().extend(value, step)

    original = fpc._MatrixPool
    fpc._MatrixPool = Counted
    try:
        check()
    finally:
        fpc._MatrixPool = original
    return {
        "values": sum(len(pool.values) for pool in pools),
        "columns": sum(len(pool.cols) for pool in pools),
        "column_images": sum(len(memo) for pool in pools for memo in pool.images.values()),
        "states": states[0],
    }


def time_value_search(word, bound: int) -> float:
    """One check_fpc of the word, in nanoseconds."""
    return run_ns(lambda: fpc.check_fpc(word, bound, rank=RANK), 1)


def zam_walks() -> None:
    """The source/sink identities and DUD = UDU on the longest element of S_4."""
    fpc.check_zam_identities(4)
    fpc.check_dud_udu_all(4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    parser.add_argument("--w0-rank5", action="store_true", help="also time the rank-5 w0 tables")
    args = parser.parse_args()
    # the meter, every row and every child (cold_import, --w0-rank5) run on one CPU
    os.sched_setaffinity(0, {current_cpu()})
    rng = random.Random(2024)
    left, right = random_polys(rng, 2000), random_polys(rng, 2000)
    pairs = list(zip(left, right))
    slot_sets = tensor_slots(random.Random(5))  # its own seed: the operands below stay as they were

    zam_walks()  # builds the graphs and edge matrices
    splits = recorded_splits(slot_sets)
    set_words = [(w, 4) for w in cloud_words(longest_element(4), 4)] + [(LINE6_START, 6)]
    rows = {
        "mul": (lambda: run_ns(lambda: [p * q for p, q in pairs], len(pairs)), args.repeat),
        "add": (lambda: run_ns(lambda: [p + q for p, q in pairs], len(pairs)), args.repeat),
        "split": (lambda: run_ns(lambda: [split_terms(*call) for call in splits], len(splits)), args.repeat),
        "from_tensor": (
            lambda: run_ns(lambda: [from_tensor(TENSOR_WORD, s, TENSOR_RANK) for s in slot_sets], len(slot_sets)),
            args.repeat,
        ),
        "local_tables": (time_local_tables, args.repeat),
        "generator_sets": (lambda: time_generator_sets(set_words), args.repeat),
        "zam_walks": (lambda: run_ns(zam_walks, 1), args.repeat),
        "for_edge_adjacent": (time_for_edge, args.repeat),
    }
    step_graphs = graph_for_word(STEP_WORD, rank=6)
    rows["step_tables"] = (lambda: time_step_tables(*step_graphs), args.repeat)
    if args.w0_rank5:
        rank5_words = [(w, 5) for w in cloud_words(longest_element(5), 5)]
        rows["generator_sets_w0_rank5"] = (lambda: time_generator_sets(rank5_words), args.repeat)
    rows.update(graph_layer_rows())
    rows["cold_import"] = (time_cold_import, IMPORT_REPEAT)
    for name, (word, bound) in SEARCHES.items():
        fpc.check_fpc(word, bound, rank=RANK)  # builds its graphs and edge matrices
        rows[name] = (lambda word=word, bound=bound: time_value_search(word, bound), args.repeat)

    result = {"unit": "ns/op", "split_calls": len(splits)}
    per_loop = {}
    for name, (once, repeat) in rows.items():
        result[name], per_loop[name] = measure(once, repeat)
    result["per_meter_loop"] = per_loop
    result["graph_peak_kb"] = graph_peak_kb()
    result["emit_graph_json_peak_kb"] = emit_graph_json_peak_kb()
    checks = {
        name: lambda word=word, bound=bound: fpc.check_fpc(word, bound, rank=RANK)
        for name, (word, bound) in SEARCHES.items()
    }
    checks["zam_walks"] = zam_walks
    result["search_work"] = {}
    for name, check in checks.items():
        work = result["search_work"][name] = search_work(check)
        work["states_per_s"] = work["states"] / (result[name] * 1e-9)
    if args.w0_rank5:
        result["w0_rank5_tables_s"], result["w0_rank5_peak_rss_mb"] = time_w0_rank5()
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
