"""Cross-checks of the graph layer against the direct implementation.

``oracle_rexgraph`` keeps the braid-move enumeration that applied each
validated move, the closure, the graph build with its global edge sort,
the ``min(remaining)`` cloud search and the Cloud-keyed conflation.  The
package's versions must give the same moves, words, edges, adjacency,
clouds, conflated edges, source and sink.  It keeps the linear scans
over the conflated edge list that the accessors ran before the link map,
and the package's accessors must answer as they do for every cloud pair.
It also keeps the oriented-run search that collected every monotone run
and took the least, reading those scans; the package's search stops at
the first run it completes.  Its path simplification read each step's
direction from the scans one at a time; the package's must give the same
path, or raise the same error, on every path it is given.
"""

from __future__ import annotations

import itertools
import random

import pytest

import oracle_rexgraph as oracle
from rexcalc import rexgraph, symgroup
from rexcalc.fpc import LINE3, S4_TABLE
from rexcalc.rexgraph import (
    CONFLATED,
    Path,
    build_conflated,
    build_rex_graph,
    clouds,
    enumerate_complete_paths,
    oriented_run,
    simplify_path,
    source_sink,
)
from rexcalc.symgroup import (
    Permutation,
    all_permutations,
    braid_moves,
    longest_element,
    reduced_words,
    word_to_perm,
)

from conftest import random_permutation


def assert_graph_layer_matches(perm: Permutation) -> None:
    words = oracle.reduced_words(perm)
    assert reduced_words(perm) == words
    for w in words:
        assert braid_moves(w) == oracle.braid_moves(w)

    rex, ref = build_rex_graph(perm), oracle.build_rex_graph(perm)
    assert rex.words == ref.words
    assert rex.edges == ref.edges
    assert rex.adjacency == ref.adjacency
    assert list(rex.adjacency) == list(ref.adjacency)
    assert clouds(rex) == oracle.clouds(ref)

    conf, ref_conf = build_conflated(rex), oracle.build_conflated(ref)
    assert conf.clouds == ref_conf.clouds
    assert conf.edges == ref_conf.edges
    assert conf.cloud_of == ref_conf.cloud_of
    assert conf.source == ref_conf.source
    assert conf.sink == ref_conf.sink
    for a in conf.clouds:
        assert conf.neighbors(a) == oracle.neighbors(conf, a)
        for b in conf.clouds:
            assert conf.links[a.representative].get(b.representative) == oracle.edge_between(conf, a, b)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_element_matches_the_oracle(n):
    for perm in all_permutations(n):
        assert_graph_layer_matches(perm)


def test_longest_element_of_s5_matches_the_oracle():
    perm = word_to_perm(longest_element(5), 5)
    assert len(reduced_words(perm)) == 768
    assert_graph_layer_matches(perm)


def test_random_rank_six_elements_match_the_oracle():
    # elements of length 7-11, so each graph stays within a few thousand words
    rng = random.Random(606)
    checked = 0
    while checked < 10:
        perm = random_permutation(rng, 6)
        if 7 <= perm.length() <= 11:
            assert_graph_layer_matches(perm)
            checked += 1


def test_rank_six_benchmark_element_matches_the_oracle():
    # 121321432154: 5,775 words, 17,486 edges, 82 clouds
    perm = word_to_perm((1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4), 6)
    assert_graph_layer_matches(perm)


def test_graph_build_finds_each_words_moves_once(monkeypatch):
    calls = []

    def counting_moves(word):
        calls.append(word)
        return braid_moves(word)

    # replace every module's name for it, as a traced run would
    for module in (symgroup, rexgraph):
        if getattr(module, "braid_moves", None) is braid_moves:
            monkeypatch.setattr(module, "braid_moves", counting_moves)
    rex = build_rex_graph(word_to_perm((1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4), 6))
    assert len(rex.words) == len(calls) == 5775
    assert sorted(calls) == list(rex.words)


def assert_run_matches(conf, x, y, direction) -> bool:
    """Same run as the oracle, or ValueError from both; True if a run exists."""
    try:
        want = oracle.oriented_run(conf, x, y, direction)
    except ValueError:
        with pytest.raises(ValueError):
            oriented_run(conf, x, y, direction)
        return False
    assert oriented_run(conf, x, y, direction) == want
    return True


def test_oriented_run_matches_the_oracle_on_every_s4_pair():
    found = missing = 0
    for perm in all_permutations(4):
        conf = build_conflated(build_rex_graph(perm))
        reps = [c.representative for c in conf.clouds]
        for x in reps:
            for y in reps:
                for direction in ("down", "up"):
                    if assert_run_matches(conf, x, y, direction):
                        found += 1
                    else:
                        missing += 1
    # both outcomes occur: runs exist only along the orientation
    assert found and missing


def test_oriented_run_matches_the_oracle_on_the_longest_element_of_s5():
    conf = build_conflated(build_rex_graph(word_to_perm(longest_element(5), 5)))
    s, t = (c.representative for c in source_sink(conf))
    reps = [c.representative for c in conf.clouds]
    # every pair the source/sink identities use, plus a seeded sample
    pairs = [(a, b) for x in reps for a, b in ((x, s), (x, t), (s, x), (t, x))]
    rng = random.Random(55)
    pairs += [(rng.choice(reps), rng.choice(reps)) for _ in range(100)]
    for x, y in pairs:
        for direction in ("down", "up"):
            assert_run_matches(conf, x, y, direction)


def simplify_outcome(simplify, conf, path):
    """The simplified path, or the type and text of the error raised."""
    try:
        return simplify(conf, path)
    except ValueError as exc:
        return type(exc), str(exc)


def test_simplify_path_matches_the_oracle_on_complete_paths_of_the_rank4_cycle():
    conf = build_conflated(build_rex_graph(word_to_perm(longest_element(4), 4)))
    reps = [c.representative for c in conf.clouds]
    paths = [
        path
        for a in reps
        for z in reps
        for path in enumerate_complete_paths(conf, a, z, 10)
    ]
    assert len(paths) == 272
    outcomes = [simplify_outcome(simplify_path, conf, p) for p in paths]
    assert outcomes == [simplify_outcome(oracle.simplify_path, conf, p) for p in paths]
    # both outcomes occur: a zig-zag form, or no direct subpath
    kinds = {type(o) if isinstance(o, Path) else o[0] for o in outcomes}
    assert kinds == {Path, rexgraph.NoDirectSubpathError}


def test_simplify_path_matches_the_oracle_on_every_short_walk_of_the_s4_lines():
    # every vertex sequence of up to six clouds: complete and incomplete
    # walks, and sequences with a step that is not an edge
    lines = [w for w, shape in S4_TABLE.items() if shape == LINE3]
    assert len(lines) == 3
    kinds = set()
    for word in lines:
        conf = build_conflated(build_rex_graph(word_to_perm(word, 4)))
        reps = [c.representative for c in conf.clouds]
        for length in range(1, 7):
            for seq in itertools.product(reps, repeat=length):
                path = Path(CONFLATED, seq)
                want = simplify_outcome(oracle.simplify_path, conf, path)
                assert simplify_outcome(simplify_path, conf, path) == want
                kinds.add(type(want) if isinstance(want, Path) else want[0])
    # a line has no complete walk without a direct subpath
    assert kinds == {Path, ValueError}
