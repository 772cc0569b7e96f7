"""Cross-checks of the graph layer against the direct implementation.

``oracle_rexgraph`` keeps the braid-move enumeration that applied each
validated move, the closure, the graph build with its global edge sort,
the ``min(remaining)`` cloud search and the Cloud-keyed conflation.  The
package's versions must give the same moves, words, edges, adjacency,
clouds, conflated edges, source and sink.  It also keeps the oriented-run
search that collected every monotone run and took the least; the
package's search stops at the first run it completes.
"""

from __future__ import annotations

import random

import pytest

import oracle_rexgraph as oracle
from rexcalc.rexgraph import build_conflated, build_rex_graph, clouds, oriented_run, source_sink
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
