"""Cross-checks of the graph layer against the direct implementation.

``oracle_rexgraph`` keeps the braid-move enumeration that applied each
validated move, the closure, the graph build with its global edge sort,
the ``min(remaining)`` cloud search and the Cloud-keyed conflation.  The
package's versions must give the same moves, words, edges, adjacency,
clouds, conflated edges, source and sink.
"""

from __future__ import annotations

import random

import pytest

import oracle_rexgraph as oracle
from rexcalc.rexgraph import build_conflated, build_rex_graph, clouds
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
