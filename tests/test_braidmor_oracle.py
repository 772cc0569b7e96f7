"""Relabelled local tables and run-collecting path morphisms, cross-checked against oracle_braidmor.

Every table is its window shape's table, derived once at rank 3 or 4,
with its variables renamed, and a run of distant moves is applied as one
mask permutation; both are compared with the direct derivations that
preceded them.
"""

from __future__ import annotations

import random
import re

import oracle_braidmor as oracle
import pytest

from rexcalc import braidmor
from rexcalc.braidmor import ConflatedMorphisms, derive_local_table, move_between, path_morphism
from rexcalc.rexgraph import CONFLATED, EXPANDED, Path, graph_for_word, lift_conflated_path
from rexcalc.symgroup import DISTANT, BraidMove

RANKS = range(3, 12)

# walks by their move kinds, d distant and a adjacent: where the distant runs sit
SHAPES = {
    "distant only": "d+",
    "led by a run": "d+a[ad]*",
    "ended by a run": "[ad]*ad+",
    "a run between adjacent moves": "[ad]*ad+a[ad]*",
}


def _same_table(got, want) -> None:
    assert len(got) == len(want)
    for mask, (g, w) in enumerate(zip(got, want)):
        assert (g.rank, g.word, g.terms) == (w.rank, w.word, w.terms), mask


@pytest.mark.parametrize("rank", RANKS)
def test_adjacent_tables_match_the_direct_derivation(rank):
    for kind in ("up", "down"):
        for i in range(1, rank - 1):
            _same_table(derive_local_table(BraidMove(0, kind, i), rank), oracle.adjacent_table(i, kind, rank))


@pytest.mark.parametrize("rank", RANKS)
def test_distant_tables_match_the_direct_derivation(rank):
    for i in range(1, rank):
        for j in range(1, rank):
            if abs(i - j) >= 2:
                _same_table(derive_local_table(BraidMove(0, DISTANT, i, j), rank), oracle.distant_table(i, j, rank))


@pytest.mark.parametrize("kind, i", [("up", 10), ("down", 10), ("up", 0), ("down", 0)])
def test_adjacent_letters_out_of_range_raise_as_the_direct_derivation_does(kind, i):
    with pytest.raises(ValueError) as direct:
        oracle.adjacent_table(i, kind, 11)
    with pytest.raises(ValueError, match=f"^{direct.value}$"):
        derive_local_table(BraidMove(0, kind, i), 11)


@pytest.mark.parametrize("i, j", [(1, 11), (11, 1), (0, 5)])
def test_distant_letters_out_of_range_raise_as_the_direct_derivation_does(i, j):
    with pytest.raises(ValueError) as direct:
        oracle.distant_table(i, j, 11)
    with pytest.raises(ValueError, match=f"^{direct.value}$"):
        derive_local_table(BraidMove(0, DISTANT, i, j), 11)


def test_every_table_at_ranks_3_to_11_comes_from_four_shapes():
    braidmor._shape_table.cache_clear()
    for rank in RANKS:
        for i in range(1, rank):
            if i < rank - 1:
                derive_local_table(BraidMove(0, "up", i), rank)
                derive_local_table(BraidMove(0, "down", i), rank)
            for j in range(1, rank):
                if abs(i - j) >= 2:
                    derive_local_table(BraidMove(0, DISTANT, i, j), rank)
    info = braidmor._shape_table.cache_info()
    assert info.misses == info.currsize == 4


@pytest.mark.parametrize("word, rank", [((1, 2, 1, 3, 2, 1), 4), ((1, 2, 1, 3, 2, 1, 4, 3, 2, 1), 5)])
def test_every_lifted_step_matches_the_bit_swap_oracle(word, rank):
    rex, conf = graph_for_word(word, rank)
    count = 0
    for edge in conf.edges:
        a, b = edge.source.representative, edge.target.representative
        for step in ((a, b), (b, a)):
            lifted = lift_conflated_path(conf, rex, Path(CONFLATED, step))
            assert path_morphism(lifted, rank) == oracle.path_morphism(lifted, rank), step
            count += 1
    assert count == 2 * len(conf.edges) > 0


def _distant_run(rng, rex, word, steps):
    """A walk of up to ``steps`` distant moves from word."""
    walk = [word]
    for _ in range(steps):
        options = rex.distant_neighbors(walk[-1])
        if not options:
            break
        walk.append(rng.choice(options)[0])
    return walk


def _walks(rng, rex, count):
    """Random walks of four kinds, by k % 4: random, led by a distant run, ended by one, and distant only."""
    for k in range(count):
        start = rng.choice(rex.words)
        if k % 4 == 1:
            walk = _distant_run(rng, rex, start, rng.randint(1, 4))
        else:
            walk = [start]
        for _ in range(0 if k % 4 == 3 else rng.randint(1, 8)):
            walk.append(rng.choice(rex.adjacency[walk[-1]])[0])
        if k % 4 >= 2:
            walk += _distant_run(rng, rex, walk[-1], rng.randint(1, 4))[1:]
        yield Path(EXPANDED, tuple(walk))


@pytest.mark.parametrize(
    "word, rank",
    [
        ((1, 3, 2, 3, 1), 4),
        ((1, 2, 1, 3, 2, 1), 4),
        ((1, 2, 1, 3, 4, 3), 5),
        ((1, 3, 2, 4, 3, 1), 5),
        ((1, 2, 3, 4, 5, 4, 3, 2, 1), 6),
        ((2, 1, 2, 4, 5, 4, 3), 6),
    ],
)
def test_random_walks_match_the_bit_swap_oracle(word, rank):
    rng = random.Random(sum(word) * rank)
    rex, _ = graph_for_word(word, rank)
    shapes = set()
    for path in _walks(rng, rex, 40):
        assert path_morphism(path, rank) == oracle.path_morphism(path, rank), path.vertices
        steps = zip(path.vertices, path.vertices[1:])
        kinds = "".join("d" if move_between(u, v).kind == DISTANT else "a" for u, v in steps)
        shapes.update(name for name, pattern in SHAPES.items() if re.fullmatch(pattern, kinds))
    assert shapes == set(SHAPES)


def test_each_adjacent_shape_is_derived_once_for_the_line6_tables():
    braidmor._shape_table.cache_clear()
    rex, conf = graph_for_word((1, 2, 3, 4, 5, 4, 3, 2, 1), 6)
    ConflatedMorphisms(rex, conf)
    info = braidmor._shape_table.cache_info()
    # every window's table is one of the four shapes, up, down, (1, 3) and
    # (3, 1), each derived once; no window is derived in its own place
    assert info.misses == info.currsize <= 4 and info.hits > 0
