"""Permutations, reduced words, braid moves, and closures."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from rexcalc import symgroup
from rexcalc.symgroup import (
    BraidMove,
    Permutation,
    braid_moves,
    is_reduced,
    longest_element,
    reduced_words,
    word_label,
    word_to_perm,
)

from conftest import random_reduced_word

REX_12321_WORDS = sorted(
    [
        (1, 2, 3, 2, 1),
        (1, 3, 2, 3, 1),
        (1, 3, 2, 1, 3),
        (3, 1, 2, 1, 3),
        (3, 1, 2, 3, 1),
        (3, 2, 1, 2, 3),
    ]
)

REX_W04_WORDS = sorted(
    [
        (1, 2, 1, 3, 2, 1),
        (1, 2, 3, 1, 2, 1),
        (2, 1, 2, 3, 2, 1),
        (2, 1, 3, 2, 3, 1),
        (2, 3, 1, 2, 1, 3),
        (2, 3, 1, 2, 3, 1),
        (2, 1, 3, 2, 1, 3),
        (2, 3, 2, 1, 2, 3),
        (3, 2, 3, 1, 2, 3),
        (1, 2, 3, 2, 1, 2),
        (1, 3, 2, 3, 1, 2),
        (1, 3, 2, 1, 3, 2),
        (3, 1, 2, 3, 1, 2),
        (3, 1, 2, 1, 3, 2),
        (3, 2, 1, 2, 3, 2),
        (3, 2, 1, 3, 2, 3),
    ]
)


def test_empty_word_is_identity():
    assert word_to_perm((), 4) == Permutation.identity(4)


def test_longest_of_s3():
    assert word_to_perm((1, 2, 1), 3).images == (3, 2, 1)


def test_word_12321_swaps_one_and_four():
    assert word_to_perm((1, 2, 3, 2, 1), 4).images == (4, 2, 3, 1)


def test_letter_out_of_range():
    with pytest.raises(ValueError):
        word_to_perm((1, 4), 4)


def test_is_reduced():
    assert not is_reduced((1, 1), 4)
    assert is_reduced((1, 2, 3, 2, 1), 4)
    assert is_reduced((2, 1, 3, 2, 1), 4)


def test_longest_element_words():
    assert longest_element(2) == (1,)
    assert longest_element(3) == (1, 2, 1)
    assert longest_element(4) == (1, 2, 1, 3, 2, 1)
    with pytest.raises(ValueError):
        longest_element(1)


@given(st.integers(2, 6))
def test_longest_element_has_maximal_length(n):
    w0 = longest_element(n)
    assert len(w0) == n * (n - 1) // 2
    assert is_reduced(w0, n)
    assert word_to_perm(w0, n) == Permutation.longest(n)


def test_braid_moves_adjacent_only():
    moves = braid_moves((1, 2, 1))
    assert [(m.kind, m.position, w) for m, w in moves] == [("up", 0, (2, 1, 2))]


def test_braid_moves_distant_only():
    moves = braid_moves((2, 4))
    assert [(m.kind, w) for m, w in moves] == [("distant", (4, 2))]


def test_braid_moves_degree_one_vertex():
    # the vertex 12321 has a single neighbor, 13231
    moves = braid_moves((1, 2, 3, 2, 1))
    assert [w for _, w in moves] == [(1, 3, 2, 3, 1)]


def test_braid_move_reverse_round_trips():
    move = BraidMove(1, "up", 2)
    word = (1, 2, 3, 2, 1)
    assert move.reversed().apply(move.apply(word)) == word


def test_equal_braid_moves_are_one_interned_object():
    # however the call is written, an equal move is the one shared instance
    up = symgroup._move(0, "up", 1)
    assert symgroup._move(0, "up", 1, 0) is up
    assert symgroup._move(position=0, kind="up", i=1, j=0) is up
    assert symgroup._move(0, "up", i=1) is up
    assert up.reversed().reversed() is up
    distant = symgroup._move(2, "distant", 1, 3)
    assert symgroup._move(2, "distant", i=1, j=3) is distant and distant.reversed().reversed() is distant
    # and the moves of one word's windows come from the same instances
    [(move, _)] = braid_moves((1, 2, 1))
    assert move is up and move == BraidMove(0, "up", 1) and move is not BraidMove(0, "up", 1)


def test_braid_moves_preserve_element_and_reducedness():
    rng = random.Random(5)
    for _ in range(100):
        w = random_reduced_word(rng, 5)
        p = word_to_perm(w, 5)
        for _, w2 in braid_moves(w):
            assert is_reduced(w2, 5)
            assert word_to_perm(w2, 5) == p


def test_reduced_words_identity():
    assert reduced_words(Permutation.identity(4)) == [()]


def test_reduced_words_of_12321():
    assert reduced_words(word_to_perm((1, 2, 3, 2, 1), 4)) == REX_12321_WORDS


def test_reduced_words_longest_s3_and_s4():
    assert len(reduced_words(word_to_perm(longest_element(3), 3))) == 2
    assert reduced_words(word_to_perm(longest_element(4), 4)) == REX_W04_WORDS


def test_reduced_words_seed_independent():
    perm = word_to_perm((2, 1, 3, 2, 1), 4)
    words = reduced_words(perm)
    # closing from any member reaches the same set
    for seed in words:
        seen = {seed}
        frontier = [seed]
        while frontier:
            nxt = []
            for w in frontier:
                for _, w2 in braid_moves(w):
                    if w2 not in seen:
                        seen.add(w2)
                        nxt.append(w2)
            frontier = nxt
        assert sorted(seen) == words


def test_n_statistic_under_moves():
    # the N statistic of a word is its letter sum
    rng = random.Random(17)
    for _ in range(100):
        w = random_reduced_word(rng, 5)
        for move, w2 in braid_moves(w):
            delta = sum(w2) - sum(w)
            if move.kind == "distant":
                assert delta == 0
            elif move.kind == "up":
                assert delta == 1
            else:
                assert delta == -1


def test_word_label_matches_the_joined_letters():
    # the all-digit path translates bytes; any other letter joins with commas
    def joined(word):
        if not word:
            return "e"
        return ("" if 1 <= min(word) and max(word) <= 9 else ",").join(map(str, word))

    rng = random.Random(38)
    letters = [0, 1, 5, 9, 10, 11, 255, 256, 1000, -1]
    words = [(), (0,), (10,), (9,), (256,), (-3, 4)]
    for _ in range(2000):
        length = rng.randint(0, 12)
        if rng.random() < 0.5:
            words.append(tuple(rng.randint(1, 9) for _ in range(length)))
        else:
            words.append(tuple(rng.choice(letters + [rng.randint(1, 9)]) for _ in range(length)))
    for word in words:
        assert word_label(word) == joined(word), word
