"""Normal forms of Bott-Samelson bimodule elements."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rexcalc.bsbimod import (
    BSElement,
    basis_degree,
    basis_slots,
    bimodule_generator_masks,
    constant_right_action,
    dot_cap,
    free_slots,
    from_tensor,
    generator_masks,
    left_mul,
    right_mul,
    unled_masks,
)
from rexcalc.polyring import Polynomial
from rexcalc.rexgraph import graph_for_word
from rexcalc.symgroup import all_permutations, longest_element, reduced_words

from conftest import element, random_invariant, random_polynomial, random_reduced_word


def x(i, rank=4):
    return Polynomial.variable(i, rank)


def one(rank=4):
    return Polynomial.one(rank)


def test_all_ones_tensor():
    e = from_tensor((1,), (one(), one()), 4)
    assert e == BSElement.generator((1,), 4)


def test_one_tensor_x2_normal_form():
    # 1 (x) x_2 in B_1 splits as pi_0 + pi_1 * x_1 with invariant parts
    e = from_tensor((1,), (one(), x(2)), 4)
    pi0 = e.coeffs[0]
    pi1 = e.coeffs[1]
    assert pi0 == x(1) + x(2)
    assert pi1 == Polynomial.constant(-1, 4)
    assert pi0.is_invariant(1) and pi1.is_invariant(1)
    # reassembling the slid parts recovers the original slot polynomial
    assert pi0 + pi1 * x(1) == x(2)


def test_counterexample_element_normal_form():
    # 1 (x) 1 (x) 1 (x) x_3 (x) 1 (x) 1 over the word 13231
    e = from_tensor((1, 3, 2, 3, 1), (one(), one(), one(), x(3), one(), one()), 4)
    assert e.coeffs == {
        0b00000: x(1) + x(2),
        0b00001: Polynomial.constant(-1, 4),
        0b00010: Polynomial.constant(1, 4),
        0b00100: Polynomial.constant(-1, 4),
    }


def test_slot_count_validated():
    with pytest.raises(ValueError):
        from_tensor((1, 2), (one(), one()), 4)


@pytest.mark.parametrize(
    "word, last, letter",
    [((5,), Polynomial.zero(4), 5), ((1, 7), Polynomial.zero(4), 7), ((5,), one(), 5)],
)
def test_out_of_range_letters_raise_whatever_the_state(word, last, letter):
    # a letter is checked when its split runs, also on a state that is already zero
    slots = [one()] * len(word) + [last]
    with pytest.raises(ValueError, match=f"^generator index {letter} out of range 1..3$"):
        from_tensor(word, slots, 4)


def test_left_mul():
    e = left_mul(x(1), BSElement.generator((1, 2), 4))
    assert e.coeffs == {0: x(1)}


def test_right_mul_by_variable():
    e = right_mul(BSElement.generator((1,), 4), x(1))
    assert e == BSElement.basis((1,), 1, 4)


def test_right_mul_by_invariant_slides_through():
    e = right_mul(BSElement.generator((1,), 4), x(1) + x(2))
    assert e == left_mul(x(1) + x(2), BSElement.generator((1,), 4))


def test_left_and_right_mul_commute():
    rng = random.Random(23)
    for _ in range(100):
        word = rng.choice([(1,), (2, 1), (1, 2, 1), (3, 1)])
        slots = tuple(random_polynomial(rng, 4) for _ in range(len(word) + 1))
        e = from_tensor(word, slots, 4)
        p = random_polynomial(rng, 4)
        q = random_polynomial(rng, 4)
        assert right_mul(left_mul(p, e), q) == left_mul(p, right_mul(e, q))


def test_invariant_sliding_across_boundaries():
    rng = random.Random(29)
    for _ in range(200):
        word = rng.choice([(1,), (2, 1), (1, 2, 1), (1, 3, 2)])
        k = len(word)
        slots = [random_polynomial(rng, 4) for _ in range(k + 1)]
        j = rng.randint(1, k)
        g = random_invariant(rng, 4, word[j - 1])
        shifted_left = list(slots)
        shifted_left[j - 1] = shifted_left[j - 1] * g
        shifted_right = list(slots)
        shifted_right[j] = shifted_right[j] * g
        assert from_tensor(word, shifted_left, 4) == from_tensor(word, shifted_right, 4)


@settings(deadline=None)
@given(st.data())
def test_from_tensor_additive_in_each_slot(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    word = data.draw(st.sampled_from([(1,), (2, 1), (1, 2, 1)]))
    k = len(word)
    slots = [random_polynomial(rng, 4) for _ in range(k + 1)]
    j = data.draw(st.integers(0, k))
    p, q = random_polynomial(rng, 4), random_polynomial(rng, 4)
    combined = list(slots)
    combined[j] = p + q
    first, second = list(slots), list(slots)
    first[j], second[j] = p, q
    assert from_tensor(word, combined, 4) == from_tensor(word, first, 4) + from_tensor(
        word, second, 4
    )


def test_normalization_idempotent():
    rng = random.Random(31)
    for _ in range(100):
        word = rng.choice([(1,), (1, 2, 1), (2, 3, 2), (1, 3)])
        slots = tuple(random_polynomial(rng, 4) for _ in range(len(word) + 1))
        e = from_tensor(word, slots, 4)
        rebuilt = BSElement.zero(word, 4)
        for mask, c in e.coeffs.items():
            rebuilt = rebuilt + from_tensor(word, basis_slots(word, mask, c), 4)
        assert rebuilt == e


def test_basis_slots_are_in_normal_form():
    # a left coefficient times a basis tensor renormalizes to that one term
    rng = random.Random(19)
    for rank in range(2, 6):
        for _ in range(4):
            word = random_reduced_word(rng, rank)
            for mask in range(1 << len(word)):
                c = random_polynomial(rng, rank)
                assert from_tensor(word, basis_slots(word, mask, c), rank) == element(rank, word, {mask: c})


def test_dot_cap_on_generator():
    e = dot_cap(BSElement.generator((1,), 4), 0)
    assert e.word == ()
    assert e.coeffs == {0: one()}


def test_dot_cap_on_basis():
    e = dot_cap(BSElement.basis((1,), 1, 4), 0)
    assert e.word == ()
    assert e.coeffs == {0: x(1)}


def test_dot_cap_position_validated():
    with pytest.raises(ValueError):
        dot_cap(BSElement.generator((1,), 4), 1)


def test_dot_caps_separate_the_two_images():
    # capping both outer factors of B_1 B_3 B_2 B_3 B_1 lands in B_3 B_2 B_3,
    # where x_2 times the all-ones tensor differs from 1 (x) 1 (x) x_3 (x) 1
    word = (1, 3, 2, 3, 1)
    x3_form = from_tensor(word, (one(), one(), one(), x(3), one(), one()), 4)
    x2_form = from_tensor(word, (one(), x(2), one(), one(), one(), one()), 4)
    d_x3 = dot_cap(dot_cap(x3_form, 4), 0)
    d_x2 = dot_cap(dot_cap(x2_form, 4), 0)
    assert d_x3 == from_tensor((3, 2, 3), (one(), one(), x(3), one()), 4)
    assert d_x2 == left_mul(x(2), BSElement.generator((3, 2, 3), 4))
    assert d_x3 != d_x2


def test_basis_degree():
    assert basis_degree(0, 5) == -5
    assert basis_degree(0b00100, 5) == -3
    assert basis_degree(0, 1) == -1


def test_homogeneity_check():
    e = from_tensor((1,), (one(), x(2)), 4)
    assert e.is_homogeneous_of_degree(1)  # degree of 1 (x) x_2 in B_1
    assert not e.is_homogeneous_of_degree(3)


def test_equality_is_canonical():
    a = from_tensor((1, 2), (x(1), one(), one()), 4)
    b = left_mul(x(1), BSElement.generator((1, 2), 4))
    assert a == b and hash(a) == hash(b)


def _slides_into_slot(word, rank):
    """Per slot j, for each mask m with bit j clear: is e_m * x_{word[j]} == e_{m | 1 << j}?"""
    k = len(word)
    return [
        [
            right_mul(BSElement.basis(word, m, rank), x(word[j], rank)) == BSElement.basis(word, m | 1 << j, rank)
            for m in range(1 << k)
            if not m >> j & 1
        ]
        for j in range(k)
    ]


def _short_random_words(seed, rank, count, max_len=8):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        w = random_reduced_word(rng, rank)
        if 2 <= len(w) <= max_len and w not in words:
            words.append(w)
    return words


@pytest.mark.parametrize(
    "words, rank",
    [
        ([w for perm in all_permutations(4) for w in reduced_words(perm)], 4),
        (_short_random_words(5, 5, 6), 5),
        (_short_random_words(6, 6, 4), 6),
    ],
    ids=["every-s4-word", "random-rank-5", "random-rank-6"],
)
def test_generator_masks_match_brute_force_right_multiplication(words, rank):
    # a slot is free exactly when right multiplication by its variable sets
    # its bit on every basis tensor; at any other slot it does so on none
    for word in words:
        slides = _slides_into_slot(word, rank)
        free = sum(1 << j for j, holds in enumerate(slides) if all(holds))
        assert all(all(h) or not any(h) for h in slides), word
        assert free_slots(word) == free, word
        assert generator_masks(word) == tuple(m for m in range(1 << len(word)) if not m & free), word
        assert not word or free >> len(word) - 1 & 1  # the last slot is always free


def test_generator_masks_of_small_words():
    assert generator_masks(()) == (0,)
    assert generator_masks((1,)) == (0,)
    # x_a is moved only by s_a and s_{a-1}
    assert generator_masks((1, 2)) == (0,)  # x_1 slides across the s_2 boundary
    assert generator_masks((2, 1)) == (0, 1)  # x_2 does not slide across s_1
    assert generator_masks((1, 2, 1)) == (0, 1, 2, 3)
    assert free_slots((1, 2, 3, 2, 1)) == 0b10000
    assert free_slots((3, 1, 2)) == 0b110  # x_3 does not slide across s_2


# -- two-sided generators ----------------------------------------------------


def _constant_parts(word, rank):
    """Per variable x_l, per mask m: the constant parts of e_m * x_l by right_mul, as {mask: int}."""
    return [
        [
            {n: p.constant_value() for n, p in right_mul(basis, x(l, rank)).coeffs.items() if p.is_constant()}
            for basis in (BSElement.basis(word, m, rank) for m in range(1 << len(word)))
        ]
        for l in range(1, rank + 1)
    ]


def _rank_over_q(vectors):
    """Rank over Q of integer vectors {mask: int}: sparse elimination with Fractions, rows led by their lowest mask."""
    rows: dict[int, dict[int, Fraction]] = {}
    for v in vectors:
        v = {m: Fraction(c) for m, c in v.items() if c}
        while v:
            low = min(v)
            row = rows.get(low)
            if row is None:
                rows[low] = {m: c / v[low] for m, c in v.items()}
                break
            f = v[low]
            for m, c in row.items():
                v[m] = v.get(m, 0) - f * c
                if not v[m]:
                    del v[m]
    return len(rows)


_TWO_SIDED_WORDS = [(w, 3) for perm in all_permutations(3) for w in reduced_words(perm) if len(w) >= 2] + [
    (w, rank) for rank, seed in ((4, 40), (5, 50)) for w in _short_random_words(seed, rank, 6, max_len=7)
]
_TWO_SIDED_IDS = [f"{rank}-{''.join(map(str, w))}" for w, rank in _TWO_SIDED_WORDS]


@pytest.mark.parametrize("word, rank", _TWO_SIDED_WORDS, ids=_TWO_SIDED_IDS)
def test_constant_right_action_matches_right_mul(word, rank):
    # the letter-by-letter recursion computes no normal form; right_mul does
    assert constant_right_action(word, rank) == _constant_parts(word, rank)


@pytest.mark.parametrize("word, rank", _TWO_SIDED_WORDS, ids=_TWO_SIDED_IDS)
def test_bimodule_generators_are_a_basis_of_the_constants(word, rank):
    # Q (x)_R BS (x)_R Q is Q^(2^k) modulo the constant parts of all e_m * x_l:
    # the generators' basis vectors span it, and no fewer masks could
    size = 1 << len(word)
    relations = [v for xl in _constant_parts(word, rank) for v in xl]
    gens = bimodule_generator_masks(word, rank)
    assert _rank_over_q(relations + [{g: 1} for g in gens]) == size
    assert len(gens) == size - _rank_over_q(relations)
    assert gens[0] == 0 and set(gens) <= set(generator_masks(word))


def test_halved_relations_give_the_generators_of_the_whole_word():
    # the last letter needs no doubling: the prefix's relations under x_l
    # (l not s, s + 1), sigma and pi lead the same masks as every relation
    # of the whole word
    rng = random.Random(7)
    for _ in range(40):
        rank = rng.randint(3, 6)
        word = random_reduced_word(rng, rank)
        relations = [v for xl in constant_right_action(word, rank) for v in xl]
        assert bimodule_generator_masks(word, rank) == unled_masks(relations, 1 << len(word)), word


def test_unled_masks_eliminates_exactly():
    # the single entry takes mask 4 out; 2 e_1 + 3 e_2 and e_1 - e_2 + e_4 then span e_1 and e_2
    assert unled_masks([{4: 1}, {1: 2, 2: 3}, {1: 1, 2: -1, 4: 1}], 8) == (0, 3, 5, 6, 7)
    # a multiple of a row adds nothing
    assert unled_masks([{1: 2, 2: 3}, {1: -4, 2: -6}], 4) == (0, 1, 3)


def test_bimodule_generator_set_sizes_are_pinned():
    words = ("12321", "121321", "1234321", "1213214321")
    sizes = {w: len(bimodule_generator_masks(tuple(map(int, w)), int(max(w)) + 1)) for w in words}
    assert sizes == {"12321": 4, "121321": 6, "1234321": 8, "1213214321": 34}
    rex, conf = graph_for_word(longest_element(5), rank=5)
    reps = [c.representative for c in conf.clouds]
    counts = [len(bimodule_generator_masks(w, 5)) for w in reps]
    assert len(reps) == 62 and sum(counts) == 2_024
    assert all(27 <= c <= 40 for c in counts)
