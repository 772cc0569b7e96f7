"""Element arithmetic on the stored tagged term map, cross-checked against oracle_bsbimod.

Every operation of rexcalc.bsbimod, and MorphismMatrix.apply, is compared by
``coeffs`` with the {mask: Polynomial} arithmetic that preceded the tagged
form, on seeded random elements over random reduced words of ranks 4 and 5;
``from_tensor`` also on words of rank 6.
"""

from __future__ import annotations

import copy
import pickle
import random

import oracle_bsbimod as oracle
import pytest

from rexcalc.braidmor import apply_edge, edge_matrix
from rexcalc.bsbimod import BSElement, dot_cap, from_tensor, left_mul, right_mul
from rexcalc.polyring import Polynomial
from rexcalc.symgroup import braid_moves

from conftest import random_polynomial, random_reduced_word, tag_column


def small_polynomial(rng: random.Random, rank: int) -> Polynomial:
    """A nonzero polynomial of at most two terms."""
    while not (p := random_polynomial(rng, rank, max_terms=2, max_exp=1, max_coeff=3)):
        pass
    return p


def random_slots(rng: random.Random, word, rank: int) -> list[Polynomial]:
    """Slots that are mostly 1, so that long words stay small."""
    one = Polynomial.one(rank)
    return [small_polynomial(rng, rank) if rng.random() < 0.3 else one for _ in range(len(word) + 1)]


def random_element(rng: random.Random, word, rank: int) -> BSElement:
    """A random element: a pure tensor, or a few random coefficients."""
    if rng.random() < 0.5:
        return from_tensor(word, random_slots(rng, word, rank), rank)
    masks = rng.sample(range(1 << len(word)), k=min(3, 1 << len(word)))
    return BSElement(rank, word, tag_column({m: small_polynomial(rng, rank) for m in masks}, rank))


def cases(seed: int, count: int = 16):
    rng = random.Random(seed)
    for i in range(count):
        rank = 4 + i % 2
        word = random_reduced_word(rng, rank)
        yield rng, word, rank


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_from_tensor_matches_the_oracle(seed):
    for rng, word, rank in cases(seed):
        slots = random_slots(rng, word, rank)
        assert from_tensor(word, slots, rank).coeffs == oracle.from_tensor(word, slots, rank)
    # rank 6, the first word with one zero slot
    rng = random.Random(seed)
    for count in range(4):
        word = random_reduced_word(rng, 6)
        slots = random_slots(rng, word, 6)
        if not count:
            slots[rng.randrange(len(slots))] = Polynomial.zero(6)
        assert from_tensor(word, slots, 6).coeffs == oracle.from_tensor(word, slots, 6)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_sum_difference_and_negation_match_the_oracle(seed):
    for rng, word, rank in cases(seed):
        a, b = random_element(rng, word, rank), random_element(rng, word, rank)
        assert (a + b).coeffs == oracle.add(a.coeffs, b.coeffs)
        assert (-a).coeffs == oracle.neg(a.coeffs)
        assert (a - b).coeffs == oracle.add(a.coeffs, oracle.neg(b.coeffs))
        assert (a - a).terms == {}


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_left_and_right_actions_match_the_oracle(seed):
    for rng, word, rank in cases(seed):
        a, p = random_element(rng, word, rank), small_polynomial(rng, rank)
        assert left_mul(p, a).coeffs == oracle.left_mul(p, a.coeffs)
        assert right_mul(a, p).coeffs == oracle.right_mul(word, a.coeffs, p, rank)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dot_cap_matches_the_oracle(seed):
    for rng, word, rank in cases(seed):
        if not word:
            continue
        a = random_element(rng, word, rank)
        factor = rng.randrange(len(word))
        capped = dot_cap(a, factor)
        assert (capped.word, capped.coeffs) == oracle.dot_cap(word, a.coeffs, factor, rank)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_apply_matches_the_oracle(seed):
    checked = 0
    for rng, word, rank in cases(seed):
        moves = braid_moves(word)
        if not moves:
            continue
        move, _ = rng.choice(moves)
        a = random_element(rng, word, rank)
        matrix = edge_matrix(move, word, rank)
        image = matrix.apply(a)
        assert image.coeffs == oracle.apply(matrix, a.coeffs)
        assert image == apply_edge(a, move)
        checked += 1
    assert checked


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_elements_survive_copy_and_pickle_and_equal_ones_hash_equal(seed):
    for rng, word, rank in cases(seed):
        a, b = random_element(rng, word, rank), random_element(rng, word, rank)
        rebuilt = BSElement(rank, list(word), tag_column(a.coeffs, rank))
        for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a)), rebuilt, a + b - b):
            assert twin == a and hash(twin) == hash(a)
            assert twin.coeffs == a.coeffs and twin.to_json() == a.to_json() and str(twin) == str(a)
