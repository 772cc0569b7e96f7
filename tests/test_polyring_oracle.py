"""Cross-checks of the packed integer kernel against the tuple/Fraction oracle.

``oracle_polyring.Polynomial`` is the direct implementation the packed
kernel replaced.  Every operation is run on both from the same exponent
vectors and coefficients, at ranks 1-6, with integer and with rational
coefficients, and the results must agree term by term and in print.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from oracle_polyring import Polynomial as OraclePolynomial
from rexcalc import EXPANDED, MorphismMatrix, Path, graph_for_word, path_morphism
from rexcalc.polyring import Polynomial

from conftest import column, matrix, random_permutation, swap

RANKS = range(1, 7)


def random_terms(rng: random.Random, rank: int, rational: bool) -> dict:
    terms = {}
    for _ in range(rng.randint(0, 5)):
        mono = tuple(rng.randint(0, 3) for _ in range(rank))
        c = rng.randint(-4, 4)
        if rational:
            c = Fraction(c, rng.randint(1, 3))
        terms[mono] = terms.get(mono, 0) + c
    return terms


def random_pair(rng: random.Random, rank: int, rational: bool):
    terms = random_terms(rng, rank, rational)
    return Polynomial(rank, terms), OraclePolynomial(rank, terms)


def assert_same(new: Polynomial, old: OraclePolynomial) -> None:
    assert new.rank == old.rank
    assert new.key() == old.key()
    assert list(new.iter_terms()) == list(old.key())
    assert str(new) == str(old)
    assert new.degree() == old.degree()
    # a result keeps the type its arithmetic gives: an integral Fraction left
    # by cancelling equals and hashes like the int the constructor stores
    built = Polynomial(old.rank, dict(old.key()))
    assert new == built and hash(new) == hash(built)


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("rank", RANKS)
def test_ring_operations_match_oracle(rank, rational):
    rng = random.Random(1000 * rank + rational)
    for _ in range(150):
        p, op = random_pair(rng, rank, rational)
        q, oq = random_pair(rng, rank, rational)
        assert_same(p, op)
        assert_same(p + q, op + oq)
        assert_same(p - q, op - oq)
        assert_same(p * q, op * oq)
        assert_same(-p, -op)
        e = rng.randint(0, 3)
        assert_same(p ** e, op ** e)
        k = Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rational else rng.randint(-3, 3)
        assert_same(p * k, op * k)
        assert_same(k + p, k + op)
        if k:
            assert_same(p / k, op / k)


@pytest.mark.parametrize("rational", [False, True], ids=["int", "fraction"])
@pytest.mark.parametrize("rank", RANKS)
def test_group_action_and_demazure_match_oracle(rank, rational):
    rng = random.Random(2000 * rank + rational)
    for _ in range(150):
        p, op = random_pair(rng, rank, rational)
        random_permutation(rng, rank)  # drawn as before, so that the cases stay the same
        for i in range(1, rank):
            # the simple reflection s_i by the tests' own swap, which the
            # Demazure division oracle of test_polyring reads
            assert_same(swap(p, i), op.swap(i))
            assert_same(p.demazure(i), op.demazure(i))
            (pi0, pi1), (oi0, oi1) = p.split(i), op.split(i)
            assert_same(pi0, oi0)
            assert_same(pi1, oi1)


@pytest.mark.parametrize("rank", RANKS)
def test_equality_and_hash_match_oracle(rank):
    rng = random.Random(3000 + rank)
    pairs = [random_pair(rng, rank, rational=rng.random() < 0.5) for _ in range(60)]
    # products in both orders give equal values built along different routes
    pairs += [(p * q, op * oq) for (p, op), (q, oq) in zip(pairs, pairs[1:])]
    pairs += [(q * p, oq * op) for (p, op), (q, oq) in zip(pairs, pairs[1:60])]
    for p, op in pairs:
        for q, oq in pairs:
            assert (p == q) == (op == oq)
            if p == q:
                assert hash(p) == hash(q)
    for p, op in pairs:
        c = rng.randint(-2, 2)
        assert (p == c) == (op == c)


def test_cancelled_rationals_act_like_ints():
    # no result is turned back into int: after cancelling, a coefficient may
    # be Fraction(1, 1), which equals, hashes, keys and prints like 1
    half = Polynomial.constant(Fraction(1, 2), 3)
    x1 = Polynomial.variable(1, 3)
    x2 = Polynomial.variable(2, 3)
    cases = [(x1 / 2) * 2, x1 / 2 + x1 / 2, half * x1 + half * x1, (x1 / 3) * 3, (x1 * x1 / 2 * 2).demazure(1) - x2]
    assert all(type(c) is Fraction for p in cases for c in p.terms.values())
    for p in cases:
        assert p == x1 and hash(p) == hash(x1)
        assert p.key() == x1.key()
        assert str(p) == str(x1) == "x1" and repr(p) == repr(x1)
    # the constructor still stores an integral coefficient as int
    assert all(type(c) is int for c in Polynomial(3, dict(((x1 / 2) * 2).iter_terms())).terms.values())


def random_walk_matrices(rng: random.Random, word, rank: int, count: int):
    """Products of edge matrices along random walks of the expanded graph."""
    graph, _ = graph_for_word(word, rank=rank)
    start = graph.words[0]
    mats = []
    for _ in range(count):
        walk = [start]
        for _ in range(rng.randint(0, 6)):
            walk.append(rng.choice(list(graph.moves(walk[-1])))[0])
        mats.append(path_morphism(Path(EXPANDED, tuple(walk)), rank))
    return mats


@pytest.mark.parametrize("word,rank", [((1, 2, 3, 2, 1), 4), ((1, 3, 2, 3), 4), ((1, 2, 1), 3)])
def test_matrix_key_equality_is_matrix_equality(word, rank):
    rng = random.Random(sum(word))
    mats = random_walk_matrices(rng, word, rank, 40)
    mats.append(MorphismMatrix.identity(mats[0].domain, rank))
    # copies with one entry doubled: same shape and support, different value
    for m in mats[:10]:
        cols = {c: column(m, c) for c in m.cols}
        c = rng.choice(sorted(cols))
        r = rng.choice(sorted(cols[c]))
        cols[c][r] = 2 * cols[c][r]
        mats.append(matrix(rank, m.domain, m.codomain, cols))
    equal_pairs = 0
    for a in mats:
        for b in mats:
            assert (a.key() == b.key()) == (a == b)
            if a == b:
                equal_pairs += a is not b
    assert equal_pairs > 0
