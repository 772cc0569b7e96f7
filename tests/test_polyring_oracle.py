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

from conftest import matrix, random_permutation

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
    assert new.homogeneous_degree() == old.homogeneous_degree()
    for c in new.terms.values():
        assert type(c) is int or c.denominator != 1


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
        perm = random_permutation(rng, rank)
        assert_same(p.act(perm), op.act(perm))
        for i in range(1, rank):
            assert_same(p.swap(i), op.swap(i))
            assert_same(p.demazure(i), op.demazure(i))
            (pi0, pi1), (oi0, oi1) = p.split(i), op.split(i)
            assert_same(pi0, oi0)
            assert_same(pi1, oi1)
            assert p.is_invariant(i) == op.is_invariant(i)


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


def test_rational_coefficients_settle_back_to_int():
    half = Polynomial.constant(Fraction(1, 2), 3)
    x1 = Polynomial.variable(1, 3)
    p = half * x1 + half * x1
    assert p == x1
    assert all(type(c) is int for c in p.terms.values())
    assert all(type(c) is int for c in ((x1 / 3) * 3).terms.values())


def random_walk_matrices(rng: random.Random, word, rank: int, count: int):
    """Products of edge matrices along random walks of the expanded graph."""
    graph, _ = graph_for_word(word, rank=rank)
    start = graph.words[0]
    mats = []
    for _ in range(count):
        walk = [start]
        for _ in range(rng.randint(0, 6)):
            walk.append(rng.choice(graph.adjacency[walk[-1]])[0])
        mats.append(path_morphism(Path(EXPANDED, tuple(walk)), rank))
    return mats


@pytest.mark.parametrize("word,rank", [((1, 2, 3, 2, 1), 4), ((1, 3, 2, 3), 4), ((1, 2, 1), 3)])
def test_matrix_key_equality_is_matrix_equality(word, rank):
    rng = random.Random(sum(word))
    mats = random_walk_matrices(rng, word, rank, 40)
    mats.append(MorphismMatrix.identity(mats[0].domain, rank))
    # copies with one entry doubled: same shape and support, different value
    for m in mats[:10]:
        cols = {c: m.column(c) for c in m.cols}
        c = rng.choice(sorted(cols))
        r = rng.choice(sorted(cols[c]))
        cols[c][r] = 2 * cols[c][r]
        mats.append(matrix(rank, m.domain, m.codomain, cols))
    equal_pairs = 0
    for a in mats:
        for b in mats:
            assert (a.key() == b.key()) == (a == b)
            if a == b:
                assert hash(a) == hash(b)
                equal_pairs += a is not b
    assert equal_pairs > 0
