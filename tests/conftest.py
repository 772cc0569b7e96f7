"""Shared helpers: deterministic random polynomials, words, and elements."""

from __future__ import annotations

import random
from fractions import Fraction

from rexcalc.braidmor import MorphismMatrix
from rexcalc.bsbimod import BSElement
from rexcalc.polyring import Polynomial, tag_column
from rexcalc.symgroup import Permutation, braid_moves


def random_polynomial(
    rng: random.Random,
    rank: int,
    max_terms: int = 4,
    max_exp: int = 2,
    max_coeff: int = 5,
) -> Polynomial:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(rank))
        coeff = Fraction(rng.randint(-max_coeff, max_coeff), rng.randint(1, 3))
        if coeff:
            terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Polynomial(rank, terms)


def element(rank: int, word, coeffs: dict[int, Polynomial]) -> BSElement:
    """The element with the coefficients {mask: Polynomial}, through its stored tagged form."""
    return BSElement(rank, word, tag_column(coeffs, rank))


def matrix(rank: int, domain, codomain, cols: dict[int, dict[int, Polynomial]]) -> MorphismMatrix:
    """The matrix with the columns {column: {row: Polynomial}}, through their stored tagged form."""
    return MorphismMatrix(rank, domain, codomain, {c: t for c, col in cols.items() if (t := tag_column(col, rank))})


def random_invariant(rng: random.Random, rank: int, i: int) -> Polynomial:
    """A random polynomial fixed by the simple reflection s_i."""
    p = random_polynomial(rng, rank)
    return p + p.swap(i)


def random_permutation(rng: random.Random, n: int) -> Permutation:
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(tuple(images))


def random_reduced_word(rng: random.Random, n: int, moves: int = 3):
    """A reduced word of a random element, shuffled by random braid moves."""
    from rexcalc.symgroup import _seed_reduced_word

    word = _seed_reduced_word(random_permutation(rng, n))
    for _ in range(moves):
        options = braid_moves(word)
        if not options:
            break
        _, word = rng.choice(options)
    return word
