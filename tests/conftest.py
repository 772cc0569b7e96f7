"""Shared helpers: deterministic random polynomials, words, and elements."""

from __future__ import annotations

import random
from fractions import Fraction

from rexcalc.braidmor import MorphismMatrix
from rexcalc.bsbimod import BSElement
from rexcalc.polyring import Polynomial, Scalar, row_key, untag_column
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


def tag_column(col: dict[int, Polynomial], rank: int) -> dict[int, Scalar]:
    """A column {row: polynomial} as one tagged term map {row_key(row) | monomial: coefficient}."""
    return {row_key(r, rank) | m: c for r, p in col.items() for m, c in p.terms.items()}


def column(mat: MorphismMatrix, c: int) -> dict[int, Polynomial]:
    """Column c of a matrix as {row: polynomial}, empty if it is zero."""
    return untag_column(mat.cols.get(c, {}), mat.rank)


def tagged_degrees(terms, rank: int) -> set[int]:
    """The degrees of a tagged map's terms: twice the total degree of the monomial plus twice the row's popcount.

    A basis tensor of mask e in a word of length k sits in degree
    2 * popcount(e) - k, so an element of that word is homogeneous of
    degree d when the set lies within {d + k}, and a degree-0 matrix's
    column c lies within {2 * popcount(c)}.
    """
    shift = row_key(1, rank).bit_length() - 1
    width = shift // (rank + 1)
    return {2 * (k >> rank * width & (1 << width) - 1) + 2 * (k >> shift).bit_count() for k in terms}


def preserves_degree(mat: MorphismMatrix) -> bool:
    """Whether every entry of a matrix sits in degree 2 * (popcount(column) - popcount(row))."""
    return all(tagged_degrees(col, mat.rank) <= {2 * c.bit_count()} for c, col in mat.cols.items())


def swap(p: Polynomial, i: int) -> Polynomial:
    """p with x_i and x_{i+1} exchanged: the simple reflection s_i acting on it."""
    return Polynomial(p.rank, {m[: i - 1] + (m[i], m[i - 1]) + m[i + 1 :]: c for m, c in p.iter_terms()})


def element(rank: int, word, coeffs: dict[int, Polynomial]) -> BSElement:
    """The element with the coefficients {mask: Polynomial}, through its stored tagged form."""
    return BSElement(rank, word, tag_column(coeffs, rank))


def matrix(rank: int, domain, codomain, cols: dict[int, dict[int, Polynomial]]) -> MorphismMatrix:
    """The matrix with the columns {column: {row: Polynomial}}, through their stored tagged form."""
    return MorphismMatrix(rank, domain, codomain, {c: t for c, col in cols.items() if (t := tag_column(col, rank))})


def random_invariant(rng: random.Random, rank: int, i: int) -> Polynomial:
    """A random polynomial fixed by the simple reflection s_i."""
    p = random_polynomial(rng, rank)
    return p + swap(p, i)


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
