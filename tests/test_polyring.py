"""Exact polynomial arithmetic, Demazure operators and splitting."""

from __future__ import annotations

import ast
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rexcalc import polyring
from rexcalc.polyring import (
    MAX_DEGREE,
    ExponentOverflowError,
    Polynomial,
    parse_polynomial,
    relabel,
    split_terms,
    untag_column,
)

from conftest import random_polynomial, swap, tag_column


def x(i, rank=4):
    return Polynomial.variable(i, rank)


def divide_by_variable_difference(p: Polynomial, i: int) -> Polynomial:
    """Long-division oracle: p / (x_i - x_{i+1}), exact by construction.

    Written only with ring operations so it stays independent of the
    closed-form divided difference it checks.
    """
    rank = p.rank
    # view p as a polynomial in x_i with coefficients in the other variables
    by_deg: dict[int, Polynomial] = {}
    for mono, c in p.iter_terms():
        d = mono[i - 1]
        rest = mono[: i - 1] + (0,) + mono[i:]
        by_deg.setdefault(d, Polynomial.zero(rank))
        by_deg[d] = by_deg[d] + Polynomial(rank, {rest: c})
    if not by_deg:
        return Polynomial.zero(rank)
    top = max(by_deg)
    a = Polynomial.variable(i + 1, rank)
    xi = Polynomial.variable(i, rank)
    quotient = Polynomial.zero(rank)
    carry = Polynomial.zero(rank)  # synthetic-division accumulator
    for d in range(top, 0, -1):
        carry = carry + by_deg.get(d, Polynomial.zero(rank))
        quotient = quotient + carry * xi ** (d - 1)
        carry = carry * a
    remainder = carry + by_deg.get(0, Polynomial.zero(rank))
    assert remainder.is_zero(), "division was not exact"
    return quotient


# -- ring arithmetic -----------------------------------------------------------


def test_additive_inverse():
    assert (x(1) + (-x(1))).is_zero()


def test_product_of_conjugates():
    assert (x(1) + x(2)) * (x(1) - x(2)) == x(1) * x(1) - x(2) * x(2)


def test_scalar_multiples():
    assert 2 * (Fraction(1, 2) * x(3)) == x(3)


def test_scalar_operands_keep_their_results_and_coefficient_types():
    # fractions is imported only once a rational enters; the results, and
    # which coefficients are int and which Fraction, are those of a module
    # that imported it up front
    def terms(p):
        return [(mono, c, type(c)) for mono, c in p.iter_terms()]

    p = 2 * x(1) + 1
    one = Polynomial.one(4)
    assert p != 1 and one == 1 and 1 == one and one == True and one == Fraction(1) and Polynomial.zero(4) == 0
    assert one != 1.0
    half = [((1, 0, 0, 0), Fraction(1), Fraction), ((0, 0, 0, 0), Fraction(1, 2), Fraction)]
    assert terms(p * Fraction(1, 2)) == terms(Fraction(1, 2) * p) == half
    assert terms(p / 3) == [((1, 0, 0, 0), Fraction(2, 3), Fraction), ((0, 0, 0, 0), Fraction(1, 3), Fraction)]
    assert terms(p + True) == [((1, 0, 0, 0), 2, int), ((0, 0, 0, 0), 2, int)]
    parsed = parse_polynomial("1/2*x1", 4)
    assert terms(parsed) == [((1, 0, 0, 0), Fraction(1, 2), Fraction)] and str(parsed) == "1/2*x1"
    given = Polynomial(4, {(0, 0, 0, 0): Fraction(4, 2), (1, 0, 0, 0): True, (0, 1, 0, 0): Fraction(3, 2)})
    assert terms(given) == [((1, 0, 0, 0), 1, int), ((0, 1, 0, 0), Fraction(3, 2), Fraction), ((0, 0, 0, 0), 2, int)]
    for refused in (lambda: p * 1.5, lambda: 1.5 * p, lambda: p + 1.5):
        with pytest.raises(TypeError):
            refused()
    with pytest.raises(ValueError, match="can only divide by a nonzero constant"):
        p / 1.5


def test_rank_mismatch_rejected():
    with pytest.raises(ValueError):
        x(1, 3) + x(1, 4)


def test_power():
    assert x(2) ** 3 == x(2) * x(2) * x(2)
    assert (x(1) ** 0) == Polynomial.one(4)


def operands(rng: random.Random) -> list[Polynomial]:
    """Zero, one, single terms and random polynomials, with int and with Fraction coefficients."""
    ints = Polynomial(4, {tuple(rng.randint(0, 2) for _ in range(4)): rng.choice((-2, 1, 3)) for _ in range(4)})
    return [
        Polynomial.zero(4),
        Polynomial.one(4),
        Polynomial.constant(Fraction(-1, 2), 4),
        3 * x(rng.randint(1, 4)),
        Fraction(2, 3) * x(1) * x(rng.randint(2, 4)),
        ints,
        random_polynomial(rng, 4),
        random_polynomial(rng, 4, max_terms=8),
    ]


def test_results_never_mutate_operands():
    # a product by 1 returns a polynomial that shares the other factor's
    # term map, so no operation may write into the terms of an operand
    rng = random.Random(17)
    one = Polynomial.one(4)
    scalars = [0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    for _ in range(20):
        ps = operands(rng)
        before = [dict(p.terms) for p in ps]
        for p in ps:
            i = rng.randint(1, 3)
            for q in ps + scalars:
                p + q, q + p, p - q, q - p, p * q, q * p
            -p, p ** 0, p ** 1, p ** 3, p / 2, p / Fraction(-2, 3)
            p.split(i), p.demazure(i)
            # chains that start from results sharing p's terms
            for r in (p * one, one * p, p * 1, 1 * p, p + 0, p - 0, p ** 1, p / 1):
                assert r == p
                for q in ps + scalars:
                    r + q, q + r, r - q, q - r, r * q, q * r
                pi0, pi1 = r.split(i)
                assert pi0 + pi1 * x(i) == p
                -r, r ** 2, r.demazure(i), (r * one).split(i)
        assert [p.terms for p in ps] == before


def test_product_at_the_degree_limit():
    assert (x(1) ** 1024 * x(1) ** 1023).degree() == 2 * MAX_DEGREE
    assert ((x(1) ** 1024 + x(2)) * (x(1) ** 1023 - 1)).degree() == 2 * MAX_DEGREE
    with pytest.raises(ExponentOverflowError):
        x(1) ** 1024 * x(1) ** 1024
    with pytest.raises(ExponentOverflowError):
        (x(1) ** 1024 + x(2)) * (x(1) ** 1024 - 1)


# -- Demazure operators ----------------------------------------------------------


def test_demazure_on_small_inputs():
    assert x(1).demazure(1) == Polynomial.one(4)
    assert (x(1) + x(2)).demazure(1).is_zero()


def test_demazure_square_matches_division_oracle():
    # frozen from (x1^2 - x2^2) / (x1 - x2)
    numerator = x(1) * x(1) - swap(x(1) * x(1), 1)
    assert divide_by_variable_difference(numerator, 1) == x(1) + x(2)
    assert (x(1) * x(1)).demazure(1) == x(1) + x(2)


def test_demazure_matches_division_oracle_randomized():
    rng = random.Random(7)
    for _ in range(200):
        p = random_polynomial(rng, 4)
        i = rng.randint(1, 3)
        assert p.demazure(i) == divide_by_variable_difference(p - swap(p, i), i)


def test_demazure_properties_randomized():
    rng = random.Random(13)
    xs = [None] + [x(i) for i in range(1, 5)]
    count = 0
    for _ in range(1000):
        p = random_polynomial(rng, 4)
        i = rng.randint(1, 3)
        d = p.demazure(i)
        assert swap(d, i) == d
        assert swap(p - d * xs[i], i) == p - d * xs[i]
        assert d.demazure(i).is_zero()
        count += 1
    assert count == 1000


@given(st.data())
def test_split_reassembles(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    p = random_polynomial(rng, 4)
    i = data.draw(st.integers(1, 3))
    pi0, pi1 = p.split(i)
    assert swap(pi0, i) == pi0 and swap(pi1, i) == pi1
    assert pi0 + pi1 * x(i) == p


@pytest.mark.parametrize("rank", [3, 4, 5, 6])
def test_split_terms_splits_each_row_of_a_tagged_map(rank):
    # only the x_i, x_{i+1} and degree fields move, so rows split on their own
    rng = random.Random(rank)
    fractions = 0
    for _ in range(10):
        col = {r: random_polynomial(rng, rank, max_exp=3) for r in (0, 1, 6)}
        fractions += sum(type(c) is Fraction for p in col.values() for c in p.terms.values())
        for i in range(1, rank):
            pi0, pi1 = split_terms(tag_column(col, rank), i, rank)
            parts = {r: p.split(i) for r, p in col.items()}
            assert pi0 == tag_column({r: f[0] for r, f in parts.items()}, rank)
            assert pi1 == tag_column({r: f[1] for r, f in parts.items()}, rank)
    assert fractions
    for i in (0, rank):
        with pytest.raises(ValueError, match=f"^generator index {i} out of range 1..{rank - 1}$"):
            split_terms(tag_column(col, rank), i, rank)


# -- grading ---------------------------------------------------------------------


def test_degrees():
    assert x(1).degree() == 2
    assert (x(1) * x(2) + x(3)).degree() == 4
    assert Polynomial.zero(4).degree() == -1


# -- canonical strings and parsing ------------------------------------------------


def test_canonical_string_is_graded_lex():
    p = x(2) + x(1) * x(1) + Polynomial.constant(Fraction(-1, 2), 4)
    assert str(p) == "x1^2 + x2 - 1/2"


def test_parse_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        p = random_polynomial(rng, 4)
        assert parse_polynomial(str(p), 4) == p


def test_parse_inputs():
    assert parse_polynomial("2*(1/2*x3)", 4) == x(3)
    assert parse_polynomial("-x1^2", 4) == -(x(1) * x(1))
    with pytest.raises(ValueError):
        parse_polynomial("x9", 4)
    with pytest.raises(ValueError):
        parse_polynomial("x1 x2", 4)


# -- exponent bounds ----------------------------------------------------------------


def test_degree_overflow_is_a_value_error():
    big = x(1) ** 1500
    with pytest.raises(ExponentOverflowError):
        big * big
    with pytest.raises(ValueError):
        big * x(2) ** 600
    assert (x(1) ** MAX_DEGREE).degree() == 2 * MAX_DEGREE
    with pytest.raises(ExponentOverflowError):
        Polynomial(4, {(MAX_DEGREE, 1, 0, 0): 1})


def test_parse_bounds_degree():
    assert parse_polynomial("x1^128", 4).degree() == 256
    for text in ("x1^99999999", "x1^129", "(x1^100)^2", "x1^100*x2^100", "(x1^100*x1^100)"):
        with pytest.raises(ValueError, match="degree limit"):
            parse_polynomial(text, 4)


def test_parse_bounds_term_count():
    assert len(parse_polynomial("(x1+x2+x3+x4+1)^19", 4).terms) == 8855
    assert len(parse_polynomial("(x1+x2)^128", 2).terms) == 129
    for text in (
        "(x1+x2+x3+x4+1)^60",
        "(x1+x2+x3+x4+1)^20",
        "(x1+x2+x3+x4+1)^10*(x1+x2+x3+x4+1)^9",
    ):
        with pytest.raises(ValueError, match="term limit"):
            parse_polynomial(text, 4)


def test_relabel_renames_variables_and_commutes_with_splits():
    # x_1, x_2, x_3 of rank 3 renamed x_i, x_{i+1}, x_{i+2} of rank 7, on
    # tagged columns of two rows: the renaming is substitution, and s_1 and
    # s_2 become s_i and s_{i+1}
    rng = random.Random(71)

    def renamed(col, i):
        return untag_column(relabel(tag_column(col, 3), 3, (i, i + 1, i + 2), 7), 7)

    for _ in range(40):
        i = rng.randint(1, 5)
        p, q = random_polynomial(rng, 3, max_exp=3), random_polynomial(rng, 3, max_exp=3)
        col = {r: f for r, f in ((0, p), (5, q)) if f}
        want = {
            r: Polynomial(7, {(0,) * (i - 1) + mono + (0,) * (5 - i): c for mono, c in f.iter_terms()})
            for r, f in col.items()
        }
        assert renamed(col, i) == want
        image = renamed({0: p}, i).get(0, Polynomial.zero(7))
        for s in (1, 2):
            assert [renamed({0: f}, i) for f in p.split(s)] == [{0: f} if f else {} for f in image.split(s + i - 1)]
    # a distant shape's x_1, x_2 and x_3, x_4 renamed into two pairs far apart
    p = parse_polynomial("x1^2*x4 - 3*x2*x3 + 1", 4)
    renamed = relabel(tag_column({1: p}, 4), 4, (2, 3, 7, 8), 9)
    assert untag_column(renamed, 9) == {1: parse_polynomial("x2^2*x8 - 3*x3*x7 + 1", 9)}


# -- layering ------------------------------------------------------------------------


def test_polyring_imports_nothing_from_the_package():
    # the polynomial ring is the bottom layer: it reads no other rexcalc module
    with open(polyring.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    modules = [a.name for node in imports if isinstance(node, ast.Import) for a in node.names]
    modules += ["." * node.level + (node.module or "") for node in imports if isinstance(node, ast.ImportFrom)]
    assert "fractions" in modules
    assert [m for m in modules if m.startswith((".", "rexcalc"))] == []
