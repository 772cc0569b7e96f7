"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[x_1, ..., x_n].  The symmetric group S_n acts by
permuting variables (the simple reflection s_i swaps x_i and x_{i+1}),
the grading puts every variable in degree 2, and the Demazure operator

    d_i(p) = (p - s_i.p) / (x_i - x_{i+1})

extracts the x_i-coefficient of p over the s_i-invariant subring: every
p decomposes uniquely as p = pi_0 + pi_1 * x_i with pi_0, pi_1 both
s_i-invariant, and pi_1 = d_i(p).

A polynomial is a sparse map from packed monomials to coefficients, so
every operation is exact; equality of polynomials is decidable and used
as the final verdict throughout the package.

- Coefficients are ``int``; a ``Fraction`` enters only through a parsed
  ``/`` or a division by a constant.  The constructor stores an integral
  coefficient as ``int``; the kernels keep the type their arithmetic
  gives, so after rationals cancel a coefficient may be ``Fraction(n,
  1)``, which compares, hashes and prints exactly like ``n``.
- A monomial x_1^e_1 ... x_n^e_n is one ``int`` made of n + 1 fields of
  ``_WIDTH`` bits: the total degree e_1 + ... + e_n in the most significant
  field, then e_1, ..., e_n.  The product of two monomials is the sum of
  their packed values, and the descending order of packed values is the
  graded-lex order used for printing.  The top bit of each field is an
  overflow guard: every exponent is at most the total degree, so a
  product overflows exactly when the guard bit of its degree field is set,
  which raises ``ExponentOverflowError``.

``Polynomial(rank, terms)`` takes exponent tuples and validates them; the
ring operations build their results through the unchecked ``_make``.
``iter_terms`` yields the terms with their exponent tuples.

A vector of polynomials {row: p}, the one stored form of an element
(``BSElement.terms``) and of a matrix or search column, is one tagged term
map: the key is the row shifted above the packed monomial, ``row << (rank
+ 1) * _WIDTH | monomial``, and the value is the coefficient.
``untag_column`` reads one as {row: Polynomial}, and ``row_key`` is the
key of a row at monomial 1, which moves a key down that many rows when
added.
A polynomial's term map is the tagged vector of row 0; ``term_sum`` adds
either kind, ``split_terms`` splits either kind row by row (it is the one
divided-difference loop: ``Polynomial.split`` and ``Polynomial.demazure``
read their results off it), and ``relabel`` renames the variables of
either kind into another rank.  ``tagged_image`` maps a tagged vector
through a matrix of tagged columns in one multiply-accumulate loop of int
additions, with no ``Polynomial`` built per entry; it is the package's
only product: ``Polynomial.__mul__`` is the image of the factor with
fewer terms under the one-column matrix {0: other factor}.

>>> x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
>>> str((x1 + x2) * (x1 - x2))
'x1^2 - x2^2'
>>> str((x1 * x1).demazure(1))
'x1 + x2'
>>> list((3 * x1 * x2 - x2).iter_terms())
[((1, 1), 3), ((0, 1), -1)]
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import or_
from typing import Collection, Iterator, Mapping, Sequence, Union

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]

_WIDTH = 12
_FIELD = (1 << _WIDTH) - 1
MAX_DEGREE = (1 << (_WIDTH - 1)) - 1  # largest total degree a monomial can carry


class ExponentOverflowError(ValueError):
    """A monomial's total degree would exceed MAX_DEGREE."""


def _pack(mono) -> int:
    packed = sum(mono)
    for e in mono:
        packed = (packed << _WIDTH) | e
    return packed


def _unpack(packed: int, rank: int) -> Monomial:
    return tuple((packed >> ((rank - 1 - k) * _WIDTH)) & _FIELD for k in range(rank))


def term_sum(terms: Mapping, other: Mapping, scale: int = 1, shift: int = 0) -> dict[int, Scalar]:
    """terms + scale * (monomial packed as shift) * other, as a new map with no zero coefficient."""
    out = dict(terms)
    for m, c in other.items():
        m += shift
        acc = out.get(m, 0) + scale * c
        if acc:
            out[m] = acc
        else:
            del out[m]
    return out


def split_terms(terms: Mapping[int, Scalar], i: int, rank: int) -> tuple[dict[int, Scalar], dict[int, Scalar]]:
    """The term maps (pi_0, pi_1) of p = pi_0 + pi_1 * x_i, both s_i-invariant, with pi_1 = d_i(p).

    ``terms`` is a polynomial's term map or a tagged one: only the x_i,
    x_{i+1} and degree fields are read and written, and a term that moves
    has degree at least 1, so no borrow reaches the row and each row
    splits on its own.  The divided difference is computed termwise: on
    x_i^a * x_{i+1}^b * m (with m free of x_i, x_{i+1}) it yields
    sign(a-b) * m * sum of the monomials x_i^j * x_{i+1}^{a+b-1-j} for j
    strictly between min and max of a, b; the division is always exact.
    """
    if not 1 <= i <= rank - 1:
        raise ValueError(f"generator index {i} out of range 1..{rank - 1}")
    hi = (rank - i) * _WIDTH
    lo = hi - _WIDTH
    x_hi, x_lo = 1 << hi, 1 << lo
    step = x_hi - x_lo
    deg1 = 1 << rank * _WIDTH
    pi1: dict[int, Scalar] = {}
    get = pi1.get
    for m, c in terms.items():
        a, b = (m >> hi) & _FIELD, (m >> lo) & _FIELD
        if a == b:
            continue
        base = m - a * x_hi - b * x_lo - deg1
        if a < b:
            a, b, c = b, a, -c
        # x_i^b * x_{i+1}^(a-1), then move one degree from x_{i+1} to x_i per step
        mono = base + b * x_hi + (a - 1) * x_lo
        for _ in range(a - b):
            pi1[mono] = get(mono, 0) + c
            mono += step
    if 0 in pi1.values():
        pi1 = {m: c for m, c in pi1.items() if c}
    return term_sum(terms, pi1, -1, deg1 + x_hi), pi1


def _make(rank: int, terms: dict[int, Scalar]) -> Polynomial:
    """Trusted constructor: terms are packed and nonzero."""
    p = object.__new__(Polynomial)
    p.rank = rank
    p.terms = terms
    p._hash = None
    return p


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: Mapping[Monomial, Scalar]):
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        clean: dict[int, Scalar] = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c:
                if len(mono) != rank or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for rank {rank}")
                if sum(mono) > MAX_DEGREE:
                    raise ExponentOverflowError(
                        f"monomial {mono} exceeds the total degree limit {MAX_DEGREE}"
                    )
                clean[_pack(mono)] = c.numerator if c.denominator == 1 else c
        self.rank = rank
        self.terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    @lru_cache(maxsize=None)
    def zero(cls, rank: int) -> Polynomial:
        return cls(rank, {})

    @classmethod
    @lru_cache(maxsize=None)
    def one(cls, rank: int) -> Polynomial:
        return cls.constant(1, rank)

    @classmethod
    def constant(cls, c: Scalar, rank: int) -> Polynomial:
        return cls(rank, {(0,) * rank: c})

    @classmethod
    @lru_cache(maxsize=None)
    def variable(cls, i: int, rank: int) -> Polynomial:
        """The variable x_i (1-based)."""
        if not 1 <= i <= rank:
            raise ValueError(f"variable index {i} out of range 1..{rank}")
        mono = tuple(1 if k == i - 1 else 0 for k in range(rank))
        return cls(rank, {mono: 1})

    def iter_terms(self) -> Iterator[tuple[Monomial, Scalar]]:
        """The (exponent tuple, coefficient) pairs, in graded-lex order."""
        for m in sorted(self.terms, reverse=True):
            yield _unpack(m, self.rank), self.terms[m]

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.rank != self.rank:
                raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.rank)
        return None

    def _plus(self, other, scale: int) -> Polynomial:
        """self + scale * other."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        return _make(self.rank, term_sum(self.terms, other.terms, scale))

    def __add__(self, other) -> Polynomial:
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _make(self.rank, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        return self._plus(other, -1)

    def __rsub__(self, other) -> Polynomial:
        return -(self - other)

    def __mul__(self, other) -> Polynomial:
        if type(other) is not Polynomial or other.rank != self.rank:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        # the term map is the row-0 tagged column: the factor with fewer
        # terms is the column, the other the one-column matrix
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        return _make(self.rank, tagged_image({0: big}, small.items(), self.rank))

    __rmul__ = __mul__

    def __truediv__(self, other) -> Polynomial:
        if isinstance(other, (int, Fraction)) and other != 0:
            return self * (Fraction(1) / Fraction(other))
        if isinstance(other, Polynomial) and other.is_constant() and not other.is_zero():
            return self * (Fraction(1) / other.constant_value())
        raise ValueError("can only divide by a nonzero constant")

    def __pow__(self, e: int) -> Polynomial:
        if e < 0:
            raise ValueError("negative power")
        acc = Polynomial.one(self.rank)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    # -- predicates and grading --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return len(self.terms) == 1 and self.terms.get(0) == 1

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def constant_value(self) -> Scalar:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms.get(0, 0)

    def degree(self) -> int:
        """Top degree of the grading with deg(x_i) = 2; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return 2 * (max(self.terms) >> self.rank * _WIDTH)

    # -- Demazure operators ------------------------------------------------

    def demazure(self, i: int) -> Polynomial:
        """The divided difference d_i(p) = (p - s_i.p)/(x_i - x_{i+1}), the pi_1 of ``split_terms``."""
        return _make(self.rank, split_terms(self.terms, i, self.rank)[1])

    def split(self, i: int) -> tuple[Polynomial, Polynomial]:
        """Decompose p = pi_0 + pi_1 * x_i with both parts s_i-invariant."""
        pi0, pi1 = split_terms(self.terms, i, self.rank)
        return _make(self.rank, pi0), _make(self.rank, pi1)

    # -- canonical form ------------------------------------------------------

    # no verdict reads key; it stays while perfbench/tracer.py wraps it
    def key(self) -> tuple:
        """Canonical hashable form (terms sorted in graded-lex order)."""
        return tuple(self.iter_terms())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other, self.rank)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.rank == other.rank and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.rank, frozenset(self.terms.items())))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for mono, c in self.iter_terms():
            vars_part = "*".join(
                f"x{k + 1}" if e == 1 else f"x{k + 1}^{e}"
                for k, e in enumerate(mono)
                if e
            )
            if not vars_part:
                body = str(abs(c))
            elif abs(c) == 1:
                body = vars_part
            else:
                body = f"{abs(c)}*{vars_part}"
            if not chunks:
                chunks.append(body if c > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"Polynomial({self.rank}, {str(self)!r})"


# -- tagged columns ---------------------------------------------------------


def row_key(row: int, rank: int) -> int:
    """The tagged key of ``row`` at monomial 1; adding it to a key moves the key down ``row`` rows."""
    return row << (rank + 1) * _WIDTH


def untag_column(terms: Mapping[int, Scalar], rank: int) -> dict[int, Polynomial]:
    """The {row: polynomial} column of a tagged term map with no zero coefficient."""
    shift = (rank + 1) * _WIDTH
    low = (1 << shift) - 1
    rows: dict[int, dict[int, Scalar]] = {}
    for k, c in terms.items():
        rows.setdefault(k >> shift, {})[k & low] = c
    return {r: _make(rank, t) for r, t in rows.items()}


def relabel(terms: Mapping[int, Scalar], rank: int, variables: Sequence[int], new_rank: int) -> dict[int, Scalar]:
    """A tagged term map of ``rank`` with x_k renamed x_{variables[k - 1]}, as a term map of ``new_rank``.

    Rows and coefficients are kept.  The renaming must be injective: it is
    then a ring monomorphism, so distinct keys stay distinct.
    """
    shift = (rank + 1) * _WIDTH
    low = (1 << shift) - 1
    fields = [((rank - k) * _WIDTH, (new_rank - v) * _WIDTH) for k, v in enumerate(variables, 1)]
    out = {}
    for key, c in terms.items():
        mono = key & low
        # the row, then the total degree, then each renamed exponent
        new = row_key(key >> shift, new_rank) | mono >> rank * _WIDTH << new_rank * _WIDTH
        for old, to in fields:
            new |= (mono >> old & _FIELD) << to
        out[new] = c
    return out


def tagged_image(
    matrix_cols: Mapping[int, Mapping[int, Scalar]], col_terms: Collection[tuple[int, Scalar]], rank: int
) -> dict[int, Scalar]:
    """Image of a tagged column under a matrix whose columns are tagged term maps.

    The column comes as its (key, coefficient) terms: a term map's
    ``items()``, or the frozenset of them that a search pool stores.
    ``matrix_cols[m]`` is the matrix's column m; a missing column is zero.
    A column term at row m with monomial u times a matrix term with key t
    lands at key t + u: the monomials add inside the low fields and the
    matrix's row rides above them.  A key whose degree-field guard bit is
    set, even one whose coefficient cancels, raises
    ``ExponentOverflowError``; while the guard holds, no carry reaches the
    row field.  A unit column, one term at monomial 1 with coefficient 1,
    only selects a column: that column is returned shared, so no result
    may be mutated.  The result has no zero coefficient.
    """
    shift = (rank + 1) * _WIDTH
    low = (1 << shift) - 1
    if len(col_terms) == 1:
        ((k, c),) = col_terms
        if c == 1 and not k & low:
            return matrix_cols.get(k >> shift, {})
    acc: dict[int, Scalar] = {}
    get = acc.get
    column = matrix_cols.get
    for k, c in col_terms:
        image = column(k >> shift)
        if image is None:
            continue
        mono = k & low
        for t, sc in image.items():
            t += mono
            acc[t] = get(t, 0) + c * sc
    if reduce(or_, acc, 0) & (1 << (shift - 1)):
        raise ExponentOverflowError(f"product exceeds the total degree limit {MAX_DEGREE}")
    if 0 in acc.values():
        acc = {k: c for k, c in acc.items() if c}
    return acc


# -- parsing ----------------------------------------------------------------


# largest total degree (in variables, not in the grading) of a parsed
# polynomial or power; far below MAX_DEGREE so that path morphisms, which
# add at most the word length, cannot overflow the packed fields
MAX_INPUT_DEGREE = 128

# largest number of terms a parsed power may expand to, and of term products
# a parsed product may form: dense powers within the degree limit, such as
# (x1+x2+x3+x4+1)^60, would otherwise expand to hundreds of thousands of terms
MAX_INPUT_TERMS = 10_000

# deepest nesting of parentheses and unary minus signs in parsed input; each
# level costs the parser up to four frames of the default recursion limit 1,000
MAX_INPUT_NESTING = 100


class _Parser:
    """Recursive-descent parser for the canonical polynomial syntax.

    Accepts integers, fractions written with /, variables x1..xn, the
    operators + - * / ^ and parentheses.  Adjacency does not multiply;
    products must be written with *.  A power above MAX_INPUT_DEGREE is
    refused before it is expanded, a product or parenthesized group as
    soon as it is built.  A power that may expand to more than
    MAX_INPUT_TERMS terms, or a product of more than MAX_INPUT_TERMS term
    pairs, is refused before it is expanded, and nesting beyond MAX_INPUT_NESTING as read.
    """

    def __init__(self, text: str, rank: int):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.rank = rank
        self.depth = 0

    @staticmethod
    def _tokenize(text: str) -> list[str]:
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "+-*/^()":
                tokens.append(ch)
                i += 1
            elif ch.isdigit():
                j = i
                while j < len(text) and text[j].isdigit():
                    j += 1
                tokens.append(text[i:j])
                i = j
            elif ch == "x":
                j = i + 1
                while j < len(text) and text[j].isdigit():
                    j += 1
                if j == i + 1:
                    raise ValueError(f"bad variable at {text[i:]!r}")
                tokens.append(text[i:j])
                i = j
            else:
                raise ValueError(f"unexpected character {ch!r} in polynomial")
        return tokens

    @staticmethod
    def bounded(p: Polynomial) -> Polynomial:
        if p.degree() > 2 * MAX_INPUT_DEGREE:
            raise ValueError(f"polynomial exceeds the input degree limit {MAX_INPUT_DEGREE}")
        return p

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        p = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing input at {self.tokens[self.pos:]}")
        return p

    def expr(self) -> Polynomial:
        if self.peek() == "-":
            self.take()
            acc = -self.term()
        else:
            acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            acc = acc + rhs if op == "+" else acc - rhs
        return acc

    def term(self) -> Polynomial:
        acc = self.power()
        while self.peek() in ("*", "/"):
            op = self.take()
            rhs = self.power()
            if op == "/":
                acc = acc / rhs
                continue
            if len(acc.terms) * len(rhs.terms) > MAX_INPUT_TERMS:
                raise ValueError(
                    f"product of {len(acc.terms)} by {len(rhs.terms)} terms exceeds "
                    f"the input term limit {MAX_INPUT_TERMS}"
                )
            acc = self.bounded(acc * rhs)
        return acc

    def power(self) -> Polynomial:
        base = self.atom()
        while self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise ValueError(f"bad exponent {exp!r}")
            e = int(exp)
            if e > MAX_INPUT_DEGREE or max(base.degree(), 0) // 2 * e > MAX_INPUT_DEGREE:
                raise ValueError(f"power ^{exp} exceeds the input degree limit {MAX_INPUT_DEGREE}")
            # at most one term per multiset of e base terms, and per monomial
            # of the result's total degree or below
            terms = min(
                comb(len(base.terms) + e - 1, e) if base.terms else 1,
                comb(max(base.degree(), 0) // 2 * e + self.rank, self.rank),
            )
            if terms > MAX_INPUT_TERMS:
                raise ValueError(
                    f"power ^{exp} of a {len(base.terms)}-term polynomial may expand to "
                    f"{terms} terms, above the input term limit {MAX_INPUT_TERMS}"
                )
            base = base ** e
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok in ("(", "-"):
            self.depth += 1
            if self.depth > MAX_INPUT_NESTING:
                raise ValueError(f"nesting exceeds the input nesting limit {MAX_INPUT_NESTING}")
            p = self.expr() if tok == "(" else -self.atom()
            if tok == "(" and self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            self.depth -= 1
            return self.bounded(p)
        if tok.isdigit():
            return Polynomial.constant(int(tok), self.rank)
        if tok.startswith("x"):
            return Polynomial.variable(int(tok[1:]), self.rank)
        raise ValueError(f"unexpected token {tok!r}")


def parse_polynomial(text: str, rank: int) -> Polynomial:
    """Parse the canonical string form back into a polynomial.

    >>> str(parse_polynomial("x1^2 - x2^2", 3))
    'x1^2 - x2^2'
    """
    return _Parser(text, rank).parse()
