# Reference implementation for the property tests in test_polyring_oracle.py:
# the tuple-monomial, Fraction-coefficient Polynomial that preceded the packed
# kernel in rexcalc.polyring, kept verbatim below.  Not used by the package.

"""Exact multivariate polynomial arithmetic over the rationals.

Polynomials live in Q[x_1, ..., x_n].  The symmetric group S_n acts by
permuting variables (the simple reflection s_i swaps x_i and x_{i+1}),
the grading puts every variable in degree 2, and the Demazure operator

    d_i(p) = (p - s_i.p) / (x_i - x_{i+1})

extracts the x_i-coefficient of p over the s_i-invariant subring: every
p decomposes uniquely as p = pi_0 + pi_1 * x_i with pi_0, pi_1 both
s_i-invariant, and pi_1 = d_i(p).

Representation is a sparse map from exponent vectors to Fractions, so
every operation is exact; equality of polynomials is decidable and used
as the final verdict throughout the package.

>>> x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
>>> str((x1 + x2) * (x1 - x2))
'x1^2 - x2^2'
>>> str((x1 * x1).demazure(1))
'x1 + x2'
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Union

if TYPE_CHECKING:
    from .symgroup import Permutation

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


def _graded_lex_key(mono: Monomial):
    # graded-lex, descending: higher total degree first, then x1 > x2 > ...
    return (-sum(mono), tuple(-e for e in mono))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("rank", "terms", "_hash")

    def __init__(self, rank: int, terms: Mapping[Monomial, Scalar]):
        if rank < 0:
            raise ValueError(f"rank must be nonnegative, got {rank}")
        clean: dict[Monomial, Fraction] = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c:
                if len(mono) != rank or any(e < 0 for e in mono):
                    raise ValueError(f"bad exponent vector {mono} for rank {rank}")
                clean[mono] = c
        self.rank = rank
        self.terms = clean
        self._hash: int | None = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, rank: int) -> Polynomial:
        return cls(rank, {})

    @classmethod
    def one(cls, rank: int) -> Polynomial:
        return cls.constant(1, rank)

    @classmethod
    def constant(cls, c: Scalar, rank: int) -> Polynomial:
        return cls(rank, {(0,) * rank: Fraction(c)})

    @classmethod
    def variable(cls, i: int, rank: int) -> Polynomial:
        """The variable x_i (1-based)."""
        if not 1 <= i <= rank:
            raise ValueError(f"variable index {i} out of range 1..{rank}")
        mono = tuple(1 if k == i - 1 else 0 for k in range(rank))
        return cls(rank, {mono: Fraction(1)})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other) -> Polynomial | None:
        if isinstance(other, Polynomial):
            if other.rank != self.rank:
                raise ValueError(f"rank mismatch: {self.rank} vs {other.rank}")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(other, self.rank)
        return None

    def __add__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for mono, c in other.terms.items():
            acc = terms.get(mono, 0) + c
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return Polynomial(self.rank, terms)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial(self.rank, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> Polynomial:
        return -(self - other)

    def __mul__(self, other) -> Polynomial:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = tuple(a + b for a, b in zip(m1, m2))
                acc = out.get(mono, 0) + c1 * c2
                if acc:
                    out[mono] = acc
                else:
                    out.pop(mono, None)
        return Polynomial(self.rank, out)

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
            base = base * base
            e >>= 1
        return acc

    # -- predicates and grading --------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(m) == 0 for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return next(iter(self.terms.values()), Fraction(0))

    def degree(self) -> int:
        """Top degree of the grading with deg(x_i) = 2; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(2 * sum(m) for m in self.terms)

    def homogeneous_degree(self) -> int | None:
        """The common degree of all terms, or None if inhomogeneous or zero."""
        degs = {2 * sum(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous_of_degree(self, d: int) -> bool:
        """True for the zero polynomial and for homogeneous polynomials of degree d."""
        return self.is_zero() or self.homogeneous_degree() == d

    # -- symmetric group action --------------------------------------------

    def act(self, perm: "Permutation") -> Polynomial:
        """Apply the variable-permuting action: x_i is sent to x_{perm(i)}."""
        if perm.n != self.rank:
            raise ValueError(f"rank mismatch: permutation of {perm.n}, polynomial rank {self.rank}")
        img = perm.images
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            m2 = [0] * self.rank
            for idx, e in enumerate(mono):
                if e:
                    m2[img[idx] - 1] = e
            out[tuple(m2)] = c
        return Polynomial(self.rank, out)

    def swap(self, i: int) -> Polynomial:
        """Apply the simple reflection s_i, swapping x_i and x_{i+1}."""
        if not 1 <= i <= self.rank - 1:
            raise ValueError(f"generator index {i} out of range 1..{self.rank - 1}")
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            m2 = list(mono)
            m2[i - 1], m2[i] = m2[i], m2[i - 1]
            out[tuple(m2)] = c
        return Polynomial(self.rank, out)

    def is_invariant(self, i: int) -> bool:
        """True iff s_i fixes the polynomial."""
        return self == self.swap(i)

    def demazure(self, i: int) -> Polynomial:
        """The divided difference d_i(p) = (p - s_i.p)/(x_i - x_{i+1}).

        Computed termwise: on x_i^a * x_{i+1}^b * m (with m free of x_i,
        x_{i+1}) the operator yields sign(a-b) * m * sum of the monomials
        x_i^j * x_{i+1}^{a+b-1-j} for j strictly between min and max of
        a, b; the division is always exact.
        """
        if not 1 <= i <= self.rank - 1:
            raise ValueError(f"generator index {i} out of range 1..{self.rank - 1}")
        out: dict[Monomial, Fraction] = {}
        for mono, c in self.terms.items():
            a, b = mono[i - 1], mono[i]
            if a == b:
                continue
            sign = 1 if a > b else -1
            for j in range(min(a, b), max(a, b)):
                m2 = list(mono)
                m2[i - 1], m2[i] = j, a + b - 1 - j
                key = tuple(m2)
                acc = out.get(key, 0) + sign * c
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        return Polynomial(self.rank, out)

    def split(self, i: int) -> tuple[Polynomial, Polynomial]:
        """Decompose p = pi_0 + pi_1 * x_i with both parts s_i-invariant."""
        pi1 = self.demazure(i)
        pi0 = self - pi1 * Polynomial.variable(i, self.rank)
        return pi0, pi1

    # -- canonical form ------------------------------------------------------

    def key(self) -> tuple:
        """Canonical hashable form (terms sorted in graded-lex order)."""
        return tuple((m, self.terms[m]) for m in sorted(self.terms, key=_graded_lex_key))

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
        for mono in sorted(self.terms, key=_graded_lex_key):
            c = self.terms[mono]
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


# -- parsing ----------------------------------------------------------------


class _Parser:
    """Recursive-descent parser for the canonical polynomial syntax.

    Accepts integers, fractions written with /, variables x1..xn, the
    operators + - * / ^ and parentheses.  Adjacency does not multiply;
    products must be written with *.
    """

    def __init__(self, text: str, rank: int):
        self.tokens = self._tokenize(text)
        self.pos = 0
        self.rank = rank

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
            acc = acc * rhs if op == "*" else acc / rhs
        return acc

    def power(self) -> Polynomial:
        base = self.atom()
        while self.peek() == "^":
            self.take()
            exp = self.take()
            if not exp.isdigit():
                raise ValueError(f"bad exponent {exp!r}")
            base = base ** int(exp)
        return base

    def atom(self) -> Polynomial:
        tok = self.take()
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parenthesis")
            return p
        if tok == "-":
            return -self.atom()
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
