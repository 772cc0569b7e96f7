"""Bott-Samelson bimodule elements in a canonical left-module normal form.

For a word w = (w_1, ..., w_k) the Bott-Samelson bimodule is the tensor
product B_{w_1} (x) ... (x) B_{w_k} over R, where B_s = R (x)_{R^s} R.
Writing out the tensor factors gives k+1 polynomial slots separated by
k boundaries; the boundary at word position j is taken over the
s_{w_j}-invariant subring, so s_{w_j}-invariant polynomials slide across
it freely.

Since R is free of rank 2 over R^{s_i} with basis {1, x_i}, the bimodule
is a free left R-module on the 2^k basis tensors

    1 (x) x_{w_1}^{e_1} (x) ... (x) x_{w_k}^{e_k},    e in {0,1}^k.

A BSElement stores its vector over this basis, indexed by the bitmask e
(bit j-1 set means slot j carries x_{w_j}), as the tagged term map a
matrix stores a column in (``polyring``); ``coeffs`` reads it as {mask:
Polynomial}.  Normalization works right to left on one such tagged map,
whose rows are the bits chosen so far: at word position j every row
splits as pi_0 + pi_1 * x_{w_j} with both parts s_{w_j}-invariant, the
kept x_{w_j} sets bit j - 1 of pi_1's rows, and the invariant parts slide
one slot to the left into a product with that slot.  Normal forms are
unique, so equality is plain map comparison.

The grading convention shifts each factor by 1, so the basis tensor of
mask e in a length-k word sits in degree 2*popcount(e) - k.

A bimodule map is fixed by its images of a set of basis tensors that
generates the bimodule.  ``bimodule_generator_masks`` finds a least such
set, by graded Nakayama: basis masks whose images span the constants
Q (x)_R BS(w) (x)_R Q generate.  Q (x)_R BS(w) is Q^(2^k) on the masks,
and right multiplication by x_l acts on it by the integer matrix X_l of
the constant parts of the e_m * x_l.  The matrices are found one letter
at a time, with no normal form computed: appending letter s at bit j,
write x_l = c * x_s + q with c = d_s(x_l) and q s-invariant, so that

    (e_m (x) 1) * x_l   = c e_{m | 1 << j} + (e_m * q) (x) 1
    (e_m (x) x_s) * x_l = (e_m * (c sigma + q)) (x) x_s - c (e_m * pi) (x) 1

with sigma = x_s + x_{s+1} and pi = x_s x_{s+1}, both s-invariant, and
X_pi = X_s X_{s+1}.  The last letter needs no doubling: BS(w s) (x)_R Q
is BS(w) (x)_{R^s} Q, whose relations are the images of the prefix's
masks under x_l (l not s, s+1), sigma and pi.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from typing import Mapping, Sequence

from .polyring import Polynomial, Scalar, row_key, split_terms, tagged_image, term_sum, untag_column
from .symgroup import Frozen, Word


def basis_slots(word, mask: int, coeff: Polynomial) -> list[Polynomial]:
    """The slots [coeff, x_{w_1}^{e_1}, ..., x_{w_k}^{e_k}] of coeff times basis tensor ``mask``."""
    rank = coeff.rank
    one = Polynomial.one(rank)
    return [coeff] + [Polynomial.variable(a, rank) if mask >> j & 1 else one for j, a in enumerate(word)]


class BSElement(Frozen):
    """An element of the Bott-Samelson bimodule of ``word`` in normal form, as its
    tagged term map ``terms``, with no zero coefficient, never mutated."""

    __slots__ = ("rank", "word", "terms")

    def __init__(self, rank: int, word: Word, terms: Mapping[int, Scalar] | None = None):
        word = tuple(word)
        terms = {} if terms is None else terms
        if terms and not 0 <= min(terms) <= max(terms) < (end := row_key(1 << len(word), rank)):
            bad = next(k for k in terms if not 0 <= k < end)
            raise ValueError(f"mask {bad // row_key(1, rank)} out of range for word of length {len(word)}")
        self._init(rank, word, terms)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, word: Word, rank: int) -> BSElement:
        return cls(rank, word)

    @classmethod
    def generator(cls, word: Word, rank: int) -> BSElement:
        """The distinguished generator 1 (x) 1 (x) ... (x) 1."""
        return cls.basis(word, 0, rank)

    @classmethod
    def basis(cls, word: Word, mask: int, rank: int) -> BSElement:
        return cls(rank, word, {row_key(mask, rank): 1})

    # -- structure -----------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Polynomial]:
        """The coefficients as {mask: Polynomial}, built on each read."""
        return untag_column(self.terms, self.rank)

    def __add__(self, other: BSElement) -> BSElement:
        if self.word != other.word or self.rank != other.rank:
            raise ValueError("cannot add elements of different bimodules")
        return BSElement(self.rank, self.word, term_sum(self.terms, other.terms))

    def __neg__(self) -> BSElement:
        return BSElement(self.rank, self.word, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other: BSElement) -> BSElement:
        return self + (-other)

    def __hash__(self) -> int:
        # Frozen compares the fields; the term map hashes as its items
        return hash((self.rank, self.word, frozenset(self.terms.items())))

    def to_json(self) -> dict:
        coeffs = self.coeffs
        return {
            "word": list(self.word),
            "entries": [
                {"mask": mask, "poly": str(coeffs[mask])}
                for mask in sorted(coeffs)
            ],
        }

    def __str__(self) -> str:
        coeffs = self.coeffs
        if not coeffs:
            return "0"
        k = len(self.word)
        parts = []
        for mask in sorted(coeffs):
            bits = "".join(str((mask >> j) & 1) for j in range(k))
            parts.append(f"({coeffs[mask]})*e[{bits}]")
        return " + ".join(parts)


def from_tensor(word, slots: Sequence[Polynomial], rank: int) -> BSElement:
    """Normal form of the pure tensor slots[0] (x) slots[1] (x) ... (x) slots[k].

    The state is one tagged term map whose rows are the bits chosen so far,
    starting as slots[k] in row 0.  Normalization runs right to left: at
    word position j the whole state splits as pi_0 + pi_1 * x_{w_j} with
    s_{w_j}-invariant parts, the kept x_{w_j} sets row bit j - 1 of pi_1,
    and both parts slide across the boundary, multiplied by slots[j - 1].
    Every split checks its letter, so a letter out of range raises even
    once the state is zero.
    """
    word = tuple(word)
    k = len(word)
    if len(slots) != k + 1:
        raise ValueError(f"need {k + 1} slots for a word of length {k}, got {len(slots)}")
    for p in slots:
        if p.rank != rank:
            raise ValueError("slot rank mismatch")
    state = slots[k].terms
    for j in range(k, 0, -1):
        pi0, pi1 = split_terms(state, word[j - 1], rank)
        state = term_sum(pi0, pi1, shift=row_key(1 << (j - 1), rank))
        state = tagged_image({0: state}, slots[j - 1].terms.items(), rank)
    return BSElement(rank, word, state)


def constant_right_action(word, rank: int) -> list[list[dict[int, int]]]:
    """The matrices X_1, ..., X_rank of right multiplication on Q (x)_R BS(word).

    Entry l - 1 lists, for each mask m, the constant parts of e_m * x_l as
    {mask: int}, found letter by letter by the recursion of the module
    docstring.
    """
    action: list[list[dict[int, int]]] = [[{}] for _ in range(rank)]
    for j, s in enumerate(word):
        bit = 1 << j
        sigma, pi = _sigma_pi(action, s)
        # columns with bit j clear, then set: x_s has c = 1, q = 0; x_{s+1} has
        # c = -1, q = sigma; any other x_l has c = 0, q = x_l
        moved = {
            s: [{m | bit: 1} for m in range(bit)]
            + [{**{m | bit: c for m, c in v.items()}, **{m: -c for m, c in p.items()}} for v, p in zip(sigma, pi)],
            s + 1: [{**v, m | bit: -1} for m, v in enumerate(sigma)] + pi,
        }
        action = [
            moved[l] if l in moved else xl + [{m | bit: c for m, c in v.items()} for v in xl]
            for l, xl in enumerate(action, 1)
        ]
    return action


def _sigma_pi(action: list[list[dict[int, int]]], s: int) -> tuple[list[dict[int, int]], list[dict[int, int]]]:
    """The columns of X_sigma = X_s + X_{s+1} and X_pi = X_s X_{s+1}."""
    xs, xt = action[s - 1], action[s]
    sigma = [_combination(((1, a), (1, b))) for a, b in zip(xs, xt)]
    pi = [_combination((c, xs[m]) for m, c in v.items()) for v in xt]
    return sigma, pi


def _combination(terms) -> dict[int, int]:
    """The sum of c * v over the pairs (c, v) of ``terms``, without zero entries."""
    acc: dict[int, int] = {}
    get = acc.get
    for c, v in terms:
        for m, d in v.items():
            acc[m] = get(m, 0) + c * d
    return {m: c for m, c in acc.items() if c}


@lru_cache(maxsize=None)
def bimodule_generator_masks(word: Word, rank: int) -> tuple[int, ...]:
    """A least set of masks whose basis tensors generate the bimodule, in increasing order.

    The relations of Q (x)_R BS(w s) (x)_R Q are the images of the
    prefix's masks under X_l (l not s, s + 1), X_sigma and X_pi; the masks
    that lead no relation in their span are the generators.  Each has the
    last bit clear, and mask 0 is always one.
    """
    if not word:
        return (0,)
    *prefix, s = word
    action = constant_right_action(prefix, rank)
    relations = [v for l, xl in enumerate(action, 1) if l not in (s, s + 1) for v in xl]
    relations += [v for part in _sigma_pi(action, s) for v in part]
    return unled_masks(relations, 1 << len(prefix))


def unled_masks(vectors, size: int) -> tuple[int, ...]:
    """The masks below ``size`` that are the highest mask of no nonzero vector in the span of ``vectors``.

    The vectors have integer entries.  A single-entry vector takes its
    mask out, and with it that mask's entries of every other vector,
    until no vector is left with a single entry; the rest are reduced by
    exact fraction-free elimination, each row led by its highest mask
    and kept with coprime entries.
    """
    units: set[int] = set()
    rest = [v for v in vectors if v]
    while singles := {m for v in rest if len(v) == 1 for m in v}:
        units |= singles
        rest = [w for v in rest if (w := {m: c for m, c in v.items() if m not in singles})]
    rows: dict[int, dict[int, int]] = {}
    for v in rest:
        while v:
            top = max(v)
            row = rows.get(top)
            if row is None:
                g = gcd(*v.values())
                rows[top] = {m: c // g for m, c in v.items()}
                break
            v = _combination(((row[top], v), (-v[top], row)))
    return tuple(m for m in range(size) if m not in units and m not in rows)


def left_mul(p: Polynomial, e: BSElement) -> BSElement:
    """Left action of R: multiply every normal-form coefficient."""
    if p.rank != e.rank:
        raise ValueError("rank mismatch")
    return BSElement(e.rank, e.word, tagged_image({0: e.terms}, p.terms.items(), e.rank))


def right_mul(e: BSElement, p: Polynomial) -> BSElement:
    """Right action of R: multiply the last slot, then renormalize."""
    if p.rank != e.rank:
        raise ValueError("rank mismatch")
    terms: dict[int, Scalar] = {}
    for mask, c in e.coeffs.items():
        slots = basis_slots(e.word, mask, c)
        slots[-1] = slots[-1] * p
        terms = term_sum(terms, from_tensor(e.word, slots, e.rank).terms)
    return BSElement(e.rank, e.word, terms)


def dot_cap(e: BSElement, factor: int) -> BSElement:
    """Image under the multiplication map on one tensor factor.

    The two slots around word position ``factor`` merge into their
    product; the word loses that letter and the result is renormalized.
    """
    k = len(e.word)
    if not 0 <= factor < k:
        raise ValueError(f"factor {factor} out of range for word of length {k}")
    new_word = e.word[:factor] + e.word[factor + 1:]
    terms: dict[int, Scalar] = {}
    for mask, c in e.coeffs.items():
        slots = basis_slots(e.word, mask, c)
        merged = slots[:factor] + [slots[factor] * slots[factor + 1]] + slots[factor + 2:]
        terms = term_sum(terms, from_tensor(new_word, merged, e.rank).terms)
    return BSElement(e.rank, new_word, terms)
