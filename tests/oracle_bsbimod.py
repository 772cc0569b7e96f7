# Reference implementation for the cross-checks in test_bsbimod_oracle.py:
# the element arithmetic of rexcalc.bsbimod as it was when a BSElement
# stored its coefficients as {mask: Polynomial}, before it stored the
# tagged term map a matrix column is stored in.  Each function takes and
# returns such coefficient maps and adds and multiplies whole polynomials,
# mask by mask, as the earlier methods did.  ``apply`` is the matrix-vector
# product by its definition, entry by entry over MorphismMatrix.column,
# rather than the earlier tag / tagged_image / untag round trip, which
# would share the kernel under test.  Not used by the package.

from __future__ import annotations

from rexcalc.braidmor import MorphismMatrix
from rexcalc.bsbimod import basis_slots
from rexcalc.polyring import Polynomial

Coeffs = dict[int, Polynomial]


def add(a: Coeffs, b: Coeffs) -> Coeffs:
    coeffs = dict(a)
    for mask, c in b.items():
        acc = coeffs.get(mask)
        acc = c if acc is None else acc + c
        if acc.is_zero():
            coeffs.pop(mask, None)
        else:
            coeffs[mask] = acc
    return coeffs


def neg(a: Coeffs) -> Coeffs:
    return {m: -c for m, c in a.items()}


def from_tensor(word, slots, rank: int) -> Coeffs:
    k = len(word)
    state: Coeffs = {0: slots[k]}
    for j in range(k, 0, -1):
        letter = word[j - 1]
        left = slots[j - 1]
        nxt: Coeffs = {}
        for mask, p in state.items():
            if p.is_zero():
                continue
            pi0, pi1 = p.split(letter)
            if not pi0.is_zero():
                nxt[mask] = left * pi0
            if not pi1.is_zero():
                nxt[mask | (1 << (j - 1))] = left * pi1
        state = nxt
    return {m: c for m, c in state.items() if not c.is_zero()}


def left_mul(p: Polynomial, a: Coeffs) -> Coeffs:
    return {m: p * c for m, c in a.items() if not (p * c).is_zero()}


def right_mul(word, a: Coeffs, p: Polynomial, rank: int) -> Coeffs:
    out: Coeffs = {}
    for mask, c in a.items():
        slots = basis_slots(word, mask, c)
        slots[-1] = slots[-1] * p
        out = add(out, from_tensor(word, slots, rank))
    return out


def dot_cap(word, a: Coeffs, factor: int, rank: int) -> tuple[tuple, Coeffs]:
    new_word = tuple(word[:factor]) + tuple(word[factor + 1:])
    out: Coeffs = {}
    for mask, c in a.items():
        slots = basis_slots(word, mask, c)
        merged = slots[:factor] + [slots[factor] * slots[factor + 1]] + slots[factor + 2:]
        out = add(out, from_tensor(new_word, merged, rank))
    return new_word, out


def apply(m: MorphismMatrix, a: Coeffs) -> Coeffs:
    """Row r of the image is the sum over columns c of M[r, c] * a[c]."""
    out: Coeffs = {}
    for c, coeff in a.items():
        out = add(out, {r: entry * coeff for r, entry in m.column(c).items()})
    return out
