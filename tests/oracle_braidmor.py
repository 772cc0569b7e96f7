# Reference implementation for the cross-checks in test_braidmor_oracle.py:
# the local tables and path_morphism of rexcalc.braidmor as they were before
# each window shape, adjacent or distant, was derived once and relabelled,
# and before a run of distant moves became one pending mask permutation.
# Every table is derived directly in the requested window at the requested
# rank, with the package's window rewrite (_express_adjacent_slots,
# _combine) and the same checks; path_morphism starts from the identity and
# relabels the rows of the product for each distant move by its own bit
# swap.  Not used by the package.

from __future__ import annotations

from rexcalc.braidmor import (
    MorphismMatrix,
    _combine,
    _express_adjacent_slots,
    _x,
    edge_matrix,
    move_between,
)
from rexcalc.bsbimod import BSElement, basis_slots, from_tensor
from rexcalc.polyring import Polynomial, row_key
from rexcalc.rexgraph import Path, word_label
from rexcalc.symgroup import DISTANT, UP, Word


def adjacent_table(i: int, kind: str, rank: int) -> tuple[BSElement, ...]:
    # window letters (p, q, p): up moves have q = p + 1, down have q = p - 1
    p, q = (i, i + 1) if kind == UP else (i + 1, i)
    for letter in (p, q):
        if not 1 <= letter <= rank - 1:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
    src: Word = (p, q, p)
    dst: Word = (q, p, q)
    one = Polynomial.one(rank)
    src_gens = (
        BSElement.generator(src, rank),
        from_tensor(src, (one, _x(p, rank) if q == p + 1 else _x(p + 1, rank), one, one), rank),
    )
    if q == p + 1:
        gen1_image = from_tensor(dst, (_x(p, rank) + _x(q, rank), one, one, one), rank) - from_tensor(
            dst, (one, one, one, _x(p + 2, rank)), rank
        )
    else:
        gen1_image = from_tensor(dst, (one, one, one, _x(p, rank) + _x(p + 1, rank)), rank) - from_tensor(
            dst, (_x(p - 1, rank), one, one, one), rank
        )
    dst_gens = (BSElement.generator(dst, rank), gen1_image)
    images = []
    for mask in range(8):
        expr = _express_adjacent_slots(p, q, basis_slots(src, mask, one), rank)
        # re-verify the rewrite in the source window before trusting it
        check = _combine(expr, src_gens)
        if check != BSElement.basis(src, mask, rank):
            raise RuntimeError(f"window rewrite failed for mask {mask} of {word_label(src)}")
        images.append(_combine(expr, dst_gens))
    return tuple(images)


def distant_table(i: int, j: int, rank: int) -> tuple[BSElement, ...]:
    if abs(i - j) < 2:
        raise ValueError(f"letters {i}, {j} are not distant")
    for letter in (i, j):
        if not 1 <= letter <= rank - 1:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
    src: Word = (i, j)
    dst: Word = (j, i)
    one = Polynomial.one(rank)
    images = []
    for mask in range(4):
        # 1 (x) x_i^a (x) x_j^b equals the all-ones tensor times x_i^a x_j^b
        # on the right, since x_i slides across the s_j boundary
        a, b = mask & 1, (mask >> 1) & 1
        mult = (_x(i, rank) ** a) * (_x(j, rank) ** b)
        check = from_tensor(src, (one, one, mult), rank)
        if check != BSElement.basis(src, mask, rank):
            raise RuntimeError(f"window rewrite failed for mask {mask} of {word_label(src)}")
        image = from_tensor(dst, (one, one, mult), rank)
        if image != BSElement.basis(dst, b | a << 1, rank):
            raise RuntimeError(f"distant image of mask {mask} of {word_label(src)} is not its swapped basis tensor")
        images.append(image)
    return tuple(images)


def path_morphism(path: Path, rank: int) -> MorphismMatrix:
    """Ordered product of the edge morphisms along an expanded-graph path.

    An adjacent move multiplies its edge matrix in; a distant move at
    position pos swaps row bits pos and pos + 1 of the product so far.
    """
    words = path.vertices
    acc = MorphismMatrix.identity(words[0], rank)
    for u, v in zip(words, words[1:]):
        move = move_between(u, v)
        if move.kind != DISTANT:
            acc = edge_matrix(move, u, rank).compose(acc)
            continue
        distant_table(move.i, move.j, rank)  # checks the bit swap below
        # row bit pos sits at key bit lo; flip both bits where they differ
        lo = row_key(1 << move.position, rank).bit_length() - 1
        flip = (0, 3 << lo, 3 << lo, 0)
        cols = {c: {k ^ flip[k >> lo & 3]: a for k, a in col.items()} for c, col in acc.cols.items()}
        acc = MorphismMatrix(rank, acc.domain, v, cols)
    return acc
