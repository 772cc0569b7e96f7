"""Braid-move morphisms between Bott-Samelson bimodules, as exact matrices.

For each braid relation there is a unique degree-0 bimodule morphism
f sending the distinguished generator to the distinguished generator:

  distant, letters i, j with |i-j| >= 2:
      f : B_i B_j -> B_j B_i is determined by f(1t) = 1t alone (writing
      1t for the all-ones tensor);
  adjacent, up, window (i, i+1, i) -> (i+1, i, i+1):
      additionally f(1 (x) x_i (x) 1 (x) 1)
          = (x_i + x_{i+1}) (x) 1 (x) 1 (x) 1  -  1 (x) 1 (x) 1 (x) x_{i+2};
  adjacent, down, window (i, i-1, i) -> (i-1, i, i-1):
      additionally f(1 (x) x_{i+1} (x) 1 (x) 1)
          = 1 (x) 1 (x) 1 (x) (x_i + x_{i+1})  -  x_{i-1} (x) 1 (x) 1 (x) 1.

A local image table records f on every normal-form basis tensor of the
window.  Each basis tensor is first rewritten as a two-sided polynomial
combination of the defining generators, using only (a) sliding of
invariant polynomials across tensor boundaries and (b) the substitutions
x_{i+1} = (x_i + x_{i+1}) - x_i and x_{i+1} = (x_{i+1} + x_{i+2}) - x_{i+2};
the generators are then mapped by the formulas above and the result is
renormalized.  The rewrite is re-verified at table build time by
reassembling the expression in the source window; any mismatch is a
hard error rather than a silent extension.

Every table is derived once per window shape, at the smallest rank that
holds it: up (1, 2, 1) and down (2, 1, 2) at rank 3, distant (1, 3) and
(3, 1) at rank 4.  A letter a brings the variables x_a and x_{a+1}; the
window's variables are the sorted union of those pairs, and the window's
shape puts each letter at its place among them, so (i, i+1, i) has shape
(1, 2, 1) and variables x_i, x_{i+1}, x_{i+2}, and a distant (i, j) with
i < j has shape (1, 3) and variables x_i, x_{i+1}, x_j, x_{j+1}.  The
window's table is its shape's table with x_1, x_2, ... renamed to those
variables (``polyring.relabel``).  The renaming is injective, so it is a
ring monomorphism, and it takes each shape letter's reflection to its
window letter's, so it commutes with every split, product and normal form
of the derivation and its check: the renamed table is the one the window
would derive, term for term.

Whole-word edge morphisms Id (x) f (x) Id act on a stored basis term by
looking up the window mask in the table, multiplying the image's left
coefficient into the slot left of the window, and renormalizing
(``apply_edge``).  The edge matrix is built window-locally from the same
rule.  A basis column splits into prefix bits p (left of the window),
window bits wm and suffix bits.  Renormalization runs right to left, and
every slot right of the window holds 1 or its own letter's variable, so
the suffix bits pass through unchanged and only the prefix is rewritten:
each term (imask, icoeff) of the image of wm contributes the normal form
of the prefix tensor of p with icoeff in its last slot, with imask in the
window.  So the part of a column left of the suffix is computed once per
(p, wm), the prefix normal form once per (p, icoeff), and every suffix
reuses it with shifted row indices.  A distant move has icoeff = 1
throughout, and its matrix is a permutation built without polynomial
arithmetic.

Path morphisms are ordered products of edge morphisms over the normal-form
bases; they are faithful because those bases are free, so path equality
questions reduce to entrywise polynomial equality.  A distant move sends
basis mask m to m with its two window bits swapped, with coefficient 1,
which its shape's derivation verifies, so a run of consecutive distant
moves is one permutation of the mask bits.  ``path_morphism`` keeps the
run pending and builds no edge matrix for it: the next adjacent move's
edge matrix takes the run in by reading each column c from the run's
image of c, and a run that ends the path relabels the rows of the
product once.  Only adjacent moves cost an edge matrix, and all but the
first a product.

A matrix stores each column as one tagged term map (``polyring``: row
and packed monomial in one int key, the coefficient as value), the
``terms`` of its image element, and every product, in ``compose``,
``apply`` and the path search, is taken one column at a time by
``polyring.tagged_image``, where a column holding a single entry 1 only
selects a column.  ``polyring.untag_column`` reads a column as its
entries {row: Polynomial}, as ``BSElement.coeffs`` does.
"""

from __future__ import annotations

from functools import lru_cache

from .bsbimod import BSElement, basis_slots, from_tensor, left_mul, right_mul
from .polyring import Polynomial, Scalar, relabel, row_key, tagged_image
from .rexgraph import CONFLATED, EXPANDED, ConflatedGraph, Path, RexGraph, lift_conflated_path
from .symgroup import DISTANT, BraidMove, Word, braid_moves, word_label


def _x(i: int, rank: int) -> Polynomial:
    return Polynomial.variable(i, rank)


def _express_adjacent_slots(
    p: int, q: int, slots: list[Polynomial], rank: int
) -> list[tuple[Polynomial, int, Polynomial]]:
    """Rewrite a window tensor over (p, q, p) as sum of left * G * right.

    G is generator 0 (the all-ones tensor) or generator 1 (the extra
    defining generator of the adjacent morphism).  The outer slots peel
    off as two-sided multipliers; the middle slots reduce by invariant
    splitting plus the two substitution rules.
    """
    h0, h1, h2, h3 = slots
    out: list[tuple[Polynomial, int, Polynomial]] = []
    pieces: list[tuple[Polynomial, Polynomial]] = []  # (slot-1 content, right multiplier)
    b0, b1 = h2.split(q)
    if not b0.is_zero():
        pieces.append((h1 * b0, h3))
    if not b1.is_zero():
        if q == p + 1:
            # x_q = (x_q + x_{q+1}) - x_{q+1}; the sum slides left across the
            # s_q boundary, the single variable slides right across s_p
            r = q + 1
            pieces.append((h1 * b1 * (_x(q, rank) + _x(r, rank)), h3))
            pieces.append((-(h1 * b1), _x(r, rank) * h3))
        else:
            # q = p - 1: x_q is s_p-invariant and slides right as-is
            pieces.append((h1 * b1, _x(q, rank) * h3))
    for g, rpoly in pieces:
        c0, c1 = g.split(p)
        if not c0.is_zero():
            out.append((h0 * c0, 0, rpoly))
        if not c1.is_zero():
            if q == p + 1:
                out.append((h0 * c1, 1, rpoly))
            else:
                # x_p = (x_p + x_{p+1}) - x_{p+1}; generator 1 carries x_{p+1}
                out.append((h0 * c1 * (_x(p, rank) + _x(p + 1, rank)), 0, rpoly))
                out.append((-(h0 * c1), 1, rpoly))
    return out


def _combine(
    expr: list[tuple[Polynomial, int, Polynomial]],
    gens: tuple[BSElement, ...],
) -> BSElement:
    word = gens[0].word
    rank = gens[0].rank
    acc = BSElement.zero(word, rank)
    for left, g, right in expr:
        acc = acc + left_mul(left, right_mul(gens[g], right))
    return acc


class _RewriteFailed(RuntimeError):
    """A window shape failed its check; ``args[0]`` is the message, with ``{}`` where the window goes."""


@lru_cache(maxsize=None)
def _shape_table(shape: Word) -> tuple[BSElement, ...]:
    """The local table of a window shape, derived and checked at the smallest rank that holds it.

    The shapes are up (1, 2, 1) and down (2, 1, 2) at rank 3 and distant
    (1, 3) and (3, 1) at rank 4.  Raises _RewriteFailed for the first mask
    whose check fails; ``derive_local_table`` names the window.
    """
    rank = max(shape) + 1
    one = Polynomial.one(rank)
    p, q = shape[:2]
    src: Word = shape
    dst: Word = tuple(q if letter == p else p for letter in shape)  # the two letters exchanged
    images = []
    if len(shape) == 2:
        for mask in range(4):
            # 1 (x) x_p^a (x) x_q^b equals the all-ones tensor times x_p^a x_q^b
            # on the right, since x_p slides across the s_q boundary
            a, b = mask & 1, (mask >> 1) & 1
            mult = (_x(p, rank) ** a) * (_x(q, rank) ** b)
            if from_tensor(src, (one, one, mult), rank) != BSElement.basis(src, mask, rank):
                raise _RewriteFailed(f"window rewrite failed for mask {mask} of {{}}")
            # the image must be the basis tensor with the two exponents swapped,
            # coefficient 1: path_morphism applies the move as that bit swap of masks
            image = from_tensor(dst, (one, one, mult), rank)
            if image != BSElement.basis(dst, b | a << 1, rank):
                raise _RewriteFailed(f"distant image of mask {mask} of {{}} is not its swapped basis tensor")
            images.append(image)
        return tuple(images)
    # an adjacent window (p, q, p): up shapes have q = p + 1, down have q = p - 1
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
    for mask in range(8):
        expr = _express_adjacent_slots(p, q, basis_slots(src, mask, one), rank)
        # re-verify the rewrite in the source window before trusting it
        if _combine(expr, src_gens) != BSElement.basis(src, mask, rank):
            raise _RewriteFailed(f"window rewrite failed for mask {mask} of {{}}")
        images.append(_combine(expr, dst_gens))
    return tuple(images)


def _window_table(move: BraidMove, rank: int) -> tuple[list[int], tuple[BSElement, ...]]:
    """The variables of the move's source window, and its shape's table, checked and named by the window."""
    window = move.source_window()
    for letter in window:
        if not 1 <= letter <= rank - 1:
            raise ValueError(f"letter {letter} out of range for rank {rank}")
    variables = sorted({v for letter in window for v in (letter, letter + 1)})
    try:
        return variables, _shape_table(tuple(variables.index(letter) + 1 for letter in window))
    except _RewriteFailed as failed:
        raise RuntimeError(failed.args[0].format(word_label(window))) from None


def derive_local_table(move: BraidMove, rank: int) -> tuple[BSElement, ...]:
    """The local image table realizing one braid move: the images of the
    source window's basis tensors, indexed by window mask.

    It is the table of the window's shape, derived once, with the shape's
    variables renamed to the window's, as the module docstring explains.
    """
    variables, table = _window_table(move, rank)
    target = move.target_window()
    return tuple(BSElement(rank, target, relabel(image.terms, image.rank, variables, rank)) for image in table)


def apply_edge(elem: BSElement, move: BraidMove) -> BSElement:
    """Apply Id (x) f (x) Id for the braid move to a normal-form element."""
    new_word = move.apply(elem.word)
    table = derive_local_table(move, elem.rank)
    pos, m = move.position, move.width
    window = (1 << m) - 1
    out = BSElement.zero(new_word, elem.rank)
    for mask, coeff in elem.coeffs.items():
        for imask, icoeff in table[mask >> pos & window].coeffs.items():
            slots = basis_slots(new_word, mask & ~(window << pos) | imask << pos, coeff)
            # the image's left coefficient crosses the plain tensor-over-R
            # boundary into the slot left of the window
            slots[pos] = slots[pos] * icoeff
            out = out + from_tensor(new_word, slots, elem.rank)
    return out


class MorphismMatrix:
    """A left-R-linear map between normal-form bases, stored column-sparse.

    Column c holds the image of the domain basis tensor with mask c,
    expanded over the codomain basis (rows), as one tagged term map with
    no zero coefficient; a zero column is not stored.  Matrices are
    faithful because the bases are free left-module bases, so equality of
    path morphisms is entrywise polynomial equality.  Columns are shared
    between matrices and never mutated.
    """

    __slots__ = ("rank", "domain", "codomain", "cols")

    def __init__(self, rank: int, domain: Word, codomain: Word, cols: dict[int, dict[int, Scalar]]):
        """Columns given as {column: tagged term map}, with no zero coefficient and no empty column."""
        if len(domain) != len(codomain):
            raise ValueError("braid moves preserve word length")
        self.rank = rank
        self.domain = tuple(domain)
        self.codomain = tuple(codomain)
        self.cols = cols

    @classmethod
    def identity(cls, word: Word, rank: int) -> MorphismMatrix:
        word = tuple(word)
        cols = {c: {row_key(c, rank): 1} for c in range(1 << len(word))}
        return cls(rank, word, word, cols)

    @classmethod
    def for_edge(cls, move: BraidMove, word: Word, rank: int) -> MorphismMatrix:
        """Matrix of apply_edge over all domain basis masks, built window-locally.

        Column bits split into prefix p, window wm and suffix, as the
        module docstring explains; the suffix bits pass through unchanged.
        """
        word = tuple(word)
        codomain = move.apply(word)
        table = derive_local_table(move, rank)
        pos, m = move.position, move.width
        prefix = word[:pos]
        one = Polynomial.one(rank)
        # per window mask: the image's (key of its window rows, left coefficient) pairs
        images = [[(row_key(imask << pos, rank), icoeff) for imask, icoeff in t.coeffs.items()] for t in table]
        renormalized: dict[tuple[int, Polynomial], dict[int, Scalar]] = {}

        def prefix_normal(p: int, coeff: Polynomial) -> dict[int, Scalar]:
            """The tagged normal form of the prefix tensor of p with coeff in its last slot."""
            if coeff.is_one():
                return {row_key(p, rank): 1}  # a basis tensor is already in normal form
            found = renormalized.get((p, coeff))
            if found is None:
                slots = basis_slots(prefix, p, one)
                slots[-1] = slots[-1] * coeff
                found = renormalized[(p, coeff)] = from_tensor(prefix, slots, rank).terms
            return found

        low_mask = (1 << (pos + m)) - 1
        partials: dict[int, dict[int, Scalar]] = {}
        cols = {}
        for c in range(1 << len(word)):
            low, suffix = c & low_mask, c & ~low_mask
            partial = partials.get(low)
            if partial is None:
                p, wm = low & ((1 << pos) - 1), low >> pos
                partial = partials[low] = {
                    k + window: coeff for window, icoeff in images[wm] for k, coeff in prefix_normal(p, icoeff).items()
                }
            offset = row_key(suffix, rank)
            cols[c] = {k + offset: v for k, v in partial.items()} if offset else partial
        return cls(rank, word, codomain, cols)

    def compose(self, other: MorphismMatrix) -> MorphismMatrix:
        """self after other (matrix product self . other), column by column."""
        if other.codomain != self.domain or other.rank != self.rank:
            raise ValueError("composition shape mismatch")
        cols = {
            c: image for c, col in other.cols.items() if (image := tagged_image(self.cols, col.items(), self.rank))
        }
        return MorphismMatrix(self.rank, other.domain, self.codomain, cols)

    def apply(self, elem: BSElement) -> BSElement:
        """Evaluate the morphism on a normal-form element."""
        if elem.word != self.domain or elem.rank != self.rank:
            raise ValueError("element does not live in the domain bimodule")
        return BSElement(self.rank, self.codomain, tagged_image(self.cols, elem.terms.items(), self.rank))

    # no verdict reads key; it stays while perfbench/tracer.py wraps it
    def key(self) -> tuple:
        """Hashable form, built on each call: keys are equal exactly when the matrices are."""
        entries = frozenset((c, k, v) for c, col in self.cols.items() for k, v in col.items())
        return (self.rank, self.domain, self.codomain, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MorphismMatrix):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.domain == other.domain
            and self.codomain == other.codomain
            and self.cols == other.cols
        )

    def __repr__(self) -> str:
        shift = row_key(1, self.rank).bit_length() - 1
        entries = sum(len({k >> shift for k in col}) for col in self.cols.values())
        return f"MorphismMatrix({word_label(self.domain)} -> {word_label(self.codomain)}, {entries} entries)"


# path_morphism builds through this wrapper of for_edge while perfbench/tracer.py wraps it
def edge_matrix(move: BraidMove, word, rank: int) -> MorphismMatrix:
    """Matrix of the edge morphism Id (x) f (x) Id on the word's bimodule, built afresh on each call."""
    return MorphismMatrix.for_edge(move, word, rank)


def move_between(u: Word, v: Word) -> BraidMove:
    """The braid move rewriting u into v (first in canonical order)."""
    for move, w2 in braid_moves(u):
        if w2 == tuple(v):
            return move
    raise ValueError(f"{word_label(u)} and {word_label(v)} do not differ by a single braid move")


def _run_images(slots: list[int]) -> list[int]:
    """images[m]: mask m after a run of distant moves that has moved bit slots[p] to position p."""
    images = [0]
    for p in sorted(range(len(slots)), key=slots.__getitem__):
        images += [m | 1 << p for m in images]
    return images


def path_morphism(path: Path, rank: int) -> MorphismMatrix:
    """Ordered product of the edge morphisms along an expanded-graph path.

    A distant move at position pos sends basis mask m to the mask with
    bits pos and pos + 1 swapped, with coefficient 1 (verified when its
    table is built), so a run of consecutive distant moves is one mask
    permutation s, and no edge matrix is built for it.  The run is kept
    pending.  The next adjacent move's edge matrix E takes it in: column c
    of E after the run is column s(c) of E.  A run that ends the path
    relabels the rows of the product instead.  The first adjacent move's
    edge matrix starts the product, so no identity is multiplied in.
    """
    if path.kind != EXPANDED:
        raise ValueError("path_morphism expects an expanded path")
    words = path.vertices
    acc = None  # the product up to the pending run; None before the first adjacent move
    start = words[0]  # the word the pending run starts from
    unmoved = list(range(len(start)))
    slots = unmoved[:]  # slots[p]: the bit of start the run has moved to position p
    for u, v in zip(words, words[1:]):
        move = move_between(u, v)
        if move.kind == DISTANT:
            _window_table(move, rank)  # its shape's table checks that the move is this bit swap
            pos = move.position
            slots[pos], slots[pos + 1] = slots[pos + 1], slots[pos]
            continue
        edge = edge_matrix(move, u, rank)
        if slots != unmoved:
            cols = {c: col for c, m in enumerate(_run_images(slots)) if (col := edge.cols.get(m)) is not None}
            edge = MorphismMatrix(rank, start, edge.codomain, cols)
            slots = unmoved[:]
        acc = edge if acc is None else edge.compose(acc)
        start = v
    if acc is None:
        acc = MorphismMatrix.identity(words[0], rank)
    if slots == unmoved:
        return acc
    # move every key by the row_key distance from its row to that row's image
    shift = row_key(1, rank).bit_length() - 1
    moves = [row_key(m - r, rank) for r, m in enumerate(_run_images(slots))]
    cols = {c: {k + moves[k >> shift]: a for k, a in col.items()} for c, col in acc.cols.items()}
    return MorphismMatrix(rank, acc.domain, words[-1], cols)


class ConflatedMorphisms:
    """Per-edge matrices of a conflated graph, with path composition.

    Each oriented cloud edge gets a forward and a backward matrix, the
    morphism of that one-step conflated path's lift, whose endpoints are
    the cloud representatives, so conflated paths compose by chaining
    matrices; well-definedness of the conflated path morphism makes this
    agree with lifting the whole path at once.
    """

    def __init__(self, graph: RexGraph, conflated: ConflatedGraph):
        self.graph = graph
        self.conflated = conflated
        self.rank = graph.rank
        self.forward: dict[tuple[Word, Word], MorphismMatrix] = {}
        self.backward: dict[tuple[Word, Word], MorphismMatrix] = {}

        def step(a: Word, b: Word) -> MorphismMatrix:
            lifted = lift_conflated_path(conflated, graph, Path(CONFLATED, (a, b)))
            return path_morphism(lifted, self.rank)

        for e in conflated.edges:
            a, b = e.source.representative, e.target.representative
            self.forward[(a, b)] = step(a, b)
            self.backward[(b, a)] = step(b, a)

    def step_matrix(self, a: Word, b: Word) -> MorphismMatrix:
        """The matrix of the one-step conflated path a -> b; ``ConflatedGraph.link`` refuses a missing edge."""
        _, forward = self.conflated.link(a, b)
        return (self.forward if forward else self.backward)[(a, b)]

    # no verdict reads path_matrix; it stays while perfbench/tracer.py wraps it
    def path_matrix(self, vertices) -> MorphismMatrix:
        vertices = [tuple(v) for v in vertices]
        acc = MorphismMatrix.identity(vertices[0], self.rank)
        for a, b in zip(vertices, vertices[1:]):
            acc = self.step_matrix(a, b).compose(acc)
        return acc
