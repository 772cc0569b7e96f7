"""Conjecture-checking harness for path morphisms on conflated graphs.

The central question: do two complete paths with the same endpoints
always induce the same morphism?  The harness answers it exhaustively
up to a path-length bound by a value search: walks are explored as
states (morphism value, visited set), whose value also fixes the start
and the current vertex (its domain and codomain); values are interned
exactly, and equal states are merged, which is sound because they have
identical futures; states wait in one queue in path order, so a state's
first path is its least.  A value is a map of R-bimodules, so by graded
Nakayama it is fixed by its images of any basis tensors that generate
its domain as a bimodule: those whose images span the constants
Q (x)_R BS (x)_R Q.  Only its columns at such a least set of masks
(``bsbimod.bimodule_generator_masks``) are kept.  Values share most of
them, so the columns are interned by content and a value is stored once,
as a record of its generator column ids; a step multiplies each distinct
column once and memoizes the image per (step, column).  A column is kept
once, as the frozenset of the terms of the tagged term map a matrix
stores (row and monomial packed into one int key), which is also its
intern key, so a step is the multiply-accumulate loop of int products
that every matrix product runs (``polyring.tagged_image``), with no
polynomial object built per entry.
A verdict is either Holds or a reproducible counterexample consisting of
two concrete paths plus the least basis column on which their matrices
differ; the witness walks the unit columns one at a time along both
paths, in mask order, through the same column memos.

The same engine, tracking only visits to the source and sink, checks
the refined statement that any two paths through both extremes with
equal endpoints agree.

The remaining checkers reproduce the specific facts at desk scale, each
comparing walks of one store by their value ids: the source-to-sink
morphism identities Z Zb Z = Z, Zb Z Zb = Zb and the idempotency of
Zb Z on longest elements, the down-up-down equals up-down-up law for all
vertex pairs, the small-path equivalence lemmas, the simplification
soundness check, the table of all 24 conflated graphs of S_4 with the
single failing element 12321, and the family of line-graph
counterexamples.  A step matrix builds each column when a walk first
reads it, so a search builds only the step columns its values reach;
whole matrices are built only where an expanded path is evaluated
(``reproduce_counterexample``)."""

from __future__ import annotations

from collections import deque
from functools import lru_cache

from .bsbimod import BSElement, bimodule_generator_masks, dot_cap, from_tensor
from .braidmor import ConflatedMorphisms, path_morphism
from .polyring import Polynomial, Scalar, row_key, tagged_image
from .rexgraph import (
    EXPANDED,
    ConflatedGraph,
    NoDirectSubpathError,
    Path,
    build_conflated,
    build_rex_graph,
    cloud_aliases,
    enumerate_complete_paths,
    oriented_run,
    simplify_path,
    source_sink,
    word_label,
)
from .symgroup import Frozen, Permutation, Word, all_permutations, is_reduced, longest_element, word_to_perm

DEFAULT_BUDGET = 50_000


class BudgetExceededError(RuntimeError):
    """Raised when a search would hold more distinct values than its budget.

    ``_value_search`` is the one place that raises it, and its message
    names the ``--budget`` setting, the path length the search had reached
    and the number of states it had explored.
    """


def _calculus(word: Word, rank: int) -> ConflatedMorphisms:
    """Edge matrices of the element a word spells, over its expanded and conflated graphs."""
    return _element_calculus(word_to_perm(word, rank))


@lru_cache(maxsize=8)
def _element_calculus(perm: Permutation) -> ConflatedMorphisms:
    rex = build_rex_graph(perm)
    return ConflatedMorphisms(rex, build_conflated(rex))


class PathPairWitness(Frozen):
    """Two same-endpoint paths with a basis column separating their matrices."""

    __slots__ = ("start", "end", "path_a", "path_b", "witness_mask", "image_a", "image_b")


class FpcVerdict(Frozen):
    __slots__ = ("element", "bound", "holds", "counterexample")

    def __init__(self, element: Word, bound: int, holds: bool, counterexample: PathPairWitness | None = None):
        self._init(element, bound, holds, counterexample)


class _MatrixPool:
    """Interns the walk values of one calculus by their two-sided generator columns, and memoizes products.

    Every value is a map of R-bimodules.  By graded Nakayama, basis masks
    whose basis tensors span Q (x)_R BS (x)_R Q generate the domain as an
    R (x) R-module, so the value is fixed by its columns at them; only its
    columns at the least such set (``bsbimod.bimodule_generator_masks``,
    cached per word) are stored.  A column is the frozenset of the (key,
    coefficient) terms of a matrix's own tagged term map (row and monomial
    packed into one int key, see ``braidmor.MorphismMatrix``); that one
    object is both its intern key and its stored form, and each distinct
    column, the empty one too, gets an id by its exact content.  A value
    is one record, (domain, codomain, column ids) with the ids of its
    generator columns in mask order, which is also its key: two values
    are equal exactly when their records are.  Extending a value by a step of ``cm``
    maps its column ids through that step's memo of column images, so a
    column shared by many values is multiplied once per step, in one
    multiply-accumulate loop over the tagged terms
    (``polyring.tagged_image``).  That loop reads only the step's columns
    at the rows of the column it multiplies, and the step builds each of
    them on that first read (``braidmor.ColumnsOnRead``) and keeps it, so
    a step column no walk reaches is never built.  ``walk`` extends a
    value step by step, so walks share their prefixes' products.  ``carry`` pushes one column
    along a walk through the same memos, and ``witness`` carries unit
    columns along two, in mask order, up to the first that differs.  The pool
    only interns: a search that must stop at a budget reads
    ``len(values)`` itself.
    """

    def __init__(self, cm: ConflatedMorphisms):
        self.cm = cm
        self.rank = cm.rank
        self.col_ids: dict[frozenset, int] = {}
        self.cols: list[frozenset] = []  # the keys of col_ids, in id order
        self.ids: dict[tuple, int] = {}
        self.values: list[tuple] = []
        self.products: dict[tuple[int, tuple[Word, Word]], int] = {}
        # per step: column id -> id of its image
        self.images: dict[tuple[Word, Word], dict[int, int]] = {}

    def _column_id(self, terms: dict[int, Scalar]) -> int:
        column = frozenset(terms.items())
        found = self.col_ids.get(column)
        if found is None:
            found = self.col_ids[column] = len(self.cols)
            self.cols.append(column)
        return found

    def _intern(self, record: tuple) -> int:
        found = self.ids.get(record)
        if found is None:
            found = self.ids[record] = len(self.values)
            self.values.append(record)
        return found

    def identity(self, word: Word) -> int:
        """The identity of a word: generator mask g maps to the basis tensor g."""
        ids = tuple(self._column_id({row_key(g, self.rank): 1}) for g in bimodule_generator_masks(word, self.rank))
        return self._intern((word, word, ids))

    def _images(self, ids, step: tuple[Word, Word]) -> tuple[Word, tuple[int, ...]]:
        """The codomain of a step, and the ids of its images of the columns ``ids``, through its memo."""
        step_mat = self.cm.step_matrix(*step)
        memo = self.images.setdefault(step, {})
        out = []
        for i in ids:
            j = memo.get(i)
            if j is None:
                j = memo[i] = self._column_id(tagged_image(step_mat.cols, self.cols[i], self.rank))
            out.append(j)
        return step_mat.codomain, tuple(out)

    def extend(self, value: int, step: tuple[Word, Word]) -> int:
        key = (value, step)
        found = self.products.get(key)
        if found is None:
            domain, _, col_ids = self.values[value]
            found = self.products[key] = self._intern((domain, *self._images(col_ids, step)))
        return found

    def walk(self, vertices, value: int | None = None) -> int:
        """``value``, whose codomain is the walk's first vertex, extended by
        each step of the walk; by default the identity there."""
        if value is None:
            value = self.identity(vertices[0])
        for step in zip(vertices, vertices[1:]):
            value = self.extend(value, step)
        return value

    def carry(self, terms: dict[int, Scalar], path) -> tuple[Word, int]:
        """The walk's last vertex, and the id of its image of the tagged column ``terms``, through the step memos."""
        codomain, ids = path[0], (self._column_id(terms),)
        for step in zip(path, path[1:]):
            codomain, ids = self._images(ids, step)
        return codomain, ids[0]

    def witness(self, path_a, path_b) -> tuple[int, BSElement, BSElement]:
        """The least basis mask on which the maps of two walks from one start to one end differ, and both images.

        Each basis mask's unit column is carried along both paths, in increasing mask order.
        """
        for mask in range(1 << len(path_a[0])):
            unit = {row_key(mask, self.rank): 1}
            ends = [self.carry(unit, path) for path in (path_a, path_b)]
            if ends[0][1] != ends[1][1]:
                return mask, *(BSElement(self.rank, codomain, dict(self.cols[i])) for codomain, i in ends)
        raise AssertionError("the walks differ on no basis column")


def _value_search(
    word: Word,
    max_len: int,
    cm: ConflatedMorphisms,
    flag_of,
    full_flags: int,
    budget: int,
) -> FpcVerdict:
    """Breadth-first search comparing morphism values of flagged-complete walks.

    Walks start at every vertex of the conflated graph of ``cm``, in
    ascending order, and run over its links with ``cm``'s step matrices.
    A state is (value id, visited flags): the value's record fixes the
    walk's start (its domain) and current vertex (its codomain).  Each
    unseen state waits with its path in one queue, in path order, until
    it is extended.  ``flag_of`` maps a vertex to the visit bits it
    contributes; a walk with accumulated flags ``full_flags`` is eligible
    and its morphism value joins the group of its (start, end) pair.  The
    first group holding two distinct values yields the counterexample,
    with the lexicographically least representative paths.  The search
    stops early once the queue is empty, and a bound under which no walk
    is eligible is a ValueError, not a vacuous Holds.  Once the pool holds
    more than ``budget`` distinct values the search stops with a
    BudgetExceededError.
    """
    pool = _MatrixPool(cm)
    links = cm.conflated.links
    seen: set[tuple[int, int]] = set()
    # (start, end) -> the first eligible value and its path
    groups: dict[tuple[Word, Word], tuple[int, tuple[Word, ...]]] = {}
    # no sort: level 1 is queued by ascending start, then each parent's children
    # along ascending links, so paths leave in path order and a state's first
    # path is its least
    queue: deque[tuple[tuple[int, int], tuple[Word, ...]]] = deque()

    def admit(state: tuple[int, int], path: tuple[Word, ...]) -> FpcVerdict | None:
        # queue an unseen state; a counterexample once its group gets a second
        # value.  A state comes here right after its value was interned, so
        # this is where the budget is checked, before the state counts.
        if len(pool.values) > budget:
            raise BudgetExceededError(
                f"more than {budget} distinct morphism matrices, the limit set by --budget {budget}; "
                f"the search had reached path length {len(path)} of {max_len} "
                f"and explored {len(seen):,} states; raise the limit to continue"
            )
        if state in seen:
            return None
        seen.add(state)
        queue.append((state, path))
        value, flags = state
        if flags != full_flags:
            return None
        first, first_path = groups.setdefault((path[0], path[-1]), (value, path))
        if first == value:
            return None
        a, b = sorted([first_path, path])
        mask, img_a, img_b = pool.witness(a, b)
        return FpcVerdict(word, max_len, False, PathPairWitness(path[0], path[-1], a, b, mask, img_a, img_b))

    for start in links:
        found = admit((pool.identity(start), flag_of(start)), (start,))
        if found is not None:
            return found
    while queue:
        (value, flags), path = queue.popleft()
        if len(path) >= max_len:
            break  # every state still queued is as long
        v = path[-1]
        for w in links[v]:
            found = admit((pool.extend(value, (v, w)), flags | flag_of(w)), path + (w,))
            if found is not None:
                return found
    if not groups:
        raise ValueError(f"no walk of at most {max_len} vertices is eligible, so no paths were compared")
    return FpcVerdict(word, max_len, True, None)


def check_fpc(word, max_len: int | None, rank: int, budget: int = DEFAULT_BUDGET) -> FpcVerdict:
    """Compare all complete conflated paths up to max_len, grouped by endpoints.

    A max_len of None takes the sweep bound, ``sweep_max_len`` of the
    conflated graph's cloud count; the verdict's bound is the one used.
    """
    word = tuple(word)
    if not is_reduced(word, rank):
        raise ValueError(f"word {word_label(word)} is not reduced")
    cm = _calculus(word, rank)
    conf = cm.conflated
    if max_len is None:
        max_len = sweep_max_len(len(conf.clouds))
    if max_len < len(conf.clouds):
        raise ValueError(f"max_len {max_len} below vertex count {len(conf.clouds)}")
    bit = {r: 1 << i for i, r in enumerate(conf.links)}
    full = (1 << len(bit)) - 1
    return _value_search(word, max_len, cm, bit.__getitem__, full, budget)


def check_refined_conjecture(n: int, max_len: int, budget: int = DEFAULT_BUDGET) -> FpcVerdict:
    """Compare all paths through both source and sink of the longest element of S_n.

    Paths are grouped by endpoints.  When source and sink are one cloud,
    visiting it sets both flags.
    """
    cm, sr, tr = _longest(n)
    return _value_search(longest_element(n), max_len, cm, lambda v: (v == sr) | (v == tr) << 1, 3, budget)


# -- the S_4 counterexample ---------------------------------------------------


class CounterexampleReport(Frozen):
    """Exact reproduction of the two loop morphisms at 13231 separating on x.

    ``dots_a`` and ``dots_b`` are the images under caps on both outer
    factors, in B_3 B_2 B_3.
    """

    __slots__ = ("word", "element", "path_a", "path_b", "image_a", "image_b", "matrices_differ", "dots_a", "dots_b")


COUNTEREXAMPLE_PATH_A = Path(
    EXPANDED,
    (
        (1, 3, 2, 3, 1),
        (3, 1, 2, 3, 1),
        (3, 1, 2, 1, 3),
        (3, 2, 1, 2, 3),
        (3, 1, 2, 1, 3),
        (1, 3, 2, 1, 3),
        (1, 3, 2, 3, 1),
        (1, 2, 3, 2, 1),
        (1, 3, 2, 3, 1),
    ),
)
COUNTEREXAMPLE_PATH_B = Path(
    EXPANDED,
    (
        (1, 3, 2, 3, 1),
        (1, 2, 3, 2, 1),
        (1, 3, 2, 3, 1),
        (3, 1, 2, 3, 1),
        (3, 1, 2, 1, 3),
        (3, 2, 1, 2, 3),
        (3, 1, 2, 1, 3),
        (1, 3, 2, 1, 3),
        (1, 3, 2, 3, 1),
    ),
)


def reproduce_counterexample() -> CounterexampleReport:
    """Evaluate the two complete loops at 13231 on 1 (x) 1 (x) 1 (x) x_3 (x) 1 (x) 1.

    The images are the two pinned tensors, the matrices differ, and
    capping both outer factors separates the images already inside
    B_3 B_2 B_3.
    """
    n = 4
    word = (1, 3, 2, 3, 1)
    one = Polynomial.one(n)
    x3 = Polynomial.variable(3, n)
    x = from_tensor(word, (one, one, one, x3, one, one), n)
    mat_a = path_morphism(COUNTEREXAMPLE_PATH_A, n)
    mat_b = path_morphism(COUNTEREXAMPLE_PATH_B, n)
    image_a = mat_a.apply(x)
    image_b = mat_b.apply(x)
    dots_a = dot_cap(dot_cap(image_a, 4), 0)
    dots_b = dot_cap(dot_cap(image_b, 4), 0)
    return CounterexampleReport(
        word=word,
        element=x,
        path_a=COUNTEREXAMPLE_PATH_A,
        path_b=COUNTEREXAMPLE_PATH_B,
        image_a=image_a,
        image_b=image_b,
        matrices_differ=mat_a != mat_b,
        dots_a=dots_a,
        dots_b=dots_b,
    )


# -- longest-element identities -----------------------------------------------


class ZamReport(Frozen):
    """``zb_z_idempotent`` is (Zb Z)^2 == Zb Z, and ``zb_z_proper`` is Zb Z != identity."""

    __slots__ = ("rank", "z_zb_z_equals_z", "zb_z_zb_equals_zb", "zb_z_idempotent", "zb_z_proper")

    @property
    def all_hold(self) -> bool:
        return self.z_zb_z_equals_z and self.zb_z_zb_equals_zb and self.zb_z_idempotent and self.zb_z_proper


def _longest(n: int) -> tuple[ConflatedMorphisms, Word, Word]:
    """Edge matrices of the longest element of S_n, and the representatives of its source and sink."""
    cm = _calculus(longest_element(n), n)
    s, t = source_sink(cm.conflated)
    return cm, s.representative, t.representative


def check_zam_identities(n: int) -> ZamReport:
    """Verify the source/sink morphism identities on the longest element of S_n.

    Z is the lex-least oriented run from source to sink and Zb the
    lex-least reverse-oriented run back; a product of them is one pool
    walk along the runs in turn, and values compare by their ids.
    """
    cm, sr, tr = _longest(n)
    down, up = oriented_run(cm.conflated, sr, tr, "down"), oriented_run(cm.conflated, tr, sr, "up")
    pool = _MatrixPool(cm)
    z, zb = pool.walk(down), pool.walk(up)
    zbz = pool.walk(up, z)
    return ZamReport(
        rank=n,
        z_zb_z_equals_z=pool.walk(down, zbz) == z,
        zb_z_zb_equals_zb=pool.walk(up, pool.walk(down, zb)) == zb,
        zb_z_idempotent=pool.walk(up, pool.walk(down, zbz)) == zbz,
        zb_z_proper=zbz != pool.walk([sr]),
    )


def check_dud_udu_all(n: int) -> bool:
    """Check the down-up-down equals up-down-up law for every ordered pair of conflated vertices.

    From x to y, DUD runs down to the sink, up to the source and down to
    y; UDU runs up to the source, down to the sink and up to y.  Each x's
    head is walked once and extended by each y's tail in one pool, which
    memoizes every (value, step) product.
    """
    cm, sr, tr = _longest(n)
    conf = cm.conflated
    pool = _MatrixPool(cm)
    reps = sorted(c.representative for c in conf.clouds)
    up_ts, down_st = oriented_run(conf, tr, sr, "up"), oriented_run(conf, sr, tr, "down")
    tails = [(oriented_run(conf, sr, y, "down"), oriented_run(conf, tr, y, "up")) for y in reps]
    for x in reps:
        dud = pool.walk(up_ts, pool.walk(oriented_run(conf, x, tr, "down")))
        udu = pool.walk(down_st, pool.walk(oriented_run(conf, x, sr, "up")))
        for dud_tail, udu_tail in tails:
            if pool.walk(dud_tail, dud) != pool.walk(udu_tail, udu):
                return False
    return True


# -- equivalence lemmas -------------------------------------------------------


class LemmaReport(Frozen):
    __slots__ = ("results",)

    @property
    def all_hold(self) -> bool:
        return all(self.results.values())


def check_equivalence_lemmas(budget: int = DEFAULT_BUDGET) -> LemmaReport:
    """Verify the small-path equivalences by exact morphism equality.

    On the longest element of S_4 the named vertices are the oriented
    cycle s, A, B, C, t down the left half; on 23121 the line is
    s -> c -> t.  Each claimed equivalence compares the ids of two walks
    in one pool, and the bounded exhaustive check, under ``budget`` as in
    ``check_fpc``, confirms the full statement for 23121 and 12312.
    """
    results: dict[str, bool] = {}
    pool = _MatrixPool(_calculus(longest_element(4), 4))
    a, b, c = (
        pool.cm.conflated.cloud(w).representative
        for w in ((2, 1, 2, 3, 2, 1), (2, 1, 3, 2, 3, 1), (2, 3, 2, 1, 2, 3))
    )
    results["w04: [A,B,A,B] == [A,B]"] = pool.walk([a, b, a, b]) == pool.walk([a, b])
    results["w04: [B,A,B,A] == [B,A]"] = pool.walk([b, a, b, a]) == pool.walk([b, a])
    results["w04: [B,C,B,C] == [B,C]"] = pool.walk([b, c, b, c]) == pool.walk([b, c])
    results["w04: [A,B,C,B,A,B,C] == [A,B,C]"] = pool.walk([a, b, c, b, a, b, c]) == pool.walk([a, b, c])

    pool = _MatrixPool(_calculus((2, 3, 1, 2, 1), 4))
    line = cloud_aliases(pool.cm.conflated)
    ss, cc, tt = line["s"], line["c"], line["t"]
    results["23121: P1 == P2"] = pool.walk([ss, cc, tt, cc]) == pool.walk([ss, cc, tt, cc, ss, cc])
    results["23121: Q1 == Q2"] = pool.walk([cc, ss, cc, tt, cc]) == pool.walk([cc, tt, cc, ss, cc])
    results["23121: Q3 == Q1"] = pool.walk([cc, ss, cc, tt, cc, ss, cc]) == pool.walk([cc, ss, cc, tt, cc])
    results["23121: Q4 == Q2"] = pool.walk([cc, tt, cc, ss, cc, tt, cc]) == pool.walk([cc, tt, cc, ss, cc])

    for word in ((2, 3, 1, 2, 1), (1, 2, 3, 1, 2)):
        holds = check_fpc(word, 9, rank=4, budget=budget).holds
        results[f"{word_label(word)}: complete paths agree (max_len 9)"] = holds
    return LemmaReport(results)


# -- the S_4 sweep ------------------------------------------------------------

DOT = "dot"
LINE2 = "line2"
LINE3 = "line3"
CYCLE8 = "cycle8"

# conflated graph shapes of all 24 elements, keyed by the table's label words
S4_TABLE: dict[Word, str] = {
    (): DOT,
    (1,): DOT,
    (2,): DOT,
    (2, 1): DOT,
    (1, 2): DOT,
    (1, 2, 1): LINE2,
    (3,): DOT,
    (3, 1): DOT,
    (3, 2): DOT,
    (3, 2, 1): DOT,
    (3, 1, 2): DOT,
    (3, 1, 2, 1): LINE2,
    (2, 3): DOT,
    (2, 3, 1): DOT,
    (2, 3, 2): LINE2,
    (2, 3, 2, 1): LINE2,
    (2, 3, 1, 2): DOT,
    (2, 3, 1, 2, 1): LINE3,
    (1, 2, 3): DOT,
    (1, 2, 3, 1): LINE2,
    (1, 2, 3, 2): LINE2,
    (1, 2, 3, 2, 1): LINE3,
    (1, 2, 3, 1, 2): LINE3,
    (1, 2, 3, 1, 2, 1): CYCLE8,
}

FAILING_S4_WORD: Word = (1, 2, 3, 2, 1)


def classify_shape(conf: ConflatedGraph) -> str:
    v, e = len(conf.clouds), len(conf.edges)
    if (v, e) == (1, 0):
        return DOT
    if (v, e) == (2, 1):
        return LINE2
    if (v, e) == (3, 2):
        return LINE3
    if (v, e) == (8, 8):
        return CYCLE8
    return f"other({v},{e})"


class SweepRow(Frozen):
    """One element of the S_4 sweep.

    ``element`` is the lexicographically least reduced word of the element,
    ``holds`` says that all compared complete paths agree, and
    ``as_expected`` that the shape is the table's and only 12321 fails.
    """

    __slots__ = ("element", "shape", "expected_shape", "holds", "as_expected")


class SweepReport(Frozen):
    __slots__ = ("rows", "all_expected")


def sweep_max_len(cloud_count: int) -> int:
    return max(9, 2 * cloud_count + 4)


def check_s4_sweep(budget: int = DEFAULT_BUDGET) -> SweepReport:
    """Run the complete-path comparison for every element of S_4, each at its sweep_max_len bound."""
    expected_by_perm = {
        word_to_perm(w, 4): shape for w, shape in S4_TABLE.items()
    }
    failing = word_to_perm(FAILING_S4_WORD, 4)
    rows = []
    for perm in all_permutations(4):
        cm = _element_calculus(perm)
        label = cm.graph.words[0]
        shape, expected_shape = classify_shape(cm.conflated), expected_by_perm[perm]
        holds = check_fpc(label, None, rank=4, budget=budget).holds
        rows.append(
            SweepRow(
                element=label,
                shape=shape,
                expected_shape=expected_shape,
                holds=holds,
                as_expected=shape == expected_shape and holds == (perm != failing),
            )
        )
    return SweepReport(tuple(rows), all(r.as_expected for r in rows))


# -- the family of line counterexamples ---------------------------------------


class FamilyReport(Frozen):
    """The two sweeping paths on the line graph of 1 2 .. (n-1) .. 2 1.

    ``line`` is the cloud representatives from source to sink.
    """

    __slots__ = ("word", "rank", "line", "path_a", "path_b", "morphisms_differ", "witness_mask", "image_a", "image_b")


def family_word(n: int) -> Word:
    """The word 1 2 .. (n-1) .. 2 1 whose conflated graph is a line."""
    return tuple(range(1, n)) + tuple(range(n - 2, 0, -1))


def check_family(n: int) -> FamilyReport:
    """Build the two sweeping paths from the second vertex and compare them."""
    if not 3 <= n <= 6:
        raise ValueError("the family check runs at desk scale, 3 <= n <= 6")
    word = family_word(n)
    cm = _calculus(word, n)
    conf = cm.conflated
    s, t = source_sink(conf)
    reps = tuple(oriented_run(conf, s.representative, t.representative, "down"))
    if len(reps) != len(conf.clouds):
        raise AssertionError("family graph is not a line: its run from source to sink misses a cloud")
    # start at the second vertex; visit the near end first, sweep to the far
    # end and back, against sweeping to the far end first
    path_a = (reps[1], reps[0]) + reps[1:] + tuple(reversed(reps[1:-1]))
    path_b = reps[1:] + tuple(reversed(reps[:-1])) + (reps[1],)
    pool = _MatrixPool(cm)
    value_a, value_b = pool.walk(path_a), pool.walk(path_b)
    differ = value_a != value_b
    mask, img_a, img_b = pool.witness(path_a, path_b) if differ else (None, None, None)
    return FamilyReport(
        word=word,
        rank=n,
        line=reps,
        path_a=path_a,
        path_b=path_b,
        morphisms_differ=differ,
        witness_mask=mask,
        image_a=img_a,
        image_b=img_b,
    )


def family_extra_pair() -> tuple[BSElement, BSElement]:
    """Images of 1 (x) x_2 (x) 1 (x) 1 (x) 1 (x) 1 under the two source-start paths on 12321.

    On its line s - c - t the paths [s,c,t,c,s,c] and [s,c,t,c] give
    distinct morphisms, distinguished already by this single element.
    """
    n = 4
    word = family_word(n)
    cm = _calculus(word, n)
    line = cloud_aliases(cm.conflated)
    sr, c, tr = line["s"], line["c"], line["t"]
    one = Polynomial.one(n)
    elem = from_tensor(
        word, (one, Polynomial.variable(2, n)) + (one,) * (len(word) - 1), n
    )
    pool = _MatrixPool(cm)
    ends = [pool.carry(elem.terms, path) for path in ([sr, c, tr, c, sr, c], [sr, c, tr, c])]
    return tuple(BSElement(n, codomain, dict(pool.cols[i])) for codomain, i in ends)


# -- simplification soundness -------------------------------------------------


def check_simplify_soundness() -> bool:
    """f(simplify(p)) == f(p) for complete paths of at most 10 vertices with a
    direct subpath, on the longest element of S_4."""
    cm = _calculus(longest_element(4), 4)
    conf = cm.conflated
    pool = _MatrixPool(cm)
    for a in conf.links:
        for z in conf.links:
            for path in enumerate_complete_paths(conf, a, z, 10):
                try:
                    simplified = simplify_path(conf, path)
                except NoDirectSubpathError:
                    continue
                if pool.walk(path.vertices) != pool.walk(simplified.vertices):
                    return False
    return True
