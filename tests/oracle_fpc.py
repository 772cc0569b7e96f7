# Reference implementation for the cross-checks in test_fpc.py and
# test_braidmor.py: the value-search pool that preceded column interning in
# rexcalc.fpc (whole matrices keyed by MorphismMatrix.key(), each product a
# full step matrix times value), kept as it was but for the budget and the
# interface: like the package pool it checks no budget, its matrix list
# is named ``values``, whose length the search compares with the budget, and
# its witness takes the two walks; it serves one calculus and makes
# identities itself.  Also matrix products
# as they were before every product ran through polyring.tagged_image:
# compose as a plain function of the two factors, and column_image for one
# column.  Both read a matrix's columns as {row: Polynomial} maps
# (MorphismMatrix.column) and multiply and add the entries with the seed
# kernel oracle_polyring.Polynomial, converting through iter_terms, so they
# share no product code with the package (whose Polynomial.__mul__ is
# polyring.tagged_image too); the pool calls compose in place of the
# method.  Also the whole-matrix checks that preceded the pool walks of
# rexcalc.fpc: the source/sink morphisms Z and Zb and their identities as
# products of whole matrices, the per-vertex path halves of DUD and UDU
# (dud_udu_pairs) and the per-pair matrices, each rebuilding all three runs
# of one pair; the value-search pool that preceded two-sided generator
# columns in rexcalc.fpc (RightGeneratorPool: a value stored by its columns
# at the right-generator masks of bsbimod.generator_masks, with the
# witness read off two values), a value of it rebuilt as its whole matrix
# (rebuild), and the witness read off two whole matrices column by column.
# Also path_morphism as it was before distant moves became row-bit swaps:
# every move's edge matrix built and multiplied in, adjacent or distant.
# Not used by the package.

from __future__ import annotations

from functools import lru_cache

from rexcalc.braidmor import ConflatedMorphisms, MorphismMatrix, edge_matrix, move_between
from rexcalc.bsbimod import BSElement, free_slots, generator_masks, right_mul
from rexcalc.fpc import ZamReport, _longest
from rexcalc.rexgraph import Cloud, ConflatedGraph, Path, oriented_run
from rexcalc.polyring import Polynomial, Scalar, row_key, tag_column, tagged_image
from rexcalc.symgroup import Word

from oracle_polyring import Polynomial as SeedPolynomial


# conversions and entry products repeat across a search; caching them keeps
# the oracle's cost down without sharing any arithmetic with the package
@lru_cache(maxsize=1 << 16)
def _seed(p: Polynomial) -> SeedPolynomial:
    return SeedPolynomial(p.rank, dict(p.iter_terms()))


@lru_cache(maxsize=1 << 16)
def _times(a: Polynomial, b: Polynomial) -> SeedPolynomial:
    return _seed(a) * _seed(b)


@lru_cache(maxsize=1 << 16)
def _unseed(p: SeedPolynomial) -> Polynomial:
    return Polynomial(p.rank, p.terms)


def _package(col: dict[int, SeedPolynomial]) -> dict[int, Polynomial]:
    return {r: _unseed(p) for r, p in col.items()}


def _accumulate(acc: dict[int, SeedPolynomial], r: int, term: SeedPolynomial) -> None:
    """acc[r] += term, dropping the row if it cancels."""
    cur = acc.get(r)
    if cur is None:
        acc[r] = term
    elif (total := cur + term).is_zero():
        del acc[r]
    else:
        acc[r] = total


def column_image(self: MorphismMatrix, col: dict[int, Polynomial]) -> dict[int, Polynomial]:
    """Image under self of one {row: Polynomial} column of a right factor, empty if it is zero.

    Column c of self . other is column_image(self, other.column(c)).
    """
    acc: dict[int, SeedPolynomial] = {}
    for m, pmc in col.items():
        for r, prm in self.column(m).items():
            _accumulate(acc, r, _times(prm, pmc))
    return _package(acc)


def compose(self: MorphismMatrix, other: MorphismMatrix) -> MorphismMatrix:
    """self after other (matrix product self . other).

    Unit columns, which make up distant edges and the identity, only
    reindex: no polynomial is multiplied for them on either side.
    """
    if other.codomain != self.domain or other.rank != self.rank:
        raise ValueError("composition shape mismatch")
    mine = {m: self.column(m) for m in self.cols}
    units = {m: r for m, col in mine.items() if len(col) == 1 for r, p in col.items() if p.is_one()}
    cols: dict[int, dict[int, Polynomial]] = {}
    for c in other.cols:
        col = other.column(c)
        if len(col) == 1:
            ((m, pmc),) = col.items()
            if pmc.is_one():
                if m in mine:
                    cols[c] = mine[m]
                continue
        acc: dict[int, SeedPolynomial] = {}
        for m, pmc in col.items():
            r = units.get(m)
            if r is not None:
                _accumulate(acc, r, _seed(pmc))
            else:
                for r, prm in mine.get(m, {}).items():
                    _accumulate(acc, r, _times(prm, pmc))
        if acc:
            cols[c] = _package(acc)
    tagged = {c: tag_column(col, self.rank) for c, col in cols.items()}
    return MorphismMatrix(self.rank, other.domain, self.codomain, tagged)


def path_morphism(path: Path, rank: int) -> MorphismMatrix:
    """Ordered product of the edge matrices along an expanded-graph path, one product per move."""
    words = path.vertices
    acc = MorphismMatrix.identity(words[0], rank)
    for u, v in zip(words, words[1:]):
        acc = edge_matrix(move_between(u, v), u, rank).compose(acc)
    return acc


class _MatrixPool:
    """Interns matrices by value and caches products with the step matrices of one calculus."""

    def __init__(self, cm: ConflatedMorphisms):
        self.cm = cm
        self.rank = cm.rank
        self.ids: dict[tuple, int] = {}
        self.values: list[MorphismMatrix] = []
        self.products: dict[tuple[int, tuple[Word, Word]], int] = {}

    def _intern(self, m: MorphismMatrix) -> int:
        key = m.key()
        found = self.ids.get(key)
        if found is not None:
            return found
        self.ids[key] = len(self.values)
        self.values.append(m)
        return len(self.values) - 1

    def identity(self, word: Word) -> int:
        return self._intern(MorphismMatrix.identity(word, self.rank))

    def extend(self, mat_id: int, step: tuple[Word, Word]) -> int:
        key = (mat_id, step)
        found = self.products.get(key)
        if found is None:
            found = self._intern(compose(self.cm.step_matrix(*step), self.values[mat_id]))
            self.products[key] = found
        return found

    def witness(self, path_a, path_b) -> tuple[int, BSElement, BSElement]:
        """The least differing column of the whole matrices of two walks, built apart from the pool."""
        return column_witness(self.cm.path_matrix(path_a), self.cm.path_matrix(path_b))


class RightGeneratorPool:
    """Interns walk values by their columns at the right-generator masks of their domain.

    Every value is a bimodule map, so its columns at the masks of
    ``bsbimod.generator_masks`` fix it: any other column is one of them
    times variables on the right.  A column is the frozenset of its tagged
    terms and gets an id by content; a value is the record (domain,
    codomain, column ids), which is also its key, and a step maps a
    value's column ids through its memo of column images.
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
        ids = tuple(self._column_id({row_key(g, self.rank): 1}) for g in generator_masks(word))
        return self._intern((word, word, ids))

    def extend(self, value: int, step: tuple[Word, Word]) -> int:
        key = (value, step)
        found = self.products.get(key)
        if found is None:
            step_mat = self.cm.step_matrix(*step)
            memo = self.images.setdefault(step, {})
            domain, _, col_ids = self.values[value]
            ids = []
            for i in col_ids:
                j = memo.get(i)
                if j is None:
                    j = memo[i] = self._column_id(tagged_image(step_mat.cols, self.cols[i], self.rank))
                ids.append(j)
            found = self.products[key] = self._intern((domain, step_mat.codomain, tuple(ids)))
        return found

    def walk(self, vertices, value: int | None = None) -> int:
        if value is None:
            value = self.identity(vertices[0])
        for step in zip(vertices, vertices[1:]):
            value = self.extend(value, step)
        return value

    def witness(self, a: int, b: int) -> tuple[int, BSElement, BSElement]:
        """The least basis mask on which two values of one shape differ, and their images of it."""
        domain, codomain, ids_a = self.values[a]
        for mask, i, j in zip(generator_masks(domain), ids_a, self.values[b][2]):
            if i != j:
                return mask, *(BSElement(self.rank, codomain, dict(self.cols[k])) for k in (i, j))
        raise AssertionError("values differ but no generator column does")


@lru_cache(maxsize=None)
def _right_mul_columns(word: Word, letter: int, rank: int) -> dict[int, dict]:
    """Tagged columns of right multiplication by x_letter on the basis of a word."""
    x = Polynomial.variable(letter, rank)
    return {m: tag_column(right_mul(BSElement.basis(word, m, rank), x).coeffs, rank) for m in range(1 << len(word))}


def rebuild(pool: RightGeneratorPool, value: int) -> MorphismMatrix:
    """A value's whole matrix: a column whose mask sets free bits is the
    generator column below it times their variables, on the right."""
    domain, codomain, ids = pool.values[value]
    rank = pool.rank
    free = free_slots(domain)
    stored = iter(ids)
    cols = {}
    for c in range(1 << len(domain)):
        if free_bits := c & free:
            j = (free_bits & -free_bits).bit_length() - 1  # the lowest free bit of c
            col = tagged_image(_right_mul_columns(codomain, domain[j], rank), cols.get(c ^ 1 << j, {}).items(), rank)
        else:
            col = dict(pool.cols[next(stored)])
        if col:
            cols[c] = col
    return MorphismMatrix(rank, domain, codomain, cols)


def column_witness(a: MorphismMatrix, b: MorphismMatrix) -> tuple[int, BSElement, BSElement]:
    """The least mask whose columns differ, over every column of two whole matrices."""
    for c in sorted(set(a.cols) | set(b.cols)):
        if a.cols.get(c) != b.cols.get(c):
            return c, BSElement(a.rank, a.codomain, a.cols.get(c, {})), BSElement(b.rank, b.codomain, b.cols.get(c, {}))
    raise AssertionError("matrices differ but no column does")


def _zam_runs(n: int):
    """Conflated graph of the longest element of S_n, the representatives of
    its source and sink, and the matrix of the lex-least oriented run
    between two vertices."""
    cm, sr, tr = _longest(n)

    def run(x: Word, y: Word, direction: str) -> MorphismMatrix:
        return cm.path_matrix(oriented_run(cm.conflated, x, y, direction))

    return cm.conflated, sr, tr, run


def source_sink_morphisms(n: int) -> tuple[MorphismMatrix, MorphismMatrix]:
    """Z (source to sink, oriented) and Zb (sink to source, reverse-oriented)."""
    _, sr, tr, run = _zam_runs(n)
    return run(sr, tr, "down"), run(tr, sr, "up")


def zam_report(n: int) -> ZamReport:
    """The source/sink identities as products of whole matrices."""
    z, zb = source_sink_morphisms(n)
    zbz = zb.compose(z)
    return ZamReport(
        rank=n,
        z_zb_z_equals_z=z.compose(zb).compose(z) == z,
        zb_z_zb_equals_zb=zb.compose(z).compose(zb) == zb,
        zb_z_idempotent=zbz.compose(zbz) == zbz,
        zb_z_proper=zbz != MorphismMatrix.identity(zbz.domain, n),
    )


def dud_udu_pairs(n: int):
    """(x, y, down-up-down, up-down-up) for every ordered pair of conflated vertices.

    Each path half depends on one endpoint only, so the runs into and out
    of the source and sink are composed once per vertex, and every pair
    costs two compositions.
    """
    conf, sr, tr, run = _zam_runs(n)
    reps = sorted(c.representative for c in conf.clouds)
    up_ts, down_st = run(tr, sr, "up"), run(sr, tr, "down")
    dud_head = {x: up_ts.compose(run(x, tr, "down")) for x in reps}
    udu_head = {x: down_st.compose(run(x, sr, "up")) for x in reps}
    dud_tail = {y: run(sr, y, "down") for y in reps}
    udu_tail = {y: run(tr, y, "up") for y in reps}
    for x in reps:
        for y in reps:
            yield x, y, dud_tail[y].compose(dud_head[x]), udu_tail[y].compose(udu_head[x])


def _as_rep(conf: ConflatedGraph, v) -> Word:
    if isinstance(v, Cloud):
        return v.representative
    return conf.cloud(tuple(v)).representative


def dud_matrix(n: int, x, y) -> MorphismMatrix:
    """Down to the sink, up to the source, down to y."""
    conf, sr, tr, run = _zam_runs(n)
    xr, yr = _as_rep(conf, x), _as_rep(conf, y)
    return run(sr, yr, "down").compose(run(tr, sr, "up")).compose(run(xr, tr, "down"))


def udu_matrix(n: int, x, y) -> MorphismMatrix:
    """Up to the source, down to the sink, up to y."""
    conf, sr, tr, run = _zam_runs(n)
    xr, yr = _as_rep(conf, x), _as_rep(conf, y)
    return run(tr, yr, "up").compose(run(sr, tr, "down")).compose(run(xr, sr, "up"))


def check_dud_udu(n: int, x, y) -> bool:
    """Does the down-up-down morphism equal the up-down-up one for this pair?"""
    return dud_matrix(n, x, y) == udu_matrix(n, x, y)
