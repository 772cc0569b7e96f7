# Reference implementation for the cross-checks in test_fpc.py and
# test_braidmor.py: the value-search pool that preceded column interning in
# rexcalc.fpc (whole matrices keyed by MorphismMatrix.key(), each product a
# full step matrix times value), kept verbatim below, and matrix products
# as they were before every product ran through polyring.tagged_image:
# compose as a plain function of the two factors, and column_image for one
# column.  Both read a matrix's columns as {row: Polynomial} maps
# (MorphismMatrix.column) and multiply and add the entries with the seed
# kernel oracle_polyring.Polynomial, converting through iter_terms, so they
# share no product code with the package (whose Polynomial.__mul__ is
# polyring.tagged_image too); the pool calls compose in place of the
# method.  Also the per-pair down-up-down and up-down-up matrices
# that preceded the shared path halves of fpc.dud_udu_pairs: each rebuilds
# all three runs of one pair.  Not used by the package.

from __future__ import annotations

from functools import lru_cache

from rexcalc.braidmor import ConflatedMorphisms, MorphismMatrix
from rexcalc.fpc import BudgetExceededError, _zam_runs
from rexcalc.rexgraph import Cloud, ConflatedGraph
from rexcalc.polyring import Polynomial
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
    return MorphismMatrix(self.rank, other.domain, self.codomain, cols)


class _MatrixPool:
    """Interns matrices by value and caches products with edge matrices."""

    def __init__(self, budget: int, source: str):
        self.budget = budget
        self.source = source
        self.ids: dict[tuple, int] = {}
        self.mats: list[MorphismMatrix] = []
        self.products: dict[tuple[int, tuple[Word, Word]], int] = {}

    def intern(self, m: MorphismMatrix) -> int:
        key = m.key()
        found = self.ids.get(key)
        if found is not None:
            return found
        if len(self.mats) >= self.budget:
            raise BudgetExceededError(
                f"more than {self.budget} distinct morphism matrices, "
                f"the limit set by {self.source}; raise it to continue"
            )
        self.ids[key] = len(self.mats)
        self.mats.append(m)
        return len(self.mats) - 1

    def extend(self, cm: ConflatedMorphisms, mat_id: int, step: tuple[Word, Word]) -> int:
        key = (mat_id, step)
        found = self.products.get(key)
        if found is None:
            found = self.intern(compose(cm.step_matrix(*step), self.mats[mat_id]))
            self.products[key] = found
        return found


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
