# Reference implementation for the cross-checks in test_fpc.py: the
# value-search pool that preceded column interning in rexcalc.fpc (whole
# matrices keyed by MorphismMatrix.key(), each product a full step matrix
# times value), kept verbatim below, and MorphismMatrix.compose as it was
# before its loop body became MorphismMatrix.column_image, as a plain
# function of the two factors.  The pool calls that copy in place of the
# method, so it shares no product code with the package.  Also the
# per-pair down-up-down and up-down-up matrices that preceded the shared
# path halves of fpc.dud_udu_pairs: each rebuilds all three runs of one
# pair.  Not used by the package.

from __future__ import annotations

from rexcalc.braidmor import ConflatedMorphisms, MorphismMatrix
from rexcalc.fpc import BudgetExceededError, _zam_runs
from rexcalc.rexgraph import Cloud, ConflatedGraph
from rexcalc.polyring import Polynomial
from rexcalc.symgroup import Word


def compose(self: MorphismMatrix, other: MorphismMatrix) -> MorphismMatrix:
    """self after other (matrix product self . other).

    Unit columns, which make up distant edges and the identity, only
    reindex: no polynomial is multiplied for them on either side.
    """
    if other.codomain != self.domain or other.rank != self.rank:
        raise ValueError("composition shape mismatch")
    units = self._unit_columns()
    cols: dict[int, dict[int, Polynomial]] = {}
    for c, col in other.cols.items():
        if len(col) == 1:
            ((m, pmc),) = col.items()
            if pmc.is_one():
                if m in self.cols:
                    cols[c] = self.cols[m]  # columns are never mutated, so share it
                continue
        acc: dict[int, Polynomial] = {}
        for m, pmc in col.items():
            r = units.get(m)
            if r is not None:
                images = ((r, pmc),)
            else:
                images = [(r, prm * pmc) for r, prm in self.cols.get(m, {}).items()]
            for r, term in images:
                cur = acc.get(r)
                if cur is None:
                    acc[r] = term
                elif (total := cur + term).is_zero():
                    del acc[r]
                else:
                    acc[r] = total
        if acc:
            cols[c] = acc
    return MorphismMatrix._make(self.rank, other.domain, self.codomain, cols)


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
