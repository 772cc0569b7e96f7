"""Verdicts of the bounded complete-path comparisons and the named checks."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from types import SimpleNamespace

import oracle_fpc
import pytest
from conftest import column, matrix, random_reduced_word
from oracle_fpc import free_slots, generator_masks

from rexcalc import cli, fpc
from rexcalc.braidmor import ConflatedMorphisms, MorphismMatrix, edge_matrix, move_between
from rexcalc.bsbimod import BSElement, bimodule_generator_masks, from_tensor, left_mul, right_mul
from rexcalc.polyring import Polynomial, row_key
from rexcalc.rexgraph import (
    CONFLATED,
    Path,
    build_conflated,
    build_rex_graph,
    graph_for_word,
    lift_conflated_path,
    oriented_run,
    source_sink,
    word_label,
)
from rexcalc.symgroup import all_permutations, word_to_perm


def x(i, rank=4):
    return Polynomial.variable(i, rank)


def one(rank=4):
    return Polynomial.one(rank)


def test_fpc_holds_for_23121_and_12312():
    assert fpc.check_fpc((2, 3, 1, 2, 1), 9, rank=4).holds
    assert fpc.check_fpc((1, 2, 3, 1, 2), 9, rank=4).holds


def test_fpc_counterexample_for_12321_at_bound_five():
    verdict = fpc.check_fpc((1, 2, 3, 2, 1), 5, rank=4)
    assert not verdict.holds
    w = verdict.counterexample
    c, s, t = (1, 3, 2, 1, 3), (1, 2, 3, 2, 1), (3, 2, 1, 2, 3)
    assert w.path_a == (c, s, c, t, c)
    assert w.path_b == (c, t, c, s, c)
    assert w.start == w.end == c


def test_counterexample_is_the_first_found_in_start_then_path_order():
    # here the group that first gets a second value depends on the order the
    # states of a level are extended in: by start, then by path
    verdict = fpc.check_fpc((1, 2, 3, 4, 2, 1, 3), 8, rank=5)
    w = verdict.counterexample
    a, b, c = (1, 3, 2, 1, 3, 4, 3), (1, 2, 3, 2, 1, 4, 3), (1, 3, 2, 1, 4, 3, 4)
    d, e = (3, 2, 1, 2, 4, 3, 4), (3, 2, 1, 2, 3, 4, 3)
    assert w.start == w.end == a
    assert w.path_a == (a, b, a, c, d, e, a)
    assert w.path_b == (a, c, d, e, a, b, a)
    assert w.witness_mask == 1


def test_fpc_counterexample_witness_is_reproducible():
    verdict = fpc.check_fpc((1, 2, 3, 2, 1), 9, rank=4)
    w = verdict.counterexample
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    cm = ConflatedMorphisms(rex, conf)
    mat_a = cm.path_matrix(w.path_a)
    mat_b = cm.path_matrix(w.path_b)
    assert mat_a != mat_b
    basis = BSElement.basis(mat_a.domain, w.witness_mask, 4)
    assert mat_a.apply(basis) == w.image_a
    assert mat_b.apply(basis) == w.image_b
    assert w.image_a != w.image_b


def test_fpc_trivial_graph_holds():
    assert fpc.check_fpc((2, 1), 9, rank=4).holds


def test_fpc_requires_enough_length():
    with pytest.raises(ValueError):
        fpc.check_fpc((1, 2, 3, 2, 1), 2, rank=4)


def test_budget_is_enforced():
    with pytest.raises(fpc.BudgetExceededError):
        fpc.check_fpc((1, 2, 3, 2, 1), 9, rank=4, budget=3)


def test_counterexample_report_values():
    rep = fpc.reproduce_counterexample()
    word = (1, 3, 2, 3, 1)
    x2_form = from_tensor(word, (one(), x(2), one(), one(), one(), one()), 4)
    x3_form = from_tensor(word, (one(), one(), one(), x(3), one(), one()), 4)
    assert rep.element == x3_form
    assert rep.image_a == x2_form
    assert rep.image_b == x3_form
    assert rep.matrices_differ
    # capping both outer factors separates the images inside B_3 B_2 B_3
    assert rep.dots_a == left_mul(x(2), BSElement.generator((3, 2, 3), 4))
    assert rep.dots_b == from_tensor((3, 2, 3), (one(), one(), x(3), one()), 4)
    assert rep.dots_a != rep.dots_b


def test_zam_identities_rank_three():
    report = fpc.check_zam_identities(3)
    assert report.z_zb_z_equals_z and report.zb_z_zb_equals_zb and report.zb_z_idempotent and report.zb_z_proper


def test_dud_udu_rank_three():
    rex, conf = graph_for_word((1, 2, 1), rank=3)
    s, t = source_sink(conf)
    assert oracle_fpc.check_dud_udu(3, s, t)
    assert fpc.check_dud_udu_all(3)
    z, zb = oracle_fpc.source_sink_morphisms(3)
    assert oracle_fpc.udu_matrix(3, s, t) == z
    assert oracle_fpc.dud_matrix(3, t, s) == zb


def test_dud_ts_is_the_reverse_morphism_rank_four():
    from rexcalc.symgroup import longest_element

    rex, conf = graph_for_word(longest_element(4), rank=4)
    s, t = source_sink(conf)
    z, zb = oracle_fpc.source_sink_morphisms(4)
    assert oracle_fpc.dud_matrix(4, t, s) == zb
    assert oracle_fpc.udu_matrix(4, s, t) == z


def test_shared_halves_match_per_pair_matrices_rank_four():
    # the oracle's dud_udu_pairs reuses per-vertex path halves of whole
    # matrices; its dud_matrix and udu_matrix rebuild every path for one pair
    pairs = list(oracle_fpc.dud_udu_pairs(4))
    assert len(pairs) == 8 * 8
    for x, y, dud, udu in pairs:
        assert dud == oracle_fpc.dud_matrix(4, x, y)
        assert udu == oracle_fpc.udu_matrix(4, x, y)
        assert dud == udu
    assert fpc.check_dud_udu_all(4)


class _Mirrored(fpc._MatrixPool):
    """The package pool, with every identity and extend repeated on the right-generator oracle pool.

    Both intern in one order, so ids that agree call by call mean that two
    walks get equal package ids exactly when they get equal oracle ids.
    ``matrix`` rebuilds a value's whole matrix from the oracle, after
    checking that each stored column is that matrix's column at its mask.
    """

    def __init__(self, cm):
        super().__init__(cm)
        self.oracle = oracle_fpc.RightGeneratorPool(cm)

    def identity(self, word):
        found = super().identity(word)
        assert self.oracle.identity(word) == found
        return found

    def extend(self, value, step):
        found = super().extend(value, step)
        assert self.oracle.extend(value, step) == found
        return found

    def matrix(self, value):
        mat = oracle_fpc.rebuild(self.oracle, value)
        domain, codomain, ids = self.values[value]
        assert (domain, codomain) == (mat.domain, mat.codomain)
        masks = bimodule_generator_masks(domain, self.rank)
        assert [self.cols[i] for i in ids] == [frozenset(mat.cols.get(g, {}).items()) for g in masks]
        return mat


def _pools_of(monkeypatch, check, pool_cls=_Mirrored):
    """What check() returned, and the pools of pool_cls it made in place of the package pool."""
    pools = []

    class Kept(pool_cls):
        def __init__(self, cm):
            super().__init__(cm)
            pools.append(self)

    monkeypatch.setattr(fpc, "_MatrixPool", Kept)
    return check(), pools


def _joined(*runs):
    """The walk along runs in turn, each starting where the one before ends."""
    return [runs[0][0]] + [v for run in runs for v in run[1:]]


@pytest.mark.parametrize("n", [3, 4])
def test_zam_identities_match_whole_matrix_products(monkeypatch, n):
    report, (pool,) = _pools_of(monkeypatch, lambda: fpc.check_zam_identities(n))
    assert report == oracle_fpc.zam_report(n)
    assert report.all_hold
    z, zb = oracle_fpc.source_sink_morphisms(n)
    cm, sr, tr = fpc._longest(n)
    down, up = oriented_run(cm.conflated, sr, tr, "down"), oriented_run(cm.conflated, tr, sr, "up")
    # each product the check compared is the walk along its runs, already in the pool
    size = len(pool.values)
    for runs, want in [
        ((down,), z),
        ((up,), zb),
        ((down, up), zb.compose(z)),
        ((down, up, down), z.compose(zb).compose(z)),
        ((up, down, up), zb.compose(z).compose(zb)),
        ((down, up, down, up), zb.compose(z).compose(zb).compose(z)),
    ]:
        assert pool.matrix(pool.walk(_joined(*runs))) == want
    assert len(pool.values) == size


@pytest.mark.parametrize("n", [3, 4])
def test_dud_udu_walks_match_per_pair_matrices(monkeypatch, n):
    holds, (pool,) = _pools_of(monkeypatch, lambda: fpc.check_dud_udu_all(n))
    assert holds
    cm, sr, tr = fpc._longest(n)
    conf = cm.conflated

    def run(a, b, direction):
        return oriented_run(conf, a, b, direction)

    reps = sorted(c.representative for c in conf.clouds)
    size = len(pool.values)
    for x in reps:
        for y in reps:
            # the pair's whole walks reuse the products the check memoized
            dud = pool.walk(_joined(run(x, tr, "down"), run(tr, sr, "up"), run(sr, y, "down")))
            udu = pool.walk(_joined(run(x, sr, "up"), run(sr, tr, "down"), run(tr, y, "up")))
            assert pool.matrix(dud) == oracle_fpc.dud_matrix(n, x, y)
            assert pool.matrix(udu) == oracle_fpc.udu_matrix(n, x, y)
            assert dud == udu
    assert len(pool.values) == size


def test_family_rank_four_matches_counterexample():
    report = fpc.check_family(4)
    assert report.word == (1, 2, 3, 2, 1)
    assert report.morphisms_differ
    assert report.line[0] == (1, 2, 3, 2, 1) and report.line[-1] == (3, 2, 1, 2, 3)
    c = (1, 3, 2, 1, 3)
    assert report.path_a == (c, (1, 2, 3, 2, 1), c, (3, 2, 1, 2, 3), c)


def test_family_extra_pair_differs():
    img_long, img_short = fpc.family_extra_pair()
    assert img_long != img_short
    word = (1, 2, 3, 2, 1)
    assert img_long.word == img_short.word == (1, 3, 2, 1, 3)


def test_family_rank_out_of_scale():
    with pytest.raises(ValueError):
        fpc.check_family(9)


def test_refined_conjecture_rank_three():
    assert fpc.check_refined_conjecture(3, 8).holds


def test_refined_conjecture_when_source_is_sink():
    # the longest element of S_2 has one cloud, which is source and sink at
    # once, so the one-vertex path already passes through both extremes
    s, t = source_sink(fpc._calculus((1,), 2).conflated)
    assert s == t
    verdict = fpc.check_refined_conjecture(2, 5)
    assert verdict.holds and verdict.element == (1,)


def test_s4_shapes_match_table():
    from itertools import permutations as iperm

    expected = {word_to_perm(w, 4): shape for w, shape in fpc.S4_TABLE.items()}
    for images in iperm((1, 2, 3, 4)):
        from rexcalc.symgroup import Permutation

        perm = Permutation(images)
        conf = build_conflated(build_rex_graph(perm))
        assert fpc.classify_shape(conf) == expected[perm]


def test_sweep_max_len():
    assert fpc.sweep_max_len(1) == 9
    assert fpc.sweep_max_len(3) == 10
    assert fpc.sweep_max_len(8) == 20


@pytest.mark.parametrize("word, rank, bound", [((1, 2, 3, 2, 1), 4, 10), ((1, 2, 1), 3, 9)])
def test_check_fpc_without_a_bound_takes_the_sweep_bound(word, rank, bound):
    clouds = fpc._calculus(word, rank).conflated.clouds
    assert fpc.sweep_max_len(len(clouds)) == bound
    assert fpc.check_fpc(word, None, rank=rank).bound == bound


def test_verdict_json_round_trip(capsys):
    import json

    verdict = fpc.check_fpc((1, 2, 3, 2, 1), 5, rank=4)
    assert cli.main(["verify", "family", "--word", "12321", "--max-len", "5", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["holds"] is False
    assert payload["counterexample"]["witness_mask"] == verdict.counterexample.witness_mask


def test_sweep_builds_each_graph_once(monkeypatch):
    calls = []

    def counting_build(perm):
        calls.append(perm)
        return build_rex_graph(perm)

    monkeypatch.setattr(fpc, "build_rex_graph", counting_build)
    fpc._element_calculus.cache_clear()
    assert fpc.check_s4_sweep().all_expected
    assert len(calls) == len(set(calls)) == 24


# -- the column-interned pool against the whole-matrix pool -----------------


def _search_with(monkeypatch, pool_cls, check):
    """Verdict, extended value ids in order, and the interned matrices of check()."""
    pools, ids = [], []

    class Logged(pool_cls):
        def __init__(self, cm):
            super().__init__(cm)
            pools.append(self)

        def extend(self, mat_id, step):
            found = super().extend(mat_id, step)
            ids.append(found)
            return found

    def matrix(pool, i):
        # the oracle pool keeps a matrix per value; the package pool's is rebuilt by its mirror
        return pool.values[i] if pool_cls is oracle_fpc._MatrixPool else pool.matrix(i)

    monkeypatch.setattr(fpc, "_MatrixPool", Logged)
    verdict = check()
    return verdict, ids, [matrix(pool, i) for pool in pools for i in range(len(pool.ids))]


def _assert_same_search(monkeypatch, check):
    verdict, ids, mats = _search_with(monkeypatch, _Mirrored, check)
    expected, oracle_ids, oracle_mats = _search_with(monkeypatch, oracle_fpc._MatrixPool, check)
    assert ids == oracle_ids
    assert mats == oracle_mats
    assert verdict == expected
    assert cli._plain(verdict) == cli._plain(expected)
    return verdict


def test_pool_matches_oracle_on_s4_sweep(monkeypatch):
    sweep = _assert_same_search(monkeypatch, fpc.check_s4_sweep)
    assert len(sweep.rows) == 24
    assert sweep.all_expected
    assert [r.holds for r in sweep.rows].count(False) == 1


@pytest.mark.parametrize("rank", [3, 4])
def test_pool_matches_oracle_on_refined_conjecture(monkeypatch, rank):
    assert _assert_same_search(monkeypatch, lambda: fpc.check_refined_conjecture(rank, 10)).holds


def _random_rank_five_words(count=6):
    # elements of 3 to 6 clouds keep the search at desk scale
    rng = random.Random(2025)
    words = []
    while len(words) < count:
        w = random_reduced_word(rng, 5)
        if w not in words and 3 <= len(fpc._calculus(w, 5).conflated.clouds) <= 6:
            words.append(w)
    return words


@pytest.mark.parametrize("word", _random_rank_five_words())
def test_pool_matches_oracle_on_random_rank_five_words(monkeypatch, word):
    bound = len(fpc._calculus(word, 5).conflated.clouds) + 2
    _assert_same_search(monkeypatch, lambda: fpc.check_fpc(word, bound, rank=5))


@pytest.mark.parametrize(
    "word, path_a, path_b",
    [
        (
            "1213432",
            "1213432 1214324 1213432 2123432 2124324 2143234 2124324",
            "1213432 1214324 2124324 2143234 2124324 2123432 2124324",
        ),
        (
            "1324321",
            "1343213 1324321 1343213 1432143 4321243 3432123 1343213",
            "1343213 1432143 4321243 3432123 1343213 1324321 1343213",
        ),
        (
            "12321432",
            "12321432 13213432 13214324 13213432 32123432 32124324 32143234 32124324",
            "12321432 13213432 13214324 32124324 32143234 32124324 32123432 32124324",
        ),
    ],
)
def test_pool_matches_oracle_on_rank_five_counterexamples(monkeypatch, word, path_a, path_b):
    # a witness's paths are the least of their group in the order the levels
    # are queued, so these pin that order as well as the values
    verdict = _assert_same_search(monkeypatch, lambda: fpc.check_fpc(cli.parse_word(word), None, rank=5, budget=4_000))
    assert not verdict.holds
    witness = verdict.counterexample
    assert [" ".join(map(word_label, p)) for p in (witness.path_a, witness.path_b)] == [path_a, path_b]


@pytest.mark.parametrize(
    "word, bound, budget",
    [((1, 2, 3, 2, 1), 9, 1), ((1, 2, 3, 2, 1), 9, 10), ((1, 2, 3, 1, 2, 1), 20, 300)],
)
def test_pool_budget_error_matches_oracle(monkeypatch, word, bound, budget):
    # both pools run out at the same level after the same states
    messages = []
    for pool_cls in (fpc._MatrixPool, oracle_fpc._MatrixPool):
        monkeypatch.setattr(fpc, "_MatrixPool", pool_cls)
        with pytest.raises(fpc.BudgetExceededError) as err:
            fpc.check_fpc(word, bound, rank=4, budget=budget)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert f"more than {budget} distinct" in messages[0]


def _pool_work(monkeypatch, check):
    """Values, distinct columns, memoized products and memoized column images of check()."""
    _, pools = _pools_of(monkeypatch, check, fpc._MatrixPool)
    return (
        sum(len(pool.values) for pool in pools),
        sum(len(pool.cols) for pool in pools),
        sum(len(pool.products) for pool in pools),
        sum(len(memo) for pool in pools for memo in pool.images.values()),
    )


@pytest.mark.parametrize(
    "check, work",
    [
        (fpc.check_s4_sweep, (503, 458, 902, 1_157)),
        (lambda: fpc.check_refined_conjecture(4, 10), (390, 333, 764, 958)),
        (lambda: (fpc.check_zam_identities(4), fpc.check_dud_udu_all(4)), (154, 219, 208, 489)),
    ],
    ids=["s4-sweep", "refined-4", "zam-dud-4"],
)
def test_pool_work_counts_are_pinned(monkeypatch, check, work):
    # the searches' values and products are those of the whole-matrix pool;
    # columns and column images count two-sided generator columns, and the
    # unit columns the S_4 sweep's witness walks
    assert _pool_work(monkeypatch, check) == work


def _step_columns_built(monkeypatch, check):
    """Step columns that check() built, and the columns its steps have, over fresh calculi."""
    made = []

    class Kept(ConflatedMorphisms):
        def __init__(self, graph, conflated):
            super().__init__(graph, conflated)
            made.append(self)

    monkeypatch.setattr(fpc, "ConflatedMorphisms", Kept)
    fpc._element_calculus.cache_clear()
    try:
        check()
    finally:
        fpc._element_calculus.cache_clear()
    steps = [m for cm in made for m in (*cm.forward.values(), *cm.backward.values())]
    return sum(len(m.cols.built) for m in steps), sum(len(m.cols) for m in steps)


@pytest.mark.parametrize(
    "check, built",
    [
        (lambda: fpc.check_family(6), (290, 4_096)),
        (lambda: (fpc.check_zam_identities(4), fpc.check_dud_udu_all(4)), (304, 1_024)),
        (fpc.check_s4_sweep, (530, 1_568)),
    ],
    ids=["family-6", "zam-dud-4", "s4-sweep"],
)
def test_searches_build_only_the_step_columns_they_read(monkeypatch, check, built):
    # a step builds a column when a walk, a witness or a carry first reads
    # it; tables built whole would build every column of every step
    assert _step_columns_built(monkeypatch, check) == built


def test_pool_interns_values_by_exact_content():
    # on 23121, whose line is s - c - t, the walks [s,c,t,c] and
    # [s,c,t,c,s,c] have one matrix (lemma P1 == P2) and [s,c,t] another
    cm = fpc._calculus((2, 3, 1, 2, 1), 4)
    s, t = source_sink(cm.conflated)
    c = next(cl for cl in cm.conflated.clouds if cl not in (s, t)).representative
    s, t = s.representative, t.representative
    pool = _Mirrored(cm)
    ident = pool.identity(s)
    assert pool.identity(s) == ident
    assert pool.matrix(ident) == MorphismMatrix.identity(s, 4)
    # a value stores one column id per two-sided generator mask, fewer than
    # the right-generator masks, which are fewer than its columns
    assert len(pool.values[ident][2]) == len(bimodule_generator_masks(s, 4)) < len(generator_masks(s)) < 1 << len(s)
    for (a, b), step in {**cm.forward, **cm.backward}.items():
        assert pool.matrix(pool.extend(pool.identity(a), (a, b))) == step
    p1, p2 = pool.walk([s, c, t, c]), pool.walk([s, c, t, c, s, c])
    assert p1 == p2
    assert pool.walk([s, c, t]) != p1
    assert pool.matrix(p1) == cm.path_matrix([s, c, t, c]) == cm.path_matrix([s, c, t, c, s, c])
    # extending a value is the product with the step, interned by content
    mats = [pool.matrix(v) for v in range(len(pool.values))]
    assert all(a != b for a, b in combinations(mats, 2))
    for v, mat in enumerate(mats):
        for w in cm.conflated.links[mat.codomain]:
            product = pool.matrix(pool.extend(v, (mat.codomain, w)))
            assert product == cm.step_matrix(mat.codomain, w).compose(mat)


def test_pool_interns_an_integral_fraction_with_its_int():
    # no kernel turns a cancelled Fraction back into int, so a column may
    # hold Fraction(2, 1) where another holds 2: both are one column
    pool = fpc._MatrixPool(fpc._calculus((1, 2, 1), 3))
    key = row_key(1, 3) | next(iter(Polynomial.variable(2, 3).terms))
    ints = pool._column_id({key: 2, row_key(3, 3): -1})
    fractions = pool._column_id({key: Fraction(4, 2), row_key(3, 3): Fraction(-1)})
    assert fractions == ints and len(pool.cols) == 1


def test_a_killed_generator_column_is_the_interned_empty_column():
    # no verdict's walk has a zero generator column, so a step matrix with
    # its column at mask 0 dropped makes one: both steps it is reached by
    # give one value, whose column at mask 0 is the one empty column
    cm = fpc._calculus((1, 2, 1), 3)
    (a, b), whole = next(iter(cm.forward.items()))
    killed = MorphismMatrix(3, a, b, {c: col for c, col in whole.cols.items() if c})
    steps = {"whole": whole, "killed": killed, "killed again": killed}
    pool = fpc._MatrixPool(SimpleNamespace(rank=3, step_matrix=lambda _, name: steps[name]))
    start = pool.identity(a)
    kept = pool.extend(start, (a, "whole"))
    zero = pool.extend(start, (a, "killed"))
    assert pool.extend(start, (a, "killed again")) == zero != kept
    empty = pool.col_ids[frozenset()]
    assert pool.cols[empty] == frozenset()
    (_, _, kept_ids), (_, _, zero_ids) = pool.values[kept], pool.values[zero]
    assert zero_ids == (empty,) + kept_ids[1:] and kept_ids[0] != empty
    mask, image_kept, image_zero = pool.witness((a, "whole"), (a, "killed"))
    assert (mask, str(image_zero)) == (0, "0")
    assert image_kept == BSElement(3, b, whole.cols[0]) and image_zero == BSElement.zero(b, 3)


# -- the generator-column lemma ------------------------------------------------


@pytest.mark.parametrize(
    "words, rank",
    [
        ([cm.graph.words[0] for cm in map(fpc._element_calculus, all_permutations(4))], 4),
        (_random_rank_five_words(), 5),
    ],
    ids=["every-s4-element", "random-rank-5"],
)
def test_step_matrices_are_right_linear_on_free_slots(words, rank):
    # a column whose mask sets a free bit j is the column without it times
    # x_{domain[j]} on the right, which is what lets the pool store generator
    # columns only
    checked = 0
    steps = [m for cm in (fpc._calculus(w, rank) for w in words) for m in {**cm.forward, **cm.backward}.values()]
    for step in steps:
        free = free_slots(step.domain)
        for j in range(len(step.domain)):
            if not free >> j & 1:
                continue
            xj = Polynomial.variable(step.domain[j], rank)
            for m in range(1 << len(step.domain)):
                if not m >> j & 1:
                    below = BSElement(rank, step.codomain, step.cols[m])
                    assert BSElement(rank, step.codomain, step.cols[m | 1 << j]) == right_mul(below, xj)
                    checked += 1
    assert checked


def _columns_at(mat, masks):
    return [mat.cols.get(g) for g in masks]


@pytest.mark.parametrize(
    "word, rank",
    [((1, 2, 3, 2, 1), 4), ((2, 3, 1, 2, 1), 4), ((1, 2, 3, 1, 2, 1), 4), ((1, 2, 3, 4, 3, 2, 1), 5)],
)
def test_generator_columns_decide_path_matrix_equality(word, rank):
    cm = fpc._calculus(word, rank)
    mats = [cm.path_matrix(w) for w in _random_walks(cm.conflated, random.Random(len(word)), 40, 6)]
    # right generators (the oracle pool's columns) and two-sided generators
    # (the package pool's) alike
    outcomes = set()
    for a, b in combinations(mats, 2):
        if (a.domain, a.codomain) == (b.domain, b.codomain):
            for masks in (generator_masks(a.domain), bimodule_generator_masks(a.domain, rank)):
                same = _columns_at(a, masks) == _columns_at(b, masks)
                assert same == (a == b)
                outcomes.add(same)
    assert outcomes == {True, False}


def _random_walks(conf, rng, count, max_steps):
    """Seeded walks over the cloud representatives of a conflated graph."""
    reps = sorted(c.representative for c in conf.clouds)
    walks = []
    for _ in range(count):
        walk = [rng.choice(reps)]
        for _ in range(rng.randint(0, max_steps)):
            walk.append(rng.choice(sorted(d.representative for d in conf.neighbors(conf.cloud(walk[-1])))))
        walks.append(tuple(walk))
    return walks


@pytest.mark.parametrize(
    "word, rank",
    [((1, 2, 3, 2, 1), 4), ((1, 2, 1, 3, 2, 1), 4), ((1, 2, 3, 4, 3, 2, 1), 5), ((1, 2, 1, 3, 4, 3), 5)],
)
def test_walk_matches_path_matrix(word, rank):
    cm = fpc._calculus(word, rank)
    walks = _random_walks(cm.conflated, random.Random(8), 16, 7)
    pool = _Mirrored(cm)
    ids = [pool.walk(w) for w in walks]
    mats = [cm.path_matrix(w) for w in walks]
    for i, mat in zip(ids, mats):
        assert pool.matrix(i) == mat
    # one id per matrix: walks get equal ids, package and oracle alike,
    # exactly when their matrices are equal
    for a, b in combinations(range(len(walks)), 2):
        assert (ids[a] == ids[b]) == (mats[a] == mats[b])


@pytest.mark.parametrize(
    "words, rank",
    [
        ([cm.graph.words[0] for cm in map(fpc._element_calculus, all_permutations(4)) if cm.conflated.edges], 4),
        ([(1, 3, 2, 3, 1)], 4),
        ([(1, 2, 3, 4, 3, 2, 1)], 5),
        (_random_rank_five_words(), 5),
    ],
    ids=["every-s4-element", "13231", "1234321", "random-rank-5"],
)
def test_witness_matches_the_whole_matrix_witness(words, rank):
    # the pool walks each unit column alone along both paths, in mask
    # order, without building either matrix; the least differing column of
    # two bimodule maps is a right-generator column, so the oracle pool
    # reads it off its two values
    differing = 0
    for word in words:
        cm = fpc._calculus(word, rank)
        walks = _random_walks(cm.conflated, random.Random(len(word) + rank), 24, 6)
        pool = _Mirrored(cm)
        ids = [pool.walk(w) for w in walks]
        for (wa, a), (wb, b) in combinations(zip(walks, ids), 2):
            if (wa[0], wa[-1]) != (wb[0], wb[-1]) or a == b:
                continue
            want = oracle_fpc.column_witness(cm.path_matrix(wa), cm.path_matrix(wb))
            assert pool.witness(wa, wb) == want
            assert pool.oracle.witness(a, b) == want
            differing += 1
    assert differing


@pytest.mark.parametrize("word, rank", [((1, 2, 3, 2, 1), 4), ((1, 2, 1, 3, 2, 1), 4), ((1, 2, 3, 4, 3, 2, 1), 5)])
def test_path_matrix_matches_oracle_compose(word, rank):
    # every product in the package runs through polyring.tagged_image; the
    # oracle chains the edge matrices of each lifted step with the seed
    # polynomial kernel alone, so it shares no product code with the package
    cm = fpc._calculus(word, rank)
    rex, conf = cm.graph, cm.conflated
    for walk in _random_walks(conf, random.Random(sum(word)), 8, 6):
        want = MorphismMatrix.identity(walk[0], rank)
        for a, b in zip(walk, walk[1:]):
            lifted = lift_conflated_path(conf, rex, Path(CONFLATED, (a, b))).vertices
            for u, v in zip(lifted, lifted[1:]):
                want = oracle_fpc.compose(edge_matrix(move_between(u, v), u, rank), want)
        assert cm.path_matrix(walk) == want, walk


@pytest.mark.parametrize("word", [(1, 2, 3, 2, 1), (1, 2, 1, 3, 2, 1)])
def test_column_image_is_a_one_column_product(word):
    cm = fpc._calculus(word, 4)
    steps = {**cm.forward, **cm.backward}
    for (a, b), step in steps.items():
        # columns of every value a search can hold at a: the identity, the
        # steps into a and the two-step walks into a
        into = [MorphismMatrix.identity(a, 4)]
        into += [m for (_, v), m in steps.items() if v == a]
        into += [
            m.compose(n)
            for (_, v), m in steps.items()
            if v == a
            for (_, u), n in steps.items()
            if u == m.domain
        ]
        for right in into:
            assert step.compose(right) == oracle_fpc.compose(step, right)
            for c in right.cols:
                col = column(right, c)
                one_column = matrix(4, right.domain, a, {c: col})
                assert oracle_fpc.column_image(step, col) == column(oracle_fpc.compose(step, one_column), c)
