"""Verdicts of the bounded complete-path comparisons and the named checks."""

from __future__ import annotations

import pytest

from rexcalc import fpc
from rexcalc.braidmor import ConflatedMorphisms
from rexcalc.bsbimod import BSElement, from_tensor, left_mul
from rexcalc.polyring import Polynomial
from rexcalc.rexgraph import build_conflated, build_rex_graph, graph_for_word, source_sink
from rexcalc.symgroup import word_to_perm


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


def test_fpc_endpoint_restriction():
    c = (1, 3, 2, 1, 3)
    verdict = fpc.check_fpc((1, 2, 3, 2, 1), 9, rank=4, endpoints=(c, c))
    assert not verdict.holds
    held = fpc.check_fpc(
        (1, 2, 3, 2, 1), 5, rank=4, endpoints=((1, 2, 3, 2, 1), (3, 2, 1, 2, 3))
    )
    assert held.holds


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
    assert report.zzz and report.zbz_zb and report.idempotent and report.proper


def test_dud_udu_rank_three():
    rex, conf = graph_for_word((1, 2, 1), rank=3)
    s, t = source_sink(conf)
    assert fpc.check_dud_udu(3, s, t)
    assert fpc.check_dud_udu_all(3)
    z, zb = fpc.source_sink_morphisms(3)
    assert fpc.udu_matrix(3, s, t) == z
    assert fpc.dud_matrix(3, t, s) == zb


def test_dud_ts_is_the_reverse_morphism_rank_four():
    from rexcalc.symgroup import longest_element

    rex, conf = graph_for_word(longest_element(4), rank=4)
    s, t = source_sink(conf)
    z, zb = fpc.source_sink_morphisms(4)
    assert fpc.dud_matrix(4, t, s) == zb
    assert fpc.udu_matrix(4, s, t) == z


def test_shared_halves_match_per_pair_matrices_rank_four():
    # check_dud_udu_all reuses per-vertex path halves; dud_matrix and
    # udu_matrix rebuild every path for one pair and are the oracle
    pairs = list(fpc.dud_udu_pairs(4))
    assert len(pairs) == 8 * 8
    for x, y, dud, udu in pairs:
        assert dud == fpc.dud_matrix(4, x, y)
        assert udu == fpc.udu_matrix(4, x, y)
        assert dud == udu
    assert fpc.check_dud_udu_all(4)


def test_budget_env_variable(monkeypatch):
    monkeypatch.setenv("REXCALC_BUDGET", "123")
    assert fpc.matrix_budget() == 123
    monkeypatch.delenv("REXCALC_BUDGET")
    assert fpc.matrix_budget() == fpc.DEFAULT_BUDGET


def test_family_rank_four_matches_counterexample():
    report = fpc.check_family(4)
    assert report.word == (1, 2, 3, 2, 1)
    assert report.morphisms_differ
    assert report.line[0] == (1, 2, 3, 2, 1) and report.line[-1] == (3, 2, 1, 2, 3)
    c = (1, 3, 2, 1, 3)
    assert report.path_a == (c, (1, 2, 3, 2, 1), c, (3, 2, 1, 2, 3), c)


def test_family_extra_pair_differs():
    img_long, img_short = fpc.family_extra_pair(4)
    assert img_long != img_short
    word = (1, 2, 3, 2, 1)
    assert img_long.word == img_short.word == (1, 3, 2, 1, 3)


def test_family_rank_out_of_scale():
    with pytest.raises(ValueError):
        fpc.check_family(9)


def test_refined_conjecture_rank_three():
    assert fpc.check_refined_conjecture(3, 8).holds


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


def test_verdict_json_round_trip():
    import json

    verdict = fpc.check_fpc((1, 2, 3, 2, 1), 5, rank=4)
    payload = json.loads(json.dumps(verdict.to_json()))
    assert payload["holds"] is False
    assert payload["counterexample"]["witness_mask"] == verdict.counterexample.witness_mask
