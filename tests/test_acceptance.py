"""Acceptance suite: one test per criterion, exact equality throughout.

Each test prints a single pass/fail line (visible with pytest -s) and
enforces the stated wall-clock budget.
"""

from __future__ import annotations

import random
import time

from rexcalc import fpc
from rexcalc.braidmor import (
    ConflatedMorphisms,
    MorphismMatrix,
    apply_edge,
    derive_local_table,
    edge_matrix,
)
from rexcalc.bsbimod import BSElement, from_tensor, left_mul, right_mul
from rexcalc.polyring import Polynomial
from rexcalc.rexgraph import graph_for_word, source_sink
from rexcalc.symgroup import BraidMove, braid_moves, longest_element, word_to_perm

from conftest import element, preserves_degree, random_polynomial, tagged_degrees
from oracle_rexgraph import edge_counts


def x(i, rank=4):
    return Polynomial.variable(i, rank)


def one(rank=4):
    return Polynomial.one(rank)


def report(number: int, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"acceptance {number}: {status} ({elapsed:.2f}s / {budget:.0f}s) {detail}")
    assert ok, detail
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


def test_criterion_1_graph_reproduction():
    t0 = time.time()
    checks = []

    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    checks.append(len(rex.words) == 6 and len(rex.edges) == 6)
    pinned_edges = {
        ((1, 2, 3, 2, 1), (1, 3, 2, 3, 1)),
        ((1, 3, 2, 1, 3), (1, 3, 2, 3, 1)),
        ((1, 3, 2, 3, 1), (3, 1, 2, 3, 1)),
        ((1, 3, 2, 1, 3), (3, 1, 2, 1, 3)),
        ((3, 1, 2, 1, 3), (3, 1, 2, 3, 1)),
        ((3, 1, 2, 1, 3), (3, 2, 1, 2, 3)),
    }
    checks.append({(u, v) for u, v, _ in rex.edges} == pinned_edges)
    checks.append(edge_counts(rex) == (4, 2))
    checks.append(len(conf.clouds) == 3)

    line, _ = graph_for_word((2, 1, 3, 2, 1))
    checks.append(
        sorted(line.words)
        == sorted([(2, 1, 3, 2, 1), (2, 3, 1, 2, 1), (2, 3, 2, 1, 2), (3, 2, 3, 1, 2), (3, 2, 1, 3, 2)])
    )
    checks.append(len(line.edges) == 4)
    degrees = sorted(len(line.adjacency[w]) for w in line.words)
    checks.append(degrees == [1, 1, 2, 2, 2])

    octagon, oct_conf = graph_for_word((1, 2, 1, 4))
    checks.append(len(octagon.words) == 8 and len(octagon.edges) == 8)
    checks.append(all(len(octagon.adjacency[w]) == 2 for w in octagon.words))

    hexagon, hex_conf = graph_for_word((2, 4, 6))
    checks.append(len(hexagon.words) == 6 and edge_counts(hexagon) == (6, 0))
    checks.append(len(hex_conf.clouds) == 1)

    w04, zam = graph_for_word(longest_element(4), rank=4)
    pinned_w04_words = sorted(
        [
            (1, 2, 1, 3, 2, 1), (1, 2, 3, 1, 2, 1), (2, 1, 2, 3, 2, 1), (2, 1, 3, 2, 3, 1),
            (2, 3, 1, 2, 1, 3), (2, 3, 1, 2, 3, 1), (2, 1, 3, 2, 1, 3), (2, 3, 2, 1, 2, 3),
            (3, 2, 3, 1, 2, 3), (1, 2, 3, 2, 1, 2), (1, 3, 2, 3, 1, 2), (1, 3, 2, 1, 3, 2),
            (3, 1, 2, 3, 1, 2), (3, 1, 2, 1, 3, 2), (3, 2, 1, 2, 3, 2), (3, 2, 1, 3, 2, 3),
        ]
    )
    checks.append(list(w04.words) == pinned_w04_words)
    checks.append(len(zam.clouds) == 8 and len(zam.edges) == 8)
    s, t = source_sink(zam)
    checks.append(s.representative == (1, 2, 1, 3, 2, 1))
    checks.append((3, 2, 3, 1, 2, 3) in t)
    checks.append(all(len(zam.neighbors(c)) == 2 for c in zam.clouds))

    report(1, all(checks), "graph shapes and vertex sets reproduce exactly", time.time() - t0, 1.0)


def test_criterion_2_braid_morphism_tables():
    t0 = time.time()
    checks = []
    rank = 4
    up = BraidMove(0, "up", 1)
    down = BraidMove(0, "down", 1)

    # defining images, normalized
    up_table = derive_local_table(up, rank)
    checks.append(
        up_table[0b001]
        == from_tensor((2, 1, 2), (x(1) + x(2), one(), one(), one()), rank)
        - from_tensor((2, 1, 2), (one(), one(), one(), x(3)), rank)
    )
    down_gen = from_tensor((2, 1, 2), (one(), x(3), one(), one()), rank)
    checks.append(
        apply_edge(down_gen, down)
        == from_tensor((1, 2, 1), (one(), one(), one(), x(2) + x(3)), rank)
        - from_tensor((1, 2, 1), (x(1), one(), one(), one()), rank)
    )
    checks.append(
        apply_edge(from_tensor((1, 2, 1), (one(), x(2), one(), one()), rank), up)
        == from_tensor((2, 1, 2), (one(), one(), one(), x(3)), rank)
    )
    checks.append(
        apply_edge(from_tensor((2, 1, 2), (one(), one(), x(2), one()), rank), down)
        == left_mul(x(1), BSElement.generator((1, 2, 1), rank))
    )

    # the all-ones tensor is fixed, and every table entry is homogeneous
    moves = [up, down, BraidMove(0, "up", 2), BraidMove(0, "down", 2), BraidMove(0, "distant", 1, 3)]
    for move in moves:
        table = derive_local_table(move, rank)
        checks.append(table[0] == BSElement.generator(move.target_window(), rank))
        checks.append(all(tagged_degrees(img.terms, rank) <= {2 * mask.bit_count()} for mask, img in enumerate(table)))

    # bimodule linearity over 1000 randomized (polynomial, element) pairs
    rng = random.Random(97)
    cases = [
        ((1, 2, 1), BraidMove(0, "up", 1)),
        ((2, 1, 2), BraidMove(0, "down", 1)),
        ((1, 3, 2), BraidMove(0, "distant", 1, 3)),
        ((2, 3, 2, 1), BraidMove(0, "up", 2)),
    ]
    linear = True
    for _ in range(1000):
        word, move = cases[rng.randrange(len(cases))]
        coeffs = {
            mask: random_polynomial(rng, rank, max_terms=2)
            for mask in rng.sample(range(1 << len(word)), k=2)
        }
        e = element(rank, word, coeffs)
        p = random_polynomial(rng, rank, max_terms=2)
        left_ok = apply_edge(left_mul(p, e), move) == left_mul(p, apply_edge(e, move))
        right_ok = apply_edge(right_mul(e, p), move) == right_mul(apply_edge(e, move), p)
        linear = linear and left_ok and right_ok
    checks.append(linear)

    # distant round trips are identities, edge matrices are homogeneous
    word = (1, 3, 2, 3, 1)
    for move, _ in braid_moves(word):
        mat = edge_matrix(move, word, rank)
        checks.append(preserves_degree(mat))
        if move.kind == "distant":
            back = edge_matrix(move.reversed(), move.apply(word), rank)
            checks.append(back.compose(mat) == MorphismMatrix.identity(word, rank))

    report(2, all(checks), "local tables match the defining formulas", time.time() - t0, 30.0)


def test_criterion_3_counterexample_reproduction():
    t0 = time.time()
    rep = fpc.reproduce_counterexample()
    word = (1, 3, 2, 3, 1)
    x2_form = from_tensor(word, (one(), x(2), one(), one(), one(), one()), 4)
    x3_form = from_tensor(word, (one(), one(), one(), x(3), one(), one()), 4)
    checks = [
        # the two images are bit-exactly the pinned tensors (the loop through
        # the sink first yields the x_2 tensor, the loop through the source
        # first returns the element itself; see the decisions ledger on the
        # printed attribution)
        rep.image_a == x2_form,
        rep.image_b == x3_form,
        rep.image_a != rep.image_b,
        rep.matrices_differ,
        rep.dots_a == left_mul(x(2), BSElement.generator((3, 2, 3), 4)),
        rep.dots_b == from_tensor((3, 2, 3), (one(), one(), x(3), one()), 4),
        rep.dots_a != rep.dots_b,
    ]
    report(3, all(checks), "the 12321 counterexample is reproduced exactly", time.time() - t0, 5.0)


def test_criterion_4_source_sink_identities():
    t0 = time.time()
    checks = []
    for n in (3, 4):
        z_report = fpc.check_zam_identities(n)
        checks.append(z_report.z_zb_z_equals_z)
        checks.append(z_report.zb_z_zb_equals_zb)
        checks.append(z_report.zb_z_idempotent)
        checks.append(z_report.zb_z_proper)
        checks.append(fpc.check_dud_udu_all(n))
    report(4, all(checks), "source/sink identities and DUD=UDU at ranks 3, 4", time.time() - t0, 600.0)


def test_criterion_5_equivalence_lemmas():
    t0 = time.time()
    lemmas = fpc.check_equivalence_lemmas()
    ok = lemmas.all_hold
    detail = "; ".join(name for name, good in lemmas.results.items() if not good) or (
        "all path equivalences hold"
    )
    report(5, ok, detail, time.time() - t0, 120.0)


def test_criterion_6_s4_sweep():
    t0 = time.time()
    sweep = fpc.check_s4_sweep()
    failing = word_to_perm(fpc.FAILING_S4_WORD, 4)
    checks = [sweep.all_expected, len(sweep.rows) == 24]
    for row in sweep.rows:
        if word_to_perm(row.element, 4) == failing:
            checks.append(not row.holds)
        else:
            checks.append(row.holds)
    report(6, all(checks), "all 24 elements match the table; only 12321 fails", time.time() - t0, 900.0)


def test_criterion_7_family_of_counterexamples():
    t0 = time.time()
    checks = []
    fam4 = fpc.check_family(4)
    checks.append(fam4.morphisms_differ)
    fam5 = fpc.check_family(5)  # pinned golden value, confirmed by this computation
    checks.append(fam5.morphisms_differ)
    checks.append(fam5.word == (1, 2, 3, 4, 3, 2, 1))
    img_long, img_short = fpc.family_extra_pair()
    checks.append(img_long != img_short)
    report(7, all(checks), "line-family paths separate at ranks 4 and 5", time.time() - t0, 300.0)


def test_criterion_8_refined_conjecture():
    t0 = time.time()
    checks = []
    for n in (3, 4):
        verdict = fpc.check_refined_conjecture(n, 10)
        checks.append(verdict.holds)
    report(8, all(checks), "paths through source and sink agree at ranks 3, 4", time.time() - t0, 600.0)


def test_simplification_preserves_morphisms_on_the_cycle():
    # supporting invariant: canonical zig-zag rewriting is sound on the
    # longest element of S_4 for every complete path with a direct subpath
    t0 = time.time()
    ok = fpc.check_simplify_soundness()
    print(f"supporting: simplify soundness on the rank-4 cycle ({time.time() - t0:.2f}s)")
    assert ok
