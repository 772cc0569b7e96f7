"""A pinned rank-6 computation: two walks of the longest element of S_6 whose maps differ at one basis mask.

Both walks start at the source 121321432154321 and end at the sink
543215432543545 of the conflated graph, and both pass through the two,
so they are eligible for the refined statement as
``fpc.check_refined_conjecture`` encodes it: walks through both source
and sink, compared within each (start, end) group.  The source paper's
text is not at hand, only its abstract, so whether this encoding is
exactly the paper's refined conjecture is not checked here; the tests
pin the computation against the encoding, not a verdict on the paper.

Walk b is walk a with its one back-and-forth detour cut.  The unit column
at generator mask 259 is carried along both through the search pool's
step memos, and pushed along each lift one braid move at a time with
``apply_edge``, which reads no step matrix; the two routes agree, and
the two walks' images differ (55 terms against 31).  At mask 0 they agree.
"""

from __future__ import annotations

import pytest

from rexcalc import fpc, symgroup
from rexcalc.braidmor import ConflatedMorphisms, apply_edge, move_between
from rexcalc.bsbimod import BSElement
from rexcalc.polyring import row_key
from rexcalc.rexgraph import CONFLATED, Path, graph_for_word, lift_conflated_path
from rexcalc.symgroup import longest_element

RANK = 6
WALK_A = tuple(
    tuple(int(letter) for letter in label)
    for label in """
    121321432154321 121321432543212 121321435432132 121321454321432
    121321543215432 121325432125432 121354321325432 121543214325432
    125432124325432 154321324325432 543212324325432 543213234325432
    543212324325432 543212343235432 543212343254324 543212432454324
    543212432543254 543214323543254 543212432543254 543212435432354
    543212454324354 543212543254354 454321243254354 435432123254354
    454321243254354 543212543254354 543212454324354 543212435432354
    543212454324354 543212543254354 543215432354354 543215432543454
    543215432543545
    """.split()
)
WALK_B = WALK_A[:11] + WALK_A[13:]  # the detour through vertices 11 and 12 cut


@pytest.fixture(scope="module")
def rank6():
    """The graphs and step matrices of the longest element of S_6, past the CLI's word limit (292,864 words)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symgroup, "MAX_REDUCED_WORDS", 292_864)
        rex, conf = graph_for_word(longest_element(RANK), rank=RANK)
    return rex, conf, ConflatedMorphisms(rex, conf)


def _pool_image(cm, mask, walk):
    pool = fpc._MatrixPool(cm)
    codomain, i = pool.carry({row_key(mask, RANK): 1}, walk)
    return BSElement(RANK, codomain, dict(pool.cols[i]))


def _pushed_image(rex, conf, mask, walk):
    words = lift_conflated_path(conf, rex, Path(CONFLATED, walk)).vertices
    elem = BSElement.basis(words[0], mask, RANK)
    for u, v in zip(words, words[1:]):
        elem = apply_edge(elem, move_between(u, v))
    return elem


def test_the_walks_are_eligible_for_the_refined_encoding(rank6):
    rex, conf, _ = rank6
    source, sink = (conf.cloud(w).representative for w in (WALK_A[0], WALK_A[-1]))
    assert len(WALK_A) == 33 and len(WALK_B) == 31
    assert WALK_A[10] == WALK_A[12] == WALK_B[10]
    for walk in (WALK_A, WALK_B):
        assert (walk[0], walk[-1]) == (source, sink)
        assert all(b in conf.links[a] for a, b in zip(walk, walk[1:]))


def test_the_walks_differ_at_mask_259_by_both_routes(rank6):
    rex, conf, cm = rank6
    image_a, image_b = (_pool_image(cm, 259, walk) for walk in (WALK_A, WALK_B))
    assert (len(image_a.terms), len(image_b.terms)) == (55, 31)
    assert image_a != image_b
    assert image_a == _pushed_image(rex, conf, 259, WALK_A)
    assert image_b == _pushed_image(rex, conf, 259, WALK_B)


def test_the_walks_agree_at_mask_0(rank6):
    rex, conf, cm = rank6
    image_a, image_b = (_pool_image(cm, 0, walk) for walk in (WALK_A, WALK_B))
    assert image_a == image_b == _pushed_image(rex, conf, 0, WALK_A)
