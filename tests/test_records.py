"""Value semantics of the package's records: validation, normal forms, equality, immutability."""

from __future__ import annotations

import copy
import pickle

import pytest

from rexcalc import fpc
from rexcalc.braidmor import MorphismMatrix, apply_edge
from rexcalc.bsbimod import BSElement, from_tensor
from rexcalc.polyring import Polynomial
from rexcalc.rexgraph import (
    CONFLATED,
    EXPANDED,
    Cloud,
    Path,
    build_conflated,
    build_rex_graph,
    distant_path,
    graph_for_word,
    oriented_run,
)
from rexcalc.symgroup import BraidMove, Permutation, word_to_perm

from conftest import element, tag_column


def x(i, rank=4):
    return Polynomial.variable(i, rank)

# -- validation ----------------------------------------------------------------


@pytest.mark.parametrize("images", [(1, 1, 2), (2, 3), (0, 1)])
def test_permutation_refuses_a_non_permutation(images):
    with pytest.raises(ValueError, match="is not a permutation"):
        Permutation(images)


def test_braid_move_refuses_an_unknown_kind_and_close_distant_letters():
    with pytest.raises(ValueError, match="unknown move kind 'sideways'"):
        BraidMove(0, "sideways", 1)
    with pytest.raises(ValueError, match="letters 1, 2 are not distant"):
        BraidMove(0, "distant", 1, 2)


def test_path_refuses_an_unknown_graph_kind():
    with pytest.raises(ValueError, match="unknown graph kind 'dotted'"):
        Path("dotted", ((1,),))


def test_bs_element_refuses_a_mask_out_of_range_and_a_rank_mismatch():
    with pytest.raises(ValueError, match="mask 4 out of range for word of length 2"):
        element(4, (1, 2), {4: x(1)})
    with pytest.raises(ValueError, match="mask -1 out of range"):
        element(4, (1, 2), {-1: x(1)})
    # packed terms carry no rank, so the rank is checked where polynomials
    # meet an element: the slots of from_tensor, and the two sides of a sum
    with pytest.raises(ValueError, match="slot rank mismatch"):
        from_tensor((1, 2), (x(1), x(1), x(1, rank=3)), 4)
    with pytest.raises(ValueError, match="cannot add elements of different bimodules"):
        BSElement.generator((1, 2), 4) + BSElement.generator((1, 2), 3)


# -- normal forms --------------------------------------------------------------


def test_path_stores_its_vertices_as_tuples():
    path = Path(EXPANDED, [[1, 2, 1], (2, 1, 2)])
    assert path.vertices == ((1, 2, 1), (2, 1, 2))
    assert all(type(v) is tuple for v in path.vertices)
    assert type(path.vertices) is tuple
    assert (len(path), path.start) == (2, (1, 2, 1))


def test_cloud_sorts_its_members():
    cloud = Cloud([(3, 1, 2), [1, 3, 2]])
    assert cloud.members == ((1, 3, 2), (3, 1, 2))
    assert cloud.representative == (1, 3, 2)
    assert [3, 1, 2] in cloud


def test_bs_element_drops_zero_coefficients_and_stores_its_word_as_a_tuple():
    e = element(4, [1, 2], {0: Polynomial.zero(4), 1: x(1), 3: x(2) - x(2)})
    assert e.coeffs == {1: x(1)}
    assert e.word == (1, 2) and type(e.word) is tuple
    assert BSElement(4, (1,)).coeffs == {} and BSElement(4, (1,)).terms == {}


# -- equality and hashing ------------------------------------------------------


def _twice():
    """Pairs of equal values built separately, one pair per value record."""
    return [
        (word_to_perm((1, 2, 1), 3), Permutation((3, 2, 1))),
        (BraidMove(2, "distant", 3, 5), BraidMove(position=2, kind="distant", i=3, j=5)),
        (Path(CONFLATED, [[1, 2, 1]]), Path(kind=CONFLATED, vertices=((1, 2, 1),))),
        (Cloud(((3, 1), (1, 3))), Cloud([[1, 3], [3, 1]])),
        (element(4, (1,), {1: x(2)}), BSElement(rank=4, word=[1], terms=tag_column({1: x(2), 0: x(1) - x(1)}, 4))),
    ]


@pytest.mark.parametrize("a, b", _twice(), ids=lambda v: type(v).__name__)
def test_equal_values_are_equal_and_hash_equal(a, b):
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_values_differing_in_one_field_are_unequal():
    assert Permutation((1, 2, 3)) != Permutation((2, 1, 3))
    assert BraidMove(0, "up", 1) != BraidMove(0, "down", 1)
    assert BraidMove(0, "up", 1) != BraidMove(1, "up", 1)
    assert Path(EXPANDED, [(1,)]) != Path(CONFLATED, [(1,)])
    assert Cloud([(1, 3)]) != Cloud([(3, 1)])
    assert element(4, (1,), {1: x(2)}) != element(4, (2,), {1: x(2)})
    assert Permutation((1, 2)) != (1, 2)


def test_graphs_compare_by_identity():
    perm = word_to_perm((1, 2, 3, 2, 1), 4)
    rex_a, rex_b = build_rex_graph(perm), build_rex_graph(perm)
    assert rex_a.words == rex_b.words and rex_a.edges == rex_b.edges
    assert rex_a != rex_b and rex_a == rex_a
    conf_a, conf_b = build_conflated(rex_a), build_conflated(rex_a)
    assert conf_a.clouds == conf_b.clouds and conf_a.edges == conf_b.edges
    assert conf_a != conf_b and conf_a == conf_a
    assert len({rex_a, rex_b, conf_a, conf_b}) == 4


# -- repr ----------------------------------------------------------------------


def test_braid_move_repr_names_every_field():
    # the "move ... does not apply" errors print it
    move = BraidMove(0, "up", 1)
    assert repr(move) == "BraidMove(position=0, kind='up', i=1, j=0)"
    with pytest.raises(ValueError) as info:
        move.apply((2, 1, 2))
    assert str(info.value) == "move BraidMove(position=0, kind='up', i=1, j=0) does not apply to word 212"


UP_1 = BraidMove(0, "up", 1)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: fpc.check_fpc((10, 10), 9, rank=11), "word 10,10 is not reduced"),
        (lambda: graph_for_word((1, 1)), "word 11 is not reduced"),
        (
            lambda: distant_path(graph_for_word((1, 2, 1))[0], (1, 2, 1), (2, 1, 2)),
            "212 not reachable from 121 by distant edges",
        ),
        (
            lambda: oriented_run(graph_for_word((1, 2, 3, 2, 1))[1], (3, 2, 1, 2, 3), (1, 2, 3, 2, 1), "down"),
            "no down run from 32123 to 12321",
        ),
        (lambda: apply_edge(BSElement.generator((2, 1, 2), 3), UP_1), f"move {UP_1} does not apply to word 212"),
        (lambda: MorphismMatrix.for_edge(UP_1, (2, 1, 2), 3), f"move {UP_1} does not apply to word 212"),
    ],
    ids=["check_fpc", "graph_for_word", "distant_path", "oriented_run", "apply_edge", "for_edge"],
)
def test_library_errors_name_words_by_their_labels(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


def test_report_records_take_keywords_and_print_their_fields():
    report = fpc.ZamReport(
        rank=3, z_zb_z_equals_z=True, zb_z_zb_equals_zb=True, zb_z_idempotent=True, zb_z_proper=False
    )
    assert repr(report) == (
        "ZamReport(rank=3, z_zb_z_equals_z=True, zb_z_zb_equals_zb=True, zb_z_idempotent=True, zb_z_proper=False)"
    )
    assert not report.all_hold
    verdict = fpc.FpcVerdict(element=(1,), bound=3, holds=True)
    assert verdict.counterexample is None
    assert repr(verdict) == "FpcVerdict(element=(1,), bound=3, holds=True, counterexample=None)"
    lemmas = fpc.LemmaReport(results={"a": True})
    assert lemmas.all_hold and lemmas.results == {"a": True}


# -- immutability --------------------------------------------------------------


def _records():
    rex = build_rex_graph(word_to_perm((1, 2, 3, 2, 1), 4))
    conf = build_conflated(rex)
    conf.links  # a cached property still caches on a frozen graph
    return [
        ("Permutation", Permutation((2, 1)), "images"),
        ("BraidMove", BraidMove(0, "up", 1), "kind"),
        ("Path", Path(EXPANDED, [(1,)]), "vertices"),
        ("Cloud", Cloud([(1,)]), "members"),
        ("BSElement", element(4, (1,), {1: x(2)}), "terms"),
        ("RexGraph", rex, "words"),
        ("ConflatedGraph", conf, "clouds"),
        ("ConflatedEdge", conf.edges[0], "move"),
        ("FpcVerdict", fpc.FpcVerdict(element=(1,), bound=3, holds=True), "holds"),
        (
            "ZamReport",
            fpc.ZamReport(
                rank=3, z_zb_z_equals_z=True, zb_z_zb_equals_zb=True, zb_z_idempotent=True, zb_z_proper=True
            ),
            "z_zb_z_equals_z",
        ),
        ("LemmaReport", fpc.LemmaReport(results={}), "results"),
    ]


@pytest.mark.parametrize("name, record, field", _records(), ids=lambda v: v if isinstance(v, str) else "")
def test_records_are_immutable_after_construction(name, record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is before
    with pytest.raises(AttributeError):
        record.unknown_field = 1


@pytest.mark.parametrize("a, b", _twice(), ids=lambda v: type(v).__name__)
def test_values_survive_copy_and_pickle(a, b):
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert twin == b and type(twin) is type(a)


def test_a_graph_survives_pickle():
    rex = build_rex_graph(word_to_perm((1, 2, 1), 3))
    conf = pickle.loads(pickle.dumps(build_conflated(rex)))
    assert [c.members for c in conf.clouds] == [((1, 2, 1),), ((2, 1, 2),)]
    assert list(conf.links) == [(1, 2, 1), (2, 1, 2)]
