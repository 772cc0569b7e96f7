"""Local image tables, edge morphisms, and path-morphism matrices."""

from __future__ import annotations

import gc
import random
from fractions import Fraction

import oracle_fpc
import pytest
from hypothesis import given, strategies as st

from rexcalc import braidmor
from rexcalc.braidmor import (
    ConflatedMorphisms,
    MorphismMatrix,
    apply_edge,
    derive_local_table,
    edge_matrix,
    move_between,
    path_morphism,
)
from rexcalc.bsbimod import BSElement, from_tensor, left_mul, right_mul
from rexcalc.polyring import (
    MAX_DEGREE,
    ExponentOverflowError,
    Polynomial,
    tagged_image,
    untag_column,
)
from rexcalc.rexgraph import (
    CONFLATED,
    EXPANDED,
    Path,
    build_rex_graph,
    graph_for_word,
    lift_conflated_path,
    source_sink,
)
from rexcalc.fpc import family_word
from rexcalc.symgroup import (
    DISTANT,
    BraidMove,
    all_permutations,
    braid_moves,
    longest_element,
    reduced_words,
    word_to_perm,
)

from conftest import (
    column,
    element,
    matrix,
    preserves_degree,
    random_polynomial,
    random_reduced_word,
    tag_column,
    tagged_degrees,
)


def x(i, rank=4):
    return Polynomial.variable(i, rank)


def one(rank=4):
    return Polynomial.one(rank)


def whole_lift_morphism(conf, rex, path):
    """Oracle for ConflatedMorphisms.path_matrix: lift the whole path, then compose."""
    return path_morphism(lift_conflated_path(conf, rex, path), rex.rank)


UP_MOVE = BraidMove(0, "up", 1)  # window (1,2,1) -> (2,1,2)
DOWN_MOVE = BraidMove(0, "down", 1)  # window (2,1,2) -> (1,2,1)
DISTANT_MOVE = BraidMove(0, "distant", 2, 4)


# -- local tables against the defining formulas ---------------------------------


def test_up_generator_image():
    table = derive_local_table(UP_MOVE, 4)
    dst = (2, 1, 2)
    expected = from_tensor(dst, (x(1) + x(2), one(), one(), one()), 4) - from_tensor(
        dst, (one(), one(), one(), x(3)), 4
    )
    assert table[0b001] == expected


def test_up_image_of_middle_variable():
    # 1 (x) x_2 (x) 1 (x) 1 maps to 1 (x) 1 (x) 1 (x) x_3
    src, dst = (1, 2, 1), (2, 1, 2)
    e = from_tensor(src, (one(), x(2), one(), one()), 4)
    assert apply_edge(e, UP_MOVE) == from_tensor(dst, (one(), one(), one(), x(3)), 4)


def test_down_generator_image():
    table = derive_local_table(DOWN_MOVE, 4)
    # window (2,1,2): the defining generator carries x_3 in the first slot
    src, dst = (2, 1, 2), (1, 2, 1)
    gen = from_tensor(src, (one(), x(3), one(), one()), 4)
    expected = from_tensor(dst, (one(), one(), one(), x(2) + x(3)), 4) - from_tensor(
        dst, (x(1), one(), one(), one()), 4
    )
    assert apply_edge(gen, DOWN_MOVE) == expected


def test_down_image_of_third_slot_variable():
    # 1 (x) 1 (x) x_2 (x) 1 maps to x_1 times the all-ones tensor
    src, dst = (2, 1, 2), (1, 2, 1)
    e = from_tensor(src, (one(), one(), x(2), one()), 4)
    assert apply_edge(e, DOWN_MOVE) == left_mul(x(1), BSElement.generator(dst, 4))


def test_distant_images_swap_masks():
    table = derive_local_table(DISTANT_MOVE, 5)
    assert table[0b00] == BSElement.generator((4, 2), 5)
    assert table[0b01] == BSElement.basis((4, 2), 0b10, 5)
    assert table[0b10] == BSElement.basis((4, 2), 0b01, 5)
    assert table[0b11] == BSElement.basis((4, 2), 0b11, 5)


def test_distant_image_forced_by_sliding():
    # independent route: 1 (x) x_2 (x) 1 equals the generator times x_2 on the
    # right, so linearity forces its image
    e = from_tensor((2, 4), (one(5), x(2, 5), one(5)), 5)
    assert e == right_mul(BSElement.generator((2, 4), 5), x(2, 5))
    image = apply_edge(e, DISTANT_MOVE)
    assert image == right_mul(BSElement.generator((4, 2), 5), x(2, 5))


def test_generator_goes_to_generator_everywhere():
    for move, rank in [(UP_MOVE, 4), (DOWN_MOVE, 4), (DISTANT_MOVE, 5), (BraidMove(0, "up", 2), 4)]:
        table = derive_local_table(move, rank)
        assert table[0] == BSElement.generator(move.target_window(), rank)


def test_table_images_are_homogeneous():
    for move, rank in [(UP_MOVE, 4), (DOWN_MOVE, 4), (DISTANT_MOVE, 5)]:
        table = derive_local_table(move, rank)
        # the image of basis tensor mask sits in its degree, 2 * popcount(mask) - k
        for mask, image in enumerate(table):
            assert tagged_degrees(image.terms, rank) <= {2 * mask.bit_count()}


# -- edge morphisms on whole words -----------------------------------------------


def test_apply_edge_fixes_generator():
    word = (1, 3, 2, 3, 1)
    gen = BSElement.generator(word, 4)
    for move, _ in braid_moves(word):
        image = apply_edge(gen, move)
        assert image == BSElement.generator(move.apply(word), 4)


def test_apply_edge_distant_reindexes_masks():
    word = (1, 3, 2, 3, 1)
    e = from_tensor(word, (one(), one(), one(), x(3), one(), one()), 4)
    move = BraidMove(0, "distant", 1, 3)
    image = apply_edge(e, move)
    swapped = {}
    for mask, c in e.coeffs.items():
        b0, b1 = mask & 1, (mask >> 1) & 1
        swapped[(mask & ~0b11) | (b0 << 1) | b1] = c
    assert image.word == (3, 1, 2, 3, 1)
    assert dict(image.coeffs) == swapped


def test_edge_matrix_distant_is_permutation_like():
    mat = edge_matrix(DISTANT_MOVE, (2, 4), 5)
    expected = {(0, 0), (0b10, 0b01), (0b01, 0b10), (0b11, 0b11)}
    assert {(r, c) for c in mat.cols for r in column(mat, c)} == expected
    assert all(p == one(5) for c in mat.cols for p in column(mat, c).values())


def test_edge_matrix_generator_column_is_unit():
    for move, word, rank in [
        (UP_MOVE, (1, 2, 1), 4),
        (BraidMove(1, "down", 2), (1, 3, 2, 3, 1), 4),
        (DISTANT_MOVE, (2, 4), 5),
    ]:
        mat = edge_matrix(move, word, rank)
        assert column(mat, 0) == {0: one(rank)}


def test_edge_matrix_up_column_of_first_window_variable():
    # normalizing the defining image (x_1+x_2) 1t - 1t x_3 pins three entries
    mat = edge_matrix(UP_MOVE, (1, 2, 1), 4)
    assert column(mat, 0b001) == {
        0b000: -x(3),
        0b010: one(),
        0b100: one(),
    }


def test_edge_matrices_are_homogeneous():
    for move, word, rank in [
        (UP_MOVE, (1, 2, 1), 4),
        (BraidMove(1, "down", 2), (1, 3, 2, 3, 1), 4),
        (BraidMove(0, "distant", 1, 3), (1, 3, 2, 3, 1), 4),
    ]:
        assert preserves_degree(edge_matrix(move, word, rank))


def test_distant_round_trip_is_identity():
    word = (1, 3, 2, 3, 1)
    move = BraidMove(0, "distant", 1, 3)
    fwd = edge_matrix(move, word, 4)
    back = edge_matrix(move.reversed(), move.apply(word), 4)
    assert back.compose(fwd) == MorphismMatrix.identity(word, 4)


def test_adjacent_triple_identity():
    # f_fwd f_back f_fwd == f_fwd for a single adjacent edge
    word = (1, 2, 1)
    fwd = edge_matrix(UP_MOVE, word, 4)
    back = edge_matrix(DOWN_MOVE, (2, 1, 2), 4)
    assert fwd.compose(back).compose(fwd) == fwd
    assert back.compose(fwd).compose(back) == back


def test_triple_identity_on_every_cycle_edge():
    rex, conf = graph_for_word(longest_element(4), rank=4)
    cm = ConflatedMorphisms(rex, conf)
    for edge in conf.edges:
        a = edge.source.representative
        b = edge.target.representative
        fwd, back = cm.step_matrix(a, b), cm.step_matrix(b, a)
        assert fwd.compose(back).compose(fwd) == fwd
        assert back.compose(fwd).compose(back) == back


def test_bimodule_linearity_randomized():
    rng = random.Random(37)
    word = (1, 2, 1)
    for _ in range(100):
        coeffs = {
            mask: random_polynomial(rng, 4)
            for mask in rng.sample(range(8), k=rng.randint(1, 4))
        }
        e = element(4, word, coeffs)
        p = random_polynomial(rng, 4)
        assert apply_edge(left_mul(p, e), UP_MOVE) == left_mul(p, apply_edge(e, UP_MOVE))
        assert apply_edge(right_mul(e, p), UP_MOVE) == right_mul(apply_edge(e, UP_MOVE), p)


def _column_by_column(move, word, rank):
    """The direct build of an edge matrix: apply_edge on every basis tensor."""
    cols, target = {}, None
    for c in range(1 << len(word)):
        image = apply_edge(BSElement.basis(word, c, rank), move)
        target, cols[c] = image.word, image.terms
    return MorphismMatrix(rank, word, target, cols)


def _cross_check_words():
    cases = [
        (u, n)
        for w, n in [(family_word(5), 5), (longest_element(4), 4), ((1, 3, 2, 3, 1), 4)]
        for u in reduced_words(word_to_perm(w, n))
    ]
    rng = random.Random(61)
    for n in (5, 6):
        picked = 0
        while picked < 4:
            word = random_reduced_word(rng, n, moves=4)
            if 4 <= len(word) <= 8 and braid_moves(word):
                cases.append((word, n))
                picked += 1
    return cases


def test_for_edge_matches_column_by_column_apply_edge():
    positions = set()
    for word, rank in _cross_check_words():
        for move, _ in braid_moves(word):
            fast = MorphismMatrix.for_edge(move, word, rank)
            direct = _column_by_column(move, word, rank)
            assert fast.domain == direct.domain == word
            assert fast.codomain == direct.codomain == move.apply(word)
            assert fast.cols == direct.cols, (word, move)
            positions.add(
                "first" if move.position == 0
                else "last" if move.position + move.width == len(word)
                else "inner"
            )
    assert positions == {"first", "last", "inner"}


# -- path morphisms ----------------------------------------------------------------


def test_empty_path_is_identity():
    path = Path(EXPANDED, ((1, 2, 1),))
    assert path_morphism(path, 4) == MorphismMatrix.identity((1, 2, 1), 4)


def test_out_and_back_along_distant_edge():
    path = Path(EXPANDED, ((1, 3, 2, 3, 1), (3, 1, 2, 3, 1), (1, 3, 2, 3, 1)))
    assert path_morphism(path, 4) == MorphismMatrix.identity((1, 3, 2, 3, 1), 4)


def _random_expanded_walks(rng, rex, count, max_steps):
    for _ in range(count):
        walk = [rng.choice(rex.words)]
        for _ in range(rng.randint(1, max_steps)):
            walk.append(rng.choice(list(rex.moves(walk[-1])))[0])
        yield Path(EXPANDED, tuple(walk))


def test_path_morphism_matches_edge_by_edge_products():
    # the oracle multiplies in every move's edge matrix; path_morphism
    # applies each run of distant moves as one mask permutation and
    # multiplies only adjacent ones
    rng = random.Random(20)
    shapes = set()
    for word, rank in [
        ((1, 2, 3, 2, 1), 4),
        ((1, 2, 1, 3, 2, 1), 4),
        ((1, 2, 3, 4, 5, 4, 3, 2, 1), 6),
        (longest_element(5), 5),
        ((2, 4, 1, 3, 5, 2), 6),
    ]:
        rex, _ = graph_for_word(word, rank)
        for path in _random_expanded_walks(rng, rex, 12, 12):
            assert path_morphism(path, rank) == oracle_fpc.path_morphism(path, rank), path.vertices
            steps = zip(path.vertices, path.vertices[1:])
            kinds = "".join("d" if move_between(u, v).kind == "distant" else "a" for u, v in steps)
            shapes.update(shape for shape in ("dd", "dad") if shape in kinds)
    # runs of distant moves, and distant moves on both sides of an adjacent one
    assert shapes == {"dd", "dad"}


def test_distant_tables_are_mask_swaps_at_rank_11():
    for i in range(1, 11):
        for j in range(1, 11):
            if abs(i - j) < 2:
                continue
            table = derive_local_table(BraidMove(0, "distant", i, j), 11)
            for mask in range(4):
                swapped = (mask & 1) << 1 | mask >> 1
                assert table[mask] == BSElement.basis((j, i), swapped, 11), (i, j, mask)


def test_distant_edge_matrices_are_row_bit_swaps():
    # every distant edge of the element of 123545321, in both directions: the
    # edge matrix and the one-step path morphism are the identity with row
    # bits pos and pos + 1 swapped
    rex, _ = graph_for_word((1, 2, 3, 5, 4, 5, 3, 2, 1), 6)
    count = 0
    for u in rex.words:
        for v, move in rex.moves(u):
            if move.kind != DISTANT:
                continue
            pos = move.position
            swap = {c: c ^ 3 << pos if (c >> pos ^ c >> pos + 1) & 1 else c for c in range(1 << len(u))}
            expected = matrix(6, u, v, {c: {r: one(6)} for c, r in swap.items()})
            assert edge_matrix(move, u, 6) == expected, (u, v)
            assert path_morphism(Path(EXPANDED, (u, v)), 6) == expected, (u, v)
            count += 1
    assert count == 240


def _fake_from_tensor(bad_word, image):
    real = braidmor.from_tensor

    def fake(word, slots, rank):
        return image(word, rank) if word == bad_word else real(word, slots, rank)

    return fake


@pytest.mark.parametrize(
    "name, fake, move, message",
    [
        (
            "from_tensor",
            _fake_from_tensor((1, 3), BSElement.zero),
            BraidMove(0, "distant", 1, 10),
            "window rewrite failed for mask 0 of 1,10",
        ),
        (
            "from_tensor",
            _fake_from_tensor((3, 1), BSElement.generator),
            BraidMove(0, "distant", 1, 10),
            "distant image of mask 1 of 1,10 is not its swapped basis tensor",
        ),
        (
            "_express_adjacent_slots",
            lambda *args: [],
            BraidMove(0, "up", 9),
            "window rewrite failed for mask 0 of 9,10,9",
        ),
        (
            "from_tensor",
            _fake_from_tensor((3, 1), BSElement.zero),
            BraidMove(0, "distant", 10, 1),
            "window rewrite failed for mask 0 of 10,1",
        ),
        (
            "from_tensor",
            _fake_from_tensor((1, 3), BSElement.zero),
            Path(EXPANDED, ((1, 10), (10, 1))),
            "window rewrite failed for mask 0 of 1,10",
        ),
    ],
)
def test_table_checks_name_the_window_by_its_label(monkeypatch, name, fake, move, message):
    # the fault sits in the window's shape, derived at rank 3 or 4; the message names the window,
    # also when a path's run of distant moves checks its shapes
    monkeypatch.setattr(braidmor, name, fake)
    braidmor._shape_table.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            path_morphism(move, 11) if isinstance(move, Path) else derive_local_table(move, 11)
    finally:
        braidmor._shape_table.cache_clear()


def test_move_between_rejects_non_neighbors():
    with pytest.raises(ValueError, match="^121 and 121 do not differ by a single braid move$"):
        move_between((1, 2, 1), (1, 2, 1))
    with pytest.raises(ValueError, match="^1,2,10 and 1,10,2,1 do not differ by a single braid move$"):
        move_between((1, 2, 10), (1, 10, 2, 1))


def test_step_matrix_names_words_by_their_labels():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    cm = ConflatedMorphisms(rex, conf)
    with pytest.raises(ValueError, match="^no conflated edge between 12321 and 32123$"):
        cm.step_matrix((1, 2, 3, 2, 1), (3, 2, 1, 2, 3))


def test_matrix_apply_matches_columns():
    mat = edge_matrix(UP_MOVE, (1, 2, 1), 4)
    for mask in range(8):
        col = mat.apply(BSElement.basis((1, 2, 1), mask, 4))
        assert dict(col.coeffs) == column(mat, mask)


def test_repr_labels_words_with_word_label():
    # letters above 9 are comma-separated, as everywhere a word is printed
    assert repr(MorphismMatrix.identity((1, 2, 10), 11)) == "MorphismMatrix(1,2,10 -> 1,2,10, 8 entries)"
    up = edge_matrix(UP_MOVE, (1, 2, 1), 4)
    assert repr(up) == f"MorphismMatrix(121 -> 212, {sum(len(column(up, c)) for c in up.cols)} entries)"
    assert repr(MorphismMatrix.identity((), 2)) == "MorphismMatrix(e -> e, 1 entries)"


def test_apply_matches_chained_apply_edge():
    # apply runs tagged_image on the element's coefficients; chaining
    # apply_edge along the walk shares no product code with it
    rng = random.Random(368)
    for word, rank in [((1, 2, 3, 2, 1), 4), ((1, 2, 1, 3, 2, 1), 4), ((2, 1, 3, 2, 4, 3), 5)]:
        rex, _ = graph_for_word(word, rank)
        for _ in range(6):
            walk = [word]
            for _ in range(rng.randint(1, 5)):
                walk.append(rng.choice(list(rex.moves(walk[-1])))[0])
            slots = [random_polynomial(rng, rank, max_terms=2, max_exp=1) + one(rank) for _ in word]
            elem = from_tensor(word, [one(rank)] + slots, rank)
            assert elem.coeffs
            want = elem
            for u, v in zip(walk, walk[1:]):
                want = apply_edge(want, move_between(u, v))
            assert path_morphism(Path(EXPANDED, tuple(walk)), rank).apply(elem) == want


def test_conflated_identity_path():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    middle = next(c for c in conf.clouds if len(c.members) == 4)
    path = Path(CONFLATED, (middle.representative,))
    ident = MorphismMatrix.identity(middle.representative, 4)
    assert whole_lift_morphism(conf, rex, path) == ident
    assert ConflatedMorphisms(rex, conf).path_matrix(path.vertices) == ident


def test_apply_edge_counterexample_first_step():
    # pushing the distinguished element across the window (3,2,3) -> (2,3,2)
    # moves the slot-3 variable out as x_2 in the second slot
    word = (1, 3, 2, 3, 1)
    e = from_tensor(word, (one(), one(), one(), x(3), one(), one()), 4)
    image = apply_edge(e, BraidMove(1, "down", 2))
    assert image == from_tensor((1, 2, 3, 2, 1), (one(), x(2), one(), one(), one(), one()), 4)


def test_conflated_path_morphism_is_lift_composition():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    path = Path(CONFLATED, (s.representative, c, t.representative))
    chained = ConflatedMorphisms(rex, conf).path_matrix(path.vertices)
    lifted = lift_conflated_path(conf, rex, path)
    assert chained == path_morphism(lifted, 4)
    assert chained.domain == s.representative and chained.codomain == t.representative


def test_conflated_morphism_independent_of_lift():
    # two expanded paths realizing [c, s, c]: the canonical lift, and one
    # taking a detour around the four-word cloud before crossing
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    s, _ = source_sink(conf)
    c = next(cl for cl in conf.clouds if len(cl.members) == 4)
    path = Path(CONFLATED, (c.representative, s.representative, c.representative))
    canonical = lift_conflated_path(conf, rex, path)
    detour = Path(
        EXPANDED,
        (
            (1, 3, 2, 1, 3),
            (3, 1, 2, 1, 3),
            (3, 1, 2, 3, 1),
            (1, 3, 2, 3, 1),
            (1, 2, 3, 2, 1),
            (1, 3, 2, 3, 1),
            (1, 3, 2, 1, 3),
        ),
    )
    assert path_morphism(canonical, 4) == path_morphism(detour, 4)


def test_conflated_morphism_independent_of_crossing_edge():
    # the octagon's two clouds are joined by two parallel adjacent edges,
    # 1214 -> 2124 and 4121 -> 4212; lifting through either gives the same
    # morphism between the representatives
    from rexcalc.rexgraph import distant_path

    rex, conf = graph_for_word((1, 2, 1, 4))
    s, t = source_sink(conf)
    sr, tr = s.representative, t.representative

    def lift_via(a, b):
        pre = distant_path(rex, sr, a)
        post = distant_path(rex, b, tr)
        return Path(EXPANDED, tuple(pre) + tuple(post))

    through_first = lift_via((1, 2, 1, 4), (2, 1, 2, 4))
    through_second = lift_via((4, 1, 2, 1), (4, 2, 1, 2))
    assert len(through_second) == 8  # crosses the far edge after three distant hops
    assert path_morphism(through_first, 5) == path_morphism(through_second, 5)


def test_composed_matrices_stay_homogeneous():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    cm = ConflatedMorphisms(rex, conf)
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    z = cm.path_matrix((s.representative, c, t.representative))
    assert preserves_degree(z)
    assert preserves_degree(cm.path_matrix((c, s.representative, c, t.representative, c)))


def test_conflated_step_matrices_compose_like_whole_lift():
    rex, conf = graph_for_word((2, 3, 1, 2, 1))
    cm = ConflatedMorphisms(rex, conf)
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    seq = (c, s.representative, c, t.representative)
    assert cm.path_matrix(seq) == whole_lift_morphism(conf, rex, Path(CONFLATED, seq))
    # random walks, each chained step by step against the lift of the whole walk
    rng = random.Random(11)
    for word, rank in [((1, 2, 3, 2, 1), 4), ((1, 2, 1, 3, 2, 1), 4), ((1, 2, 1, 4), 5)]:
        rex, conf = graph_for_word(word, rank)
        cm = ConflatedMorphisms(rex, conf)
        for _ in range(5):
            walk = [rng.choice(conf.clouds)]
            for _ in range(rng.randint(1, 6)):
                walk.append(rng.choice(conf.neighbors(walk[-1])))
            seq = tuple(cl.representative for cl in walk)
            assert cm.path_matrix(seq) == whole_lift_morphism(conf, rex, Path(CONFLATED, seq))


def test_only_step_matrices_outlive_a_conflated_build():
    # a build multiplies nothing: after it, every live matrix over the
    # element's words is a step matrix of some live ConflatedMorphisms, and
    # none of their columns is built yet
    rex, conf = graph_for_word((2, 3, 2, 4, 3, 2), 5)
    cm = ConflatedMorphisms(rex, conf)
    gc.collect()
    words = set(rex.words)
    live = [o for o in gc.get_objects() if isinstance(o, MorphismMatrix) and o.domain in words]
    steps = {
        id(m)
        for o in gc.get_objects()
        if isinstance(o, ConflatedMorphisms)
        for m in (*o.forward.values(), *o.backward.values())
    }
    assert len(live) >= 2 * len(cm.forward) > 0
    assert [m for m in live if id(m) not in steps] == []
    assert [m for m in (*cm.forward.values(), *cm.backward.values()) if m.cols.built] == []


# -- step columns built on first read, against the lifted path's whole matrix ------


def _step_oracle_words():
    rng = random.Random(2026)
    return {
        "every-s4-element": [(build_rex_graph(perm).words[0], 4) for perm in all_permutations(4)],
        "line-5-and-6": [(family_word(5), 5), (family_word(6), 6)],
        "random-rank-5": [(random_reduced_word(rng, 5), 5) for _ in range(6)],
    }


@pytest.mark.parametrize("words", _step_oracle_words().values(), ids=_step_oracle_words().keys())
def test_step_columns_built_on_read_match_the_lifted_path_morphism(words):
    # path_morphism of an edge's lift is the direct implementation: each
    # column a step builds, read in a random order, is the oracle's column,
    # only the columns read are built, a column the oracle lacks is absent,
    # and step_matrix is the oracle's whole matrix
    rng = random.Random(7)
    checked = 0
    for word, rank in words:
        rex, conf = graph_for_word(word, rank)
        cm = ConflatedMorphisms(rex, conf)
        for (a, b), step in {**cm.forward, **cm.backward}.items():
            oracle = path_morphism(lift_conflated_path(conf, rex, Path(CONFLATED, (a, b))), rank)
            count = 1 << len(a)
            read = rng.sample(range(count), rng.randint(1, count))
            for c in read:
                assert step.cols.get(c) == oracle.cols[c]
            assert sorted(step.cols.built) == sorted(read)
            for c in (-1, count, count + 1):
                assert step.cols.get(c) is None and c not in oracle.cols
            assert len(step.cols) == len(oracle.cols) == count
            assert cm.step_matrix(a, b) == oracle and oracle == cm.step_matrix(a, b)
            checked += 1
    assert checked >= 8


# -- consistency of the orientation ---------------------------------------------


def test_disjoint_square_routes_agree():
    rex, conf = graph_for_word((1, 2, 1, 3, 4, 3))
    cm = ConflatedMorphisms(rex, conf)
    s, t = source_sink(conf)
    mids = [b for b, (_, forward) in conf.links[s.representative].items() if forward]
    assert len(mids) == 2
    route1 = cm.path_matrix((s.representative, mids[0], t.representative))
    route2 = cm.path_matrix((s.representative, mids[1], t.representative))
    assert route1 == route2


def test_distant_hexagon_routes_agree():
    rex, conf = graph_for_word((2, 4, 6))
    start, goal = (2, 4, 6), (6, 4, 2)
    clockwise = Path(EXPANDED, ((2, 4, 6), (4, 2, 6), (4, 6, 2), (6, 4, 2)))
    counter = Path(EXPANDED, ((2, 4, 6), (2, 6, 4), (6, 2, 4), (6, 4, 2)))
    assert path_morphism(clockwise, 7) == path_morphism(counter, 7)


def test_zamolodchikov_halves_agree():
    rex, conf = graph_for_word(longest_element(4), rank=4)
    cm = ConflatedMorphisms(rex, conf)
    s, t = source_sink(conf)
    left = [
        conf.cloud(w).representative
        for w in [(2, 1, 2, 3, 2, 1), (2, 1, 3, 2, 3, 1), (2, 3, 2, 1, 2, 3)]
    ]
    right = [
        conf.cloud(w).representative
        for w in [(1, 2, 3, 2, 1, 2), (1, 3, 2, 3, 1, 2), (3, 2, 1, 2, 3, 2)]
    ]
    m_left = cm.path_matrix([s.representative] + left + [t.representative])
    m_right = cm.path_matrix([s.representative] + right + [t.representative])
    assert m_left == m_right


# -- the tagged-column kernel against the oracle's column_image --------------

# a small coefficient set with halves and thirds, and monomials of degree at
# most 1 in each variable, so that entries collide, cancel to zero and have
# denominators that cancel
COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(2, 3)])
KERNEL_WORD = (1, 3)  # four basis masks


def polynomials(rank):
    monos = st.tuples(*[st.integers(0, 1)] * rank)
    return st.dictionaries(monos, COEFFS, max_size=3).map(lambda terms: Polynomial(rank, terms))


def columns(rank, rows=4):
    """A column: zero, a unit entry 1, or random entries (some of them zero)."""
    general = st.dictionaries(st.integers(0, rows - 1), polynomials(rank), max_size=rows).map(
        lambda col: {r: p for r, p in col.items() if p}
    )
    unit = st.integers(0, rows - 1).map(lambda r: {r: Polynomial.one(rank)})
    return st.one_of(st.just({}), unit, general)


@st.composite
def step_and_column(draw):
    rank = draw(st.integers(1, 4))
    cols = {c: draw(columns(rank)) for c in range(4)}
    step = matrix(rank, KERNEL_WORD, KERNEL_WORD, cols)
    return step, draw(columns(rank)), rank


def assert_same_column(got: dict, expected: dict) -> None:
    """Equal {row: polynomial} columns with no empty row, whose entries hash and print alike.

    A cancelled denominator may leave Fraction(n, 1) where the expected
    entry holds n; the two must be indistinguishable.
    """
    assert got == expected
    assert all(got.values())
    assert {r: (hash(p), str(p)) for r, p in got.items()} == {r: (hash(p), str(p)) for r, p in expected.items()}


def kernel_image(step: MorphismMatrix, col: dict, rank: int) -> dict:
    return untag_column(tagged_image(step.cols, tag_column(col, rank).items(), rank), rank)


@given(step_and_column())
def test_tagged_image_matches_column_image(case):
    step, col, rank = case
    expected = oracle_fpc.column_image(step, col)
    tagged = tagged_image(step.cols, tag_column(col, rank).items(), rank)
    assert 0 not in tagged.values()
    assert tagged == tag_column(expected, rank)
    assert_same_column(untag_column(tagged, rank), expected)


@pytest.mark.parametrize(
    "step_cols, col, expected",
    [
        # denominators cancel in a product and in a sum
        ({0: {1: x(1) / 2}}, {0: 2 * x(2)}, {1: x(1) * x(2)}),
        ({0: {1: x(1) / 2}, 2: {1: x(1) / 2}}, {0: one(), 2: one()}, {1: x(1)}),
        # entries cancel to zero, leaving no empty row
        ({0: {1: x(1), 3: one()}, 2: {1: -x(1)}}, {0: x(2), 2: x(2)}, {3: x(2)}),
        ({0: {1: x(1)}}, {}, {}),
    ],
    ids=["product", "sum", "zero-row", "zero-column"],
)
def test_tagged_image_settles_and_drops_zeros(step_cols, col, expected):
    step = matrix(4, KERNEL_WORD, KERNEL_WORD, step_cols)
    assert oracle_fpc.column_image(step, col) == expected
    tagged = tagged_image(step.cols, tag_column(col, 4).items(), 4)
    assert tagged == tag_column(expected, 4)
    assert_same_column(untag_column(tagged, 4), expected)


@pytest.mark.parametrize(
    "step_cols, raises",
    [
        ({0: {1: x(2)}}, False),  # degree MAX_DEGREE exactly
        ({0: {1: x(2) ** 2}}, True),
        ({0: {1: x(2) ** 2}, 1: {1: -(x(2) ** 2)}}, True),  # the overflowing products cancel
        ({1: {0: one()}}, False),  # a unit entry multiplies nothing
    ],
    ids=["at-limit", "over", "over-cancelling", "unit"],
)
def test_tagged_image_overflows_exactly_where_column_image_does(step_cols, raises):
    big = Polynomial(4, {(MAX_DEGREE - 1, 0, 0, 0): 1})
    step = matrix(4, KERNEL_WORD, KERNEL_WORD, step_cols)
    col = {0: big, 1: big}
    # the kernel raises for any entry product past MAX_DEGREE, even when such
    # products cancel; the oracle's seed kernel has no degree guard, so it is
    # compared only where no product overflows
    if raises:
        with pytest.raises(ExponentOverflowError):
            kernel_image(step, col, 4)
    else:
        assert kernel_image(step, col, 4) == oracle_fpc.column_image(step, col)


@given(st.integers(1, 5).flatmap(lambda rank: st.tuples(st.just(rank), columns(rank, rows=32))))
def test_tag_untag_round_trip(case):
    rank, col = case
    tagged = tag_column(col, rank)
    assert len(tagged) == sum(len(p.terms) for p in col.values())
    assert_same_column(untag_column(tagged, rank), col)
