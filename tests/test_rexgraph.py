"""Graph construction, conflation, orientation, lifting, and path utilities."""

from __future__ import annotations

import random
import tracemalloc

import pytest

from rexcalc.rexgraph import (
    CONFLATED,
    EXPANDED,
    Cloud,
    ConflatedGraph,
    NoDirectSubpathError,
    NonUniqueOrientationError,
    Path,
    UnsupportedElementError,
    build_conflated,
    build_rex_graph,
    clouds,
    distant_path,
    enumerate_complete_paths,
    graph_for_word,
    lift_conflated_path,
    simplify_path,
    source_sink,
    to_dot,
)
from rexcalc.symgroup import BraidMove, Permutation, longest_element, word_to_perm

from oracle_rexgraph import edge_counts, in_neighbors, out_neighbors, project_path


def test_line_graph_of_21321():
    rex, conf = graph_for_word((2, 1, 3, 2, 1))
    expected = sorted(
        [(2, 1, 3, 2, 1), (2, 3, 1, 2, 1), (2, 3, 2, 1, 2), (3, 2, 3, 1, 2), (3, 2, 1, 3, 2)]
    )
    assert list(rex.words) == expected
    assert len(tuple(rex.edges)) == 4
    assert edge_counts(rex) == (2, 2)


@pytest.mark.parametrize("word", [(1, 2, 1, 3, 2, 1), (1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4)])
def test_each_reduced_word_is_one_object(word):
    # the neighbour map holds every word as the one object of its entry in words
    rex = build_rex_graph(word_to_perm(word, max(word) + 1))
    stored = {w: w for w in rex.words}
    assert list(rex.neighbours) == list(rex.words)
    assert all(u is stored[u] for u in rex.neighbours)
    assert all(v is stored[v] for u in rex.words for v, _ in rex.moves(u))
    # each word's neighbours are one flat tuple alternating stored words and moves
    for u, flat in rex.neighbours.items():
        assert type(flat) is tuple and len(flat) % 2 == 0
        assert all(v is stored[v] for v in flat[::2])
        assert all(type(m) is BraidMove for m in flat[1::2])
        assert tuple(rex.moves(u)) == tuple(zip(flat[::2], flat[1::2]))


def test_expanded_graph_holds_under_80_bytes_per_adjacency_entry():
    # 121321432154: 5,775 words and 34,972 adjacency entries (each edge twice);
    # one (neighbour, move) tuple per entry held about 102 bytes each
    perm = word_to_perm((1, 2, 1, 3, 2, 1, 4, 3, 2, 1, 5, 4), 6)
    tracemalloc.start()
    try:
        rex = build_rex_graph(perm)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    entries = sum(1 for u in rex.words for _ in rex.moves(u))
    assert entries == 34_972
    assert held / entries < 80


def test_octagon_1214():
    # the octagon: six distant edges plus the two adjacent verticals
    rex, conf = graph_for_word((1, 2, 1, 4))
    assert len(rex.words) == 8
    assert edge_counts(rex) == (6, 2)
    # an 8-cycle: every vertex has exactly two neighbors
    assert all(len(list(rex.moves(w))) == 2 for w in rex.words)
    assert sorted(rex.words) == sorted(
        [
            (1, 2, 1, 4), (1, 2, 4, 1), (1, 4, 2, 1), (4, 1, 2, 1),
            (2, 1, 2, 4), (2, 1, 4, 2), (2, 4, 1, 2), (4, 2, 1, 2),
        ]
    )


def test_hexagon_246():
    rex, conf = graph_for_word((2, 4, 6))
    assert len(rex.words) == 6
    assert edge_counts(rex) == (6, 0)
    assert len(conf.clouds) == 1
    assert conf.clouds[0].representative == (2, 4, 6)


def test_clouds_of_12321():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    sizes = sorted(len(c.members) for c in conf.clouds)
    assert sizes == [1, 1, 4]
    middle = next(c for c in conf.clouds if len(c.members) == 4)
    assert middle.representative == (1, 3, 2, 1, 3)
    assert (1, 3, 2, 3, 1) in middle and (3, 1, 2, 3, 1) in middle


def test_clouds_of_121_are_singletons():
    rex = build_rex_graph(word_to_perm((1, 2, 1), 3))
    assert [len(c.members) for c in clouds(rex)] == [1, 1]


def test_conflated_12321_is_oriented_line():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    assert len(conf.clouds) == 3 and len(conf.edges) == 2
    s, t = source_sink(conf)
    assert s.representative == (1, 2, 3, 2, 1)
    assert t.representative == (3, 2, 1, 2, 3)
    targets = {e.source.representative: e.target.representative for e in conf.edges}
    middle = next(c for c in conf.clouds if c not in (s, t)).representative
    assert targets == {s.representative: middle, middle: t.representative}


def test_conflated_w04_is_zamolodchikov_cycle():
    rex, conf = graph_for_word(longest_element(4), rank=4)
    assert len(rex.words) == 16
    assert edge_counts(rex) == (10, 8)
    assert len(conf.clouds) == 8 and len(conf.edges) == 8
    s, t = source_sink(conf)
    assert (1, 2, 1, 3, 2, 1) in s
    assert (3, 2, 3, 1, 2, 3) in t
    # every vertex has one edge in and one out except source (2 out) and sink (2 in)
    out_deg = {c.representative: len(out_neighbors(conf, c)) for c in conf.clouds}
    in_deg = {c.representative: len(in_neighbors(conf, c)) for c in conf.clouds}
    assert out_deg[s.representative] == 2 and in_deg[s.representative] == 0
    assert in_deg[t.representative] == 2 and out_deg[t.representative] == 0
    assert all(
        out_deg[r] == 1 and in_deg[r] == 1
        for r in out_deg
        if r not in (s.representative, t.representative)
    )


def test_conflated_disjoint_square_121343():
    rex, conf = graph_for_word((1, 2, 1, 3, 4, 3))
    assert len(conf.clouds) == 4 and len(conf.edges) == 4
    s, t = source_sink(conf)
    assert len(out_neighbors(conf, s)) == 2 and len(in_neighbors(conf, t)) == 2


def test_conflated_1214_collapses_parallel_edges():
    # the two adjacent verticals project onto one cloud pair; a single
    # representative edge is retained, the lexicographically least one
    rex, conf = graph_for_word((1, 2, 1, 4))
    assert len(conf.clouds) == 2
    assert [len(c.members) for c in conf.clouds] == [4, 4]
    assert len(conf.edges) == 1
    edge = conf.edges[0]
    assert (edge.expanded_source, edge.expanded_target) == ((1, 2, 1, 4), (2, 1, 2, 4))
    s, t = source_sink(conf)
    assert s.representative == (1, 2, 1, 4) and t.representative == (2, 1, 2, 4)


def test_source_sink_reports_all_when_not_unique():
    # hand-built graphs: two isolated clouds, then the edge 121 -> 212 of
    # S_3 beside two isolated clouds; a cloud is a source when no link
    # enters it and a sink when none leaves it
    _, line = graph_for_word((1, 2, 1), rank=3)
    (edge,) = line.edges
    isolated = (Cloud(((1, 2, 3),)), Cloud(((3, 2, 1),)))
    for edges, sources, sinks, message in [
        ((), ((1, 2, 3), (3, 2, 1)), ((1, 2, 3), (3, 2, 1)), "sources {123, 321}, sinks {123, 321}"),
        (
            (edge,),
            ((1, 2, 1), (1, 2, 3), (3, 2, 1)),
            ((1, 2, 3), (2, 1, 2), (3, 2, 1)),
            "sources {121, 123, 321}, sinks {123, 212, 321}",
        ),
    ]:
        clouds = tuple(sorted({c for e in edges for c in (e.source, e.target)} | set(isolated)))
        links = {c.representative: {} for c in clouds}
        for e in edges:
            links[e.source.representative][e.target.representative] = (e, True)
            links[e.target.representative][e.source.representative] = (e, False)
        fake = ConflatedGraph(
            rank=3,
            element=Permutation.identity(3),
            clouds=clouds,
            edges=edges,
            cloud_of={w: c for c in clouds for w in c.members},
            links=links,
        )
        with pytest.raises(NonUniqueOrientationError) as err:
            source_sink(fake)
        assert (err.value.sources, err.value.sinks) == (sources, sinks)
        # clouds are named by their labels, as in every message
        assert str(err.value) == message


def test_distant_path_inside_cloud():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    assert distant_path(rex, (1, 3, 2, 1, 3), (3, 1, 2, 1, 3)) == [
        (1, 3, 2, 1, 3),
        (3, 1, 2, 1, 3),
    ]


def test_lift_to_sink():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    middle = next(c for c in conf.clouds if len(c.members) == 4)
    path = Path(CONFLATED, (middle.representative, (3, 2, 1, 2, 3)))
    lifted = lift_conflated_path(conf, rex, path)
    assert lifted.vertices == ((1, 3, 2, 1, 3), (3, 1, 2, 1, 3), (3, 2, 1, 2, 3))


def test_lift_to_source():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    middle = next(c for c in conf.clouds if len(c.members) == 4)
    path = Path(CONFLATED, (middle.representative, (1, 2, 3, 2, 1)))
    lifted = lift_conflated_path(conf, rex, path)
    assert lifted.vertices == ((1, 3, 2, 1, 3), (1, 3, 2, 3, 1), (1, 2, 3, 2, 1))


def test_lift_of_stationary_path():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    path = Path(CONFLATED, ((1, 2, 3, 2, 1),))
    assert lift_conflated_path(conf, rex, path).vertices == ((1, 2, 3, 2, 1),)


def test_project_after_lift_recovers_path():
    rng = random.Random(41)
    for word in [(1, 2, 3, 2, 1), (2, 3, 1, 2, 1), longest_element(4)]:
        rex, conf = graph_for_word(word, rank=4)
        reps = sorted(c.representative for c in conf.clouds)
        for _ in range(20):
            seq = [rng.choice(reps)]
            for _ in range(rng.randint(0, 5)):
                nbrs = conf.neighbors(conf.cloud(seq[-1]))
                if not nbrs:
                    break
                seq.append(rng.choice(nbrs).representative)
            path = Path(CONFLATED, tuple(seq))
            lifted = lift_conflated_path(conf, rex, path)
            assert project_path(conf, lifted).vertices == path.vertices


def test_enumerate_complete_paths_middle_loop():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    sr, tr = s.representative, t.representative
    found = [p.vertices for p in enumerate_complete_paths(conf, c, c, 5)]
    assert (c, sr, c, tr, c) in found
    assert (c, tr, c, sr, c) in found


def test_enumerate_complete_paths_two_vertex_graph():
    rex, conf = graph_for_word((1, 2, 1), rank=3)
    found = [p.vertices for p in enumerate_complete_paths(conf, (1, 2, 1), (2, 1, 2), 2)]
    assert found == [((1, 2, 1), (2, 1, 2))]


def test_enumerate_complete_paths_reaches_its_bound():
    rex, conf = graph_for_word((1, 2, 1), rank=3)
    found = [p.vertices for p in enumerate_complete_paths(conf, (1, 2, 1), (2, 1, 2), 8)]
    assert all(len(p) <= 8 for p in found)
    assert max(len(p) for p in found) == 8


def test_enumerate_complete_paths_source_to_sink():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    found = [p.vertices for p in enumerate_complete_paths(conf, s.representative, t.representative, 4)]
    assert found == [(s.representative, c, t.representative)]


def test_enumerate_matches_brute_force():
    # independent oracle: plain nested iteration over all vertex sequences
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    reps = sorted(cl.representative for cl in conf.clouds)
    neighbors = {r: sorted(d.representative for d in conf.neighbors(conf.cloud(r))) for r in reps}
    max_len = 6

    def brute(a, z):
        out = []
        stack = [(a,)]
        while stack:
            seq = stack.pop()
            if seq[-1] == z and set(seq) == set(reps):
                out.append(seq)
            if len(seq) < max_len:
                for v in neighbors[seq[-1]]:
                    stack.append(seq + (v,))
        return sorted(out)

    for a in reps:
        for z in reps:
            got = sorted(p.vertices for p in enumerate_complete_paths(conf, a, z, max_len))
            assert got == brute(a, z)


def test_simplify_already_direct():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    path = Path(CONFLATED, (s.representative, c, t.representative))
    assert simplify_path(conf, path).vertices == path.vertices


def test_simplify_strips_trailing_excursion():
    rex, conf = graph_for_word((2, 3, 1, 2, 1))
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    sr, tr = s.representative, t.representative
    path = Path(CONFLATED, (c, sr, c, tr, c, sr, c))
    assert simplify_path(conf, path).vertices == (c, sr, c, tr, c)


def test_simplify_collapses_repeated_traversals():
    rex, conf = graph_for_word((1, 2, 1), rank=3)
    s, t = source_sink(conf)
    sr, tr = s.representative, t.representative
    path = Path(CONFLATED, (sr, tr, sr, tr))
    assert simplify_path(conf, path).vertices == (sr, tr)


def test_simplify_zigzag_on_three_vertex_line():
    rex, conf = graph_for_word((2, 3, 1, 2, 1))
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    sr, tr = s.representative, t.representative
    path = Path(CONFLATED, (sr, c, tr, c, sr, c, tr))
    assert simplify_path(conf, path).vertices == (sr, c, tr)


def test_n_statistic_constant_on_clouds():
    # the N statistic of a word is its letter sum
    for word in [(1, 2, 3, 2, 1), (1, 2, 1, 4), longest_element(4)]:
        rex, conf = graph_for_word(word)
        for cloud in conf.clouds:
            values = {sum(w) for w in cloud.members}
            assert len(values) == 1


def test_every_cycle_vertex_lies_on_an_oriented_run():
    rex, conf = graph_for_word(longest_element(4), rank=4)
    s, t = source_sink(conf)
    down_from_s = {s}
    frontier = [s]
    while frontier:
        frontier = [d for c in frontier for d in out_neighbors(conf, c) if d not in down_from_s]
        down_from_s.update(frontier)
    assert down_from_s == set(conf.clouds)
    up_from_t = {t}
    frontier = [t]
    while frontier:
        frontier = [d for c in frontier for d in in_neighbors(conf, c) if d not in up_from_t]
        up_from_t.update(frontier)
    assert up_from_t == set(conf.clouds)


def test_simplify_requires_direct_subpath():
    rex, conf = graph_for_word(longest_element(4), rank=4)
    s, t = source_sink(conf)
    # a complete walk that never runs monotonically between source and sink
    sr, tr = s.representative, t.representative
    a = conf.cloud((2, 1, 2, 3, 2, 1)).representative
    b = conf.cloud((2, 1, 3, 2, 3, 1)).representative
    c = conf.cloud((2, 3, 2, 1, 2, 3)).representative
    a2 = conf.cloud((1, 2, 3, 2, 1, 2)).representative
    b2 = conf.cloud((1, 3, 2, 3, 1, 2)).representative
    c2 = conf.cloud((3, 2, 1, 2, 3, 2)).representative
    walk = (b2, a2, sr, a, b, c, b, a, b, c, tr, c2, b2)
    with pytest.raises(NoDirectSubpathError):
        simplify_path(conf, Path(CONFLATED, walk))


def test_simplify_requires_complete_path():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    s, t = source_sink(conf)
    c = next(cl for cl in conf.clouds if cl not in (s, t)).representative
    with pytest.raises(ValueError):
        simplify_path(conf, Path(CONFLATED, (c, s.representative, c)))


def test_simplify_refuses_unsupported_elements():
    rex, conf = graph_for_word((1, 2, 1, 3, 4, 3))  # disjoint square, four vertices
    seq = tuple(c.representative for c in conf.clouds)
    with pytest.raises(UnsupportedElementError):
        simplify_path(conf, Path(CONFLATED, seq))


def test_dot_output_expanded_12321():
    rex, conf = graph_for_word((1, 2, 3, 2, 1))
    dot = "\n".join(to_dot(rex))
    assert dot.count("style=dashed") == 4
    assert dot.count("style=solid") == 2
    assert dot.count('"12321"') >= 1
    assert len([l for l in dot.splitlines() if l.endswith('";')]) == 6


def test_dot_output_singleton():
    rex, conf = graph_for_word((2, 4, 6))
    dot = "\n".join(to_dot(conf))
    assert dot.count("->") == 0
    assert '"246"' in dot


def test_dot_output_w04_counts():
    rex, conf = graph_for_word(longest_element(4), rank=4)
    dot = "\n".join(to_dot(rex))
    assert dot.count("style=dashed") == 10
    assert dot.count("style=solid") == 8
    assert len([l for l in dot.splitlines() if l.endswith('";')]) == 16
