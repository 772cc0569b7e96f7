"""Reduced-expression graphs, their distant-edge quotients, and paths.

The expanded expressions graph of an element w has the reduced words of
w as vertices and single braid moves as edges, classified as distant
(commuting letters, drawn dashed) or adjacent (drawn solid).  Adjacent
edges carry the Manin-Schechtman orientation: from (i, i+1, i) towards
(i+1, i, i+1).

Collapsing the distant edges yields the conflated expression graph.
Its vertices are clouds (connected components of the distant subgraph,
represented by their lexicographically least word), its edges are the
projected adjacent edges with one representative retained per cloud
pair, and the orientation descends to a proper acyclic orientation with
a unique source and sink.

Paths are vertex sequences; the length of a path is the number of
vertices it lists.  A complete path visits every vertex at least once.

Construction takes the words and each word's moves from one
``braid_closure``, which finds every word's moves once.  Each word's
neighbour list is sorted once and the edge list is read off those lists
in word order, so no global sort is needed; clouds grow from the words in
order, and conflation keys cloud pairs by their representatives.  The
conflated graph's adjacency is one link map, ``ConflatedGraph.links``,
built once from its edges; every accessor and walker reads it.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence

from .symgroup import (
    DISTANT,
    UP,
    BraidMove,
    Frozen,
    Permutation,
    Word,
    braid_closure,
    is_reduced,
    word_label,
    word_to_perm,
)

EXPANDED = "expanded"
CONFLATED = "conflated"


class NonUniqueOrientationError(ValueError):
    """Raised when the orientation fails to have a unique source or sink."""

    def __init__(self, sources: Sequence[Word], sinks: Sequence[Word]):
        self.sources = tuple(sources)
        self.sinks = tuple(sinks)
        super().__init__(f"sources {self.sources}, sinks {self.sinks}")


class NoDirectSubpathError(ValueError):
    """Raised when a path lacks the direct subpath needed to simplify it."""


class UnsupportedElementError(ValueError):
    """Raised for operations only defined on specific elements."""


class Path(Frozen):
    """A walk given by its vertex sequence; length counts vertices."""

    __slots__ = ("kind", "vertices")

    def __init__(self, kind: str, vertices: Sequence[Word]):
        if kind not in (EXPANDED, CONFLATED):
            raise ValueError(f"unknown graph kind {kind!r}")
        self._init(kind, tuple(tuple(v) for v in vertices))

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def start(self) -> Word:
        return self.vertices[0]


class RexGraph(Frozen):
    """Expanded expressions graph: reduced words joined by braid moves.

    ``edges`` is the canonical edge list: u < v lexicographically, and
    the move rewrites u into v.  ``adjacency[u]`` lists (v, move u -> v)
    sorted by v.  Two graphs are equal only if they are one object.
    """

    __slots__ = ("rank", "element", "words", "edges", "adjacency")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        rank: int,
        element: Permutation,
        words: tuple[Word, ...],
        edges: tuple[tuple[Word, Word, BraidMove], ...],
        adjacency: dict[Word, tuple[tuple[Word, BraidMove], ...]],
    ):
        self._init(rank, element, words, edges, adjacency)

    def distant_neighbors(self, w: Word) -> list[tuple[Word, BraidMove]]:
        return [(v, m) for v, m in self.adjacency[w] if m.kind == DISTANT]


class Cloud(Frozen):
    """A distant-edge connected component; the representative is lex-least."""

    __slots__ = ("members",)

    def __init__(self, members: Sequence[Word]):
        self._init(tuple(sorted(tuple(w) for w in members)))

    @property
    def representative(self) -> Word:
        return self.members[0]

    def __contains__(self, word) -> bool:
        return tuple(word) in self.members

    def __lt__(self, other: Cloud) -> bool:
        return self.representative < other.representative

    def __str__(self) -> str:
        return word_label(self.representative)


class ConflatedEdge(NamedTuple):
    """An oriented cloud edge with its retained expanded representative."""

    source: Cloud
    target: Cloud
    expanded_source: Word  # word inside source where the retained move applies
    expanded_target: Word
    move: BraidMove  # the up move expanded_source -> expanded_target


class ConflatedGraph(Frozen):
    """Quotient of the expanded graph by distant edges, MS-oriented.

    Two graphs are equal only if they are one object.  The ``__dict__``
    slot holds the cached ``links``.
    """

    __slots__ = ("rank", "element", "clouds", "edges", "cloud_of", "source", "sink", "__dict__")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(
        self,
        rank: int,
        element: Permutation,
        clouds: tuple[Cloud, ...],
        edges: tuple[ConflatedEdge, ...],
        cloud_of: dict[Word, Cloud],
        source: Cloud | None,
        sink: Cloud | None,
    ):
        self._init(rank, element, clouds, edges, cloud_of, source, sink)

    def cloud(self, word) -> Cloud:
        return self.cloud_of[tuple(word)]

    @cached_property
    def links(self) -> dict[Word, dict[Word, tuple[ConflatedEdge, bool]]]:
        """links[a][b] = (the edge joining a and b, whether a -> b follows it).

        Keyed by cloud representatives, in ascending order in links and in
        each links[a].
        """
        links = {a: {} for a in sorted(c.representative for c in self.clouds)}
        for e in self.edges:
            a, b = e.source.representative, e.target.representative
            links[a][b] = (e, True)
            links[b][a] = (e, False)
        return {a: dict(sorted(out.items(), key=itemgetter(0))) for a, out in links.items()}

    def neighbors(self, c: Cloud) -> list[Cloud]:
        return [self.cloud_of[b] for b in self.links[c.representative]]


def build_rex_graph(perm: Permutation) -> RexGraph:
    """Construct the expanded expressions graph of a permutation."""
    closure = braid_closure(perm)
    words = tuple(sorted(closure))
    adjacency: dict[Word, tuple[tuple[Word, BraidMove], ...]] = {}
    edges = []
    for w in words:
        # no two moves give one word (their windows differ), so sorting by
        # the neighbour word alone keeps the (position, kind) tie-break
        neigh = sorted([(w2, move) for move, w2 in closure[w]], key=itemgetter(0))
        adjacency[w] = tuple(neigh)
        # words ascend and each neighbour list ascends, so edges come sorted
        edges.extend((w, w2, move) for w2, move in neigh if w < w2)
    return RexGraph(rank=perm.n, element=perm, words=words, edges=tuple(edges), adjacency=adjacency)


def clouds(graph: RexGraph) -> list[Cloud]:
    """Connected components of the distant-edge subgraph, sorted.

    Seeds are taken in word order, so each is the least word of its
    component and the components come out sorted.
    """
    seen: set[Word] = set()
    out = []
    for seed in graph.words:
        if seed in seen:
            continue
        component = {seed}
        queue = deque([seed])
        while queue:
            w = queue.popleft()
            for v, _ in graph.distant_neighbors(w):
                if v not in component:
                    component.add(v)
                    queue.append(v)
        seen |= component
        out.append(Cloud(tuple(component)))
    return out


def build_conflated(graph: RexGraph) -> ConflatedGraph:
    """Quotient by distant edges with the Manin-Schechtman orientation.

    Multiple adjacent edges projecting onto the same cloud pair collapse
    to the one whose (source word, target word) pair is lexicographically
    least among the up-oriented representatives.
    """
    cloud_list = clouds(graph)
    cloud_of = {w: c for c in cloud_list for w in c.members}
    # least up-oriented representative per pair of cloud representatives
    # (hashing a Cloud would rehash all its members)
    rep_of = {w: c.representative for w, c in cloud_of.items()}
    retained: dict[tuple[Word, Word], tuple[Word, Word, BraidMove]] = {}
    for u, v, move in graph.edges:
        if move.kind == DISTANT:
            continue
        if move.kind != UP:
            u, v, move = v, u, move.reversed()
        pair = (rep_of[u], rep_of[v])
        if pair[0] == pair[1]:
            raise AssertionError("adjacent edge inside a cloud contradicts the N statistic")
        best = retained.get(pair)
        if best is None or (u, v) < best[:2]:
            retained[pair] = (u, v, move)
    if any((b, a) in retained for a, b in retained):
        # the quotient orientation is proper; two directions between one
        # cloud pair would contradict that
        raise AssertionError("conflicting orientation between clouds")
    edges = [
        ConflatedEdge(cloud_of[a], cloud_of[b], u, v, move)
        for (a, b), (u, v, move) in sorted(retained.items(), key=itemgetter(0))
    ]
    has_in = {a for _, a in retained}
    has_out = {a for a, _ in retained}
    sources = [c for c in cloud_list if c.representative not in has_in]
    sinks = [c for c in cloud_list if c.representative not in has_out]
    return ConflatedGraph(
        rank=graph.rank,
        element=graph.element,
        clouds=tuple(cloud_list),
        edges=tuple(edges),
        cloud_of=cloud_of,
        source=sources[0] if len(sources) == 1 else None,
        sink=sinks[0] if len(sinks) == 1 else None,
    )


def source_sink(conflated: ConflatedGraph) -> tuple[Cloud, Cloud]:
    """The unique source and sink of the orientation."""
    if conflated.source is not None and conflated.sink is not None:
        return conflated.source, conflated.sink
    # a cloud is a source when it follows every link forward, a sink when none
    links = conflated.links
    sources = [a for a, out in links.items() if all(fwd for _, fwd in out.values())]
    sinks = [a for a, out in links.items() if not any(fwd for _, fwd in out.values())]
    raise NonUniqueOrientationError(sources, sinks)


def cloud_aliases(conflated: ConflatedGraph) -> dict[str, Word]:
    """The representatives of the source s, the sink t and, when it is the only other cloud, c."""
    s, t = source_sink(conflated)
    aliases = {"s": s.representative, "t": t.representative}
    middle = [c for c in conflated.clouds if c not in (s, t)]
    if len(middle) == 1:
        aliases["c"] = middle[0].representative
    return aliases


def distant_path(graph: RexGraph, start: Word, goal: Word) -> list[Word]:
    """Lexicographically least shortest distant-edge path inside a cloud."""
    start, goal = tuple(start), tuple(goal)
    if start == goal:
        return [start]
    parent: dict[Word, Word] = {start: start}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for v, _ in graph.distant_neighbors(w):
            if v not in parent:
                parent[v] = w
                if v == goal:
                    path = [v]
                    while path[-1] != start:
                        path.append(parent[path[-1]])
                    return list(reversed(path))
                queue.append(v)
    raise ValueError(f"{word_label(goal)} not reachable from {word_label(start)} by distant edges")


def lift_conflated_path(conflated: ConflatedGraph, graph: RexGraph, path: Path) -> Path:
    """Lift a conflated path to the expanded graph.

    The lift starts at the representative of the first cloud, crosses
    each projected edge through its retained representative (inserting a
    shortest distant-edge subpath to reach it), and ends at the
    representative of the final cloud.  Projecting the lift recovers the
    input path.
    """
    if path.kind != CONFLATED:
        raise ValueError("expected a conflated path")
    seq = [conflated.cloud(v) for v in path.vertices]
    current = seq[0].representative
    lifted: list[Word] = [current]
    for a, b in zip(seq, seq[1:]):
        found = conflated.links[a.representative].get(b.representative)
        if found is None:
            raise ValueError(f"no conflated edge between {a} and {b}")
        edge, forward = found
        if forward:
            hop_from, hop_to, move = edge.expanded_source, edge.expanded_target, edge.move
        else:
            hop_from, hop_to, move = edge.expanded_target, edge.expanded_source, edge.move.reversed()
        lifted.extend(distant_path(graph, current, hop_from)[1:])
        lifted.append(hop_to)
        current = hop_to
    lifted.extend(distant_path(graph, current, seq[-1].representative)[1:])
    return Path(EXPANDED, tuple(lifted))


def enumerate_complete_paths(conflated: ConflatedGraph, start, end, max_len: int) -> Iterator[Path]:
    """All walks from start to end visiting every cloud, up to max_len.

    Vertices are cloud representatives.  Paths stream in lexicographic
    prefix order; length counts vertices.
    """
    links = conflated.links
    total = len(links)
    start, end = tuple(start), tuple(end)
    if start not in links or end not in links:
        raise ValueError("endpoints must be graph vertices")
    if max_len < total:
        raise ValueError(f"max_len {max_len} below vertex count {total}")
    seq: list[Word] = [start]
    visited: dict[Word, int] = {start: 1}

    def walk() -> Iterator[Path]:
        if seq[-1] == end and len(visited) == total:
            yield Path(CONFLATED, tuple(seq))
        if len(seq) >= max_len:
            return
        for v in links[seq[-1]]:
            if len(seq) + 1 + (total - len(visited) - (0 if v in visited else 1)) > max_len:
                continue
            seq.append(v)
            visited[v] = visited.get(v, 0) + 1
            yield from walk()
            seq.pop()
            if visited[v] == 1:
                del visited[v]
            else:
                visited[v] -= 1

    return walk()


def oriented_run(conflated: ConflatedGraph, start: Word, goal: Word, direction: str) -> list[Word]:
    """Lex-least monotone run of cloud representatives from start to goal.

    A "down" run follows the orientation, an "up" run goes against it.
    The depth-first search pushes each vertex's neighbours in reverse
    sorted order, so runs complete in lexicographic order and the first
    one is the least; the orientation is acyclic, so the search ends.
    """
    forward = direction == "down"
    stack = [[start]]
    while stack:
        run = stack.pop()
        if run[-1] == goal:
            return run
        nxt = reversed(conflated.links[run[-1]].items())
        stack.extend(run + [b] for b, (_, fwd) in nxt if fwd == forward)
    raise ValueError(f"no {direction} run from {word_label(start)} to {word_label(goal)}")


def simplify_path(conflated: ConflatedGraph, path: Path) -> Path:
    """Rewrite a complete path into its canonical zig-zag form.

    The output runs straight from the start to the source or sink,
    traverses the first direct subpath's direction once, and runs
    straight out to the end.  Only longest elements and three-vertex
    oriented lines are accepted; the rewrite is a purely syntactic
    canonical form whose soundness is established separately (by matrix
    equality) exactly where it is claimed.
    """
    if path.kind != CONFLATED:
        raise ValueError("expected a conflated path")
    elem = conflated.element
    is_w0 = elem == Permutation.longest(elem.n)
    is_short_line = len(conflated.clouds) <= 3 and len(conflated.edges) == len(conflated.clouds) - 1
    if not (is_w0 or is_short_line):
        raise UnsupportedElementError(
            "simplification is defined for longest elements and three-vertex lines only"
        )
    seq = [conflated.cloud(v).representative for v in path.vertices]
    if set(seq) != conflated.links.keys():
        raise ValueError("path is not complete")
    if len(conflated.clouds) == 1:
        return Path(CONFLATED, seq[:1])
    s, t = source_sink(conflated)
    sr, tr = s.representative, t.representative
    # whether each step follows the orientation
    forward = []
    for a, b in zip(seq, seq[1:]):
        link = conflated.links[a].get(b)
        if link is None:
            raise ValueError(f"no conflated edge between {word_label(a)} and {word_label(b)}")
        forward.append(link[1])
    # locate the first direct subpath: a maximal monotone run from s to t
    # along the orientation, or from t to s against it
    i = 0
    for fwd, steps in groupby(forward):
        j = i + len(list(steps))
        if (seq[i], seq[j]) == ((sr, tr) if fwd else (tr, sr)):
            break
        i = j
    else:
        raise NoDirectSubpathError("path contains no direct subpath")
    d_start, d_end = seq[i], seq[j]
    into = oriented_run(conflated, seq[0], d_start, "up" if d_start == sr else "down")
    through = oriented_run(conflated, d_start, d_end, "down" if fwd else "up")
    out = oriented_run(conflated, d_end, seq[-1], "up" if d_end == tr else "down")
    return Path(CONFLATED, tuple(into + through[1:] + out[1:]))


def to_dot(graph) -> str:
    """Graphviz text: distant edges dashed and undirected, adjacent solid arrows."""
    lines = ["digraph rexgraph {"]
    if isinstance(graph, RexGraph):
        label = {w: word_label(w) for w in graph.words}
        lines += [f'  "{text}";' for text in label.values()]
        for u, v, move in graph.edges:
            if move.kind == DISTANT:
                lines.append(f'  "{label[u]}" -> "{label[v]}" [style=dashed, dir=none];')
            else:
                if move.kind != UP:
                    u, v = v, u
                lines.append(f'  "{label[u]}" -> "{label[v]}" [style=solid];')
    elif isinstance(graph, ConflatedGraph):
        for c in graph.clouds:
            lines.append(f'  "{word_label(c.representative)}";')
        for e in graph.edges:
            lines.append(
                f'  "{word_label(e.source.representative)}" -> '
                f'"{word_label(e.target.representative)}" [style=solid];'
            )
    else:
        raise TypeError(f"not a graph: {graph!r}")
    lines.append("}")
    return "\n".join(lines)


def graph_for_word(word, rank: int | None = None) -> tuple[RexGraph, ConflatedGraph]:
    """Build both graphs for the element of a reduced word."""
    word = tuple(word)
    n = rank if rank is not None else (max(word) + 1 if word else 2)
    if not is_reduced(word, n):
        raise ValueError(f"word {word_label(word)} is not reduced")
    rex = build_rex_graph(word_to_perm(word, n))
    return rex, build_conflated(rex)
