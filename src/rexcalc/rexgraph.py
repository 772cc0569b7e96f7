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

Each graph is stored in one form.  The expanded graph's neighbour map
is its element's ``braid_closure``: one flat tuple (v1, move1, v2,
move2, ...) per reduced word, each word held as one object.  Only this
module reads that layout: ``RexGraph.moves`` gives a word's (v, move)
pairs and ``RexGraph.edges`` the canonical edges.  One breadth-first
search over distant edges grows the clouds, from the words in order,
and finds the distant paths of a lift.  Conflation keys cloud pairs by
their representatives, and the conflated graph's one link map,
``ConflatedGraph.links``, is what every accessor and walker,
``source_sink`` included, reads.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator, Sequence
from itertools import groupby
from operator import itemgetter

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
        sources, sinks = (", ".join(map(word_label, words)) for words in (self.sources, self.sinks))
        super().__init__(f"sources {{{sources}}}, sinks {{{sinks}}}")


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


def _pairs(flat: tuple) -> Iterator[tuple[Word, BraidMove]]:
    """The (v, move) pairs of a flat neighbour tuple (v1, move1, v2, move2, ...)."""
    items = iter(flat)
    return zip(items, items)


class RexGraph(Frozen):
    """Expanded expressions graph: reduced words joined by braid moves.

    ``neighbours[u]`` is one flat tuple (v1, move1, v2, move2, ...) of
    the moves u -> v, sorted by v, for the words u in ascending order, and
    every v is the map's own key object.  ``moves(u)`` reads it as
    (v, move) pairs.  Two graphs are equal only if they are one object.
    """

    __slots__ = ("rank", "element", "words", "neighbours")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def moves(self, u: Word) -> Iterator[tuple[Word, BraidMove]]:
        """The pairs (v, move u -> v) of a word u, sorted by v, read off ``neighbours[u]``.

        >>> rex = build_rex_graph(word_to_perm((1, 2, 1), 3))
        >>> list(rex.moves((1, 2, 1)))
        [((2, 1, 2), BraidMove(position=0, kind='up', i=1, j=0))]
        >>> [(_, up)], [(_, down)] = map(list, map(rex.moves, rex.words))
        >>> down.reversed() is up
        True
        """
        return _pairs(self.neighbours[u])

    @property
    def edges(self) -> Iterator[tuple[Word, Word, BraidMove]]:
        """The canonical edges (u, v, move u -> v), u < v, read off the neighbours in ascending order."""
        return ((u, v, move) for u, flat in self.neighbours.items() for v, move in _pairs(flat) if u < v)


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


class ConflatedEdge(Frozen):
    """An oriented cloud edge with its retained expanded representative.

    ``expanded_source`` is the word inside source where the retained move
    applies, and ``move`` the up move expanded_source -> expanded_target.
    """

    __slots__ = ("source", "target", "expanded_source", "expanded_target", "move")


class ConflatedGraph(Frozen):
    """Quotient of the expanded graph by distant edges, MS-oriented.

    ``links[a][b]`` is (the edge joining the clouds of representatives a
    and b, whether a -> b follows it), keyed in ascending order at both
    levels.  Two graphs are equal only if they are one object.
    """

    __slots__ = ("rank", "element", "clouds", "edges", "cloud_of", "links")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def cloud(self, word) -> Cloud:
        return self.cloud_of[tuple(word)]

    def neighbors(self, c: Cloud) -> list[Cloud]:
        return [self.cloud_of[b] for b in self.links[c.representative]]

    def link(self, a: Word, b: Word) -> tuple[ConflatedEdge, bool]:
        """``links[a][b]``; a ValueError naming both words when they are no two linked representatives."""
        found = self.links.get(a, {}).get(b)
        if found is None:
            raise ValueError(f"no conflated edge between {word_label(a)} and {word_label(b)}")
        return found


def build_rex_graph(perm: Permutation) -> RexGraph:
    """Construct the expanded expressions graph of a permutation."""
    neighbours = braid_closure(perm)
    return RexGraph(rank=perm.n, element=perm, words=tuple(neighbours), neighbours=neighbours)


def _distant_tree(graph: RexGraph, start: Word, goal: Word | None = None) -> dict[Word, Word]:
    """Breadth-first parents of the words reached from start by distant edges.

    The start is its own parent.  Neighbours are taken in ascending
    order, so walking a word's parents back gives the lexicographically
    least shortest path to it.  The search covers start's whole cloud,
    or stops once ``goal`` is reached.
    """
    parent = {start: start}
    queue = deque([start])
    while queue and goal not in parent:
        w = queue.popleft()
        for v, move in graph.moves(w):
            if move.kind == DISTANT and v not in parent:
                parent[v] = w
                queue.append(v)
    return parent


def clouds(graph: RexGraph) -> list[Cloud]:
    """Connected components of the distant-edge subgraph, sorted.

    Seeds are taken in word order, so each is the least word of its
    component and the components come out sorted.
    """
    seen: set[Word] = set()
    out = []
    for seed in graph.words:
        if seed not in seen:
            component = _distant_tree(graph, seed)
            seen.update(component)
            out.append(Cloud(component))
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
    edges = tuple(
        ConflatedEdge(cloud_of[a], cloud_of[b], u, v, move)
        for (a, b), (u, v, move) in sorted(retained.items(), key=itemgetter(0))
    )
    # the clouds come sorted; each links[a] is sorted once filled
    links = {c.representative: {} for c in cloud_list}
    for e in edges:
        a, b = e.source.representative, e.target.representative
        links[a][b] = (e, True)
        links[b][a] = (e, False)
    links = {a: dict(sorted(out.items(), key=itemgetter(0))) for a, out in links.items()}
    return ConflatedGraph(
        rank=graph.rank,
        element=graph.element,
        clouds=tuple(cloud_list),
        edges=edges,
        cloud_of=cloud_of,
        links=links,
    )


def source_sink(conflated: ConflatedGraph) -> tuple[Cloud, Cloud]:
    """The unique source and sink of the orientation, read off the link map."""
    # a cloud is a source when it follows every link forward, a sink when none
    links = conflated.links
    sources = [a for a, out in links.items() if all(fwd for _, fwd in out.values())]
    sinks = [a for a, out in links.items() if not any(fwd for _, fwd in out.values())]
    if len(sources) != 1 or len(sinks) != 1:
        raise NonUniqueOrientationError(sources, sinks)
    return conflated.cloud_of[sources[0]], conflated.cloud_of[sinks[0]]


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
    parent = _distant_tree(graph, start, goal)
    if goal not in parent:
        raise ValueError(f"{word_label(goal)} not reachable from {word_label(start)} by distant edges")
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    return path[::-1]


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
    seq = [conflated.cloud(v).representative for v in path.vertices]
    current = seq[0]
    lifted: list[Word] = [current]
    for a, b in zip(seq, seq[1:]):
        edge, forward = conflated.link(a, b)
        hop_from, hop_to = edge.expanded_source, edge.expanded_target
        if not forward:
            hop_from, hop_to = hop_to, hop_from
        lifted.extend(distant_path(graph, current, hop_from)[1:])
        lifted.append(hop_to)
        current = hop_to
    lifted.extend(distant_path(graph, current, seq[-1])[1:])
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
    forward = [conflated.link(a, b)[1] for a, b in zip(seq, seq[1:])]
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


def to_dot(graph) -> Iterator[str]:
    """Graphviz text, line by line: distant edges dashed and undirected, adjacent solid arrows."""
    yield "digraph rexgraph {"
    if isinstance(graph, RexGraph):
        label = {w: word_label(w) for w in graph.words}
        yield from (f'  "{text}";' for text in label.values())
        for u, v, move in graph.edges:
            if move.kind == DISTANT:
                yield f'  "{label[u]}" -> "{label[v]}" [style=dashed, dir=none];'
            else:
                if move.kind != UP:
                    u, v = v, u
                yield f'  "{label[u]}" -> "{label[v]}" [style=solid];'
    elif isinstance(graph, ConflatedGraph):
        for c in graph.clouds:
            yield f'  "{word_label(c.representative)}";'
        for e in graph.edges:
            yield f'  "{word_label(e.source.representative)}" -> "{word_label(e.target.representative)}" [style=solid];'
    else:
        raise TypeError(f"not a graph: {graph!r}")
    yield "}"


def graph_for_word(word, rank: int | None = None) -> tuple[RexGraph, ConflatedGraph]:
    """Build both graphs for the element of a reduced word."""
    word = tuple(word)
    n = rank if rank is not None else (max(word) + 1 if word else 2)
    if not is_reduced(word, n):
        raise ValueError(f"word {word_label(word)} is not reduced")
    rex = build_rex_graph(word_to_perm(word, n))
    return rex, build_conflated(rex)
