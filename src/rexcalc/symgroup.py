"""Symmetric group combinatorics: permutations, words, and braid moves.

Elements of S_n act on {1, ..., n}; the generators are the adjacent
transpositions s_i = (i i+1) for 1 <= i <= n-1.  A word is a tuple of
generator indices, written 1-based so the word (1, 2, 1) is s_1 s_2 s_1;
it is reduced when its length equals the Coxeter length of its product.

Two reduced words of the same element differ by a chain of braid moves:
the adjacent relation s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} and the
distant relation s_i s_j = s_j s_i for |i - j| >= 2.  The closure of one
reduced word under single braid moves is the full set of reduced words:
``braid_closure`` maps each of them, in order, to one flat tuple of its
neighbours and moves, each word held once, and ``reduced_words`` is its
key list.

``braid_moves`` rewrites each matching window of a word directly, slicing
the result together, and takes its ``BraidMove`` values from a small
interned constructor keyed by (position, kind, i, j): moves are frozen,
so every word of a graph shares the few instances of each position.

>>> word_to_perm((1, 2, 1), 3).images
(3, 2, 1)
>>> longest_element(4)
(1, 2, 1, 3, 2, 1)
>>> sorted(w for _, w in braid_moves((1, 2, 1)))
[(2, 1, 2)]
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import chain
from operator import itemgetter

Word = tuple[int, ...]


class Frozen:
    """Base of the package's records: slots set once, in ``__init__``.

    A record names its fields in ``__slots__`` and ``__init__`` sets them,
    in that order, through ``_init``; assigning or deleting an attribute
    afterwards raises AttributeError.  Records compare and hash by their
    fields, in slot order, and print as ``Name(field=value, ...)``; a class
    that sets ``__eq__ = object.__eq__`` and ``__hash__ = object.__hash__``
    compares by identity instead.  ``_asdict`` reads the fields as a dict
    (the underscore keeps the name clear of any field's).
    """

    __slots__ = ()

    def _init(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def _asdict(self) -> dict:
        """The fields, name to value, in slot order."""
        return dict(zip(self.__slots__, self._values()))

    def __reduce__(self):
        # copy and pickle rebuild a record through __init__, as __setattr__ refuses
        return type(self), self._values()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


class Permutation(Frozen):
    """A permutation of {1..n} in one-line notation: images[i-1] = w(i)."""

    __slots__ = ("images",)

    def __init__(self, images: tuple[int, ...]):
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"{images} is not a permutation of 1..{len(images)}")
        self._init(images)

    @property
    def n(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, n: int) -> Permutation:
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def simple_reflection(cls, i: int, n: int) -> Permutation:
        """The transposition s_i = (i i+1) in S_n."""
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index {i} out of range 1..{n - 1}")
        images = list(range(1, n + 1))
        images[i - 1], images[i] = images[i], images[i - 1]
        return cls(tuple(images))

    @classmethod
    def longest(cls, n: int) -> Permutation:
        """The order-reversing permutation i -> n+1-i."""
        return cls(tuple(range(n, 0, -1)))

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __mul__(self, other: Permutation) -> Permutation:
        """Composition u * v = u after v, so (u*v)(i) = u(v(i))."""
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Permutation(tuple(self.images[other.images[i] - 1] for i in range(self.n)))

    def length(self) -> int:
        """Coxeter length, i.e. the number of inversions."""
        img = self.images
        return sum(1 for a in range(self.n) for b in range(a + 1, self.n) if img[a] > img[b])

    def is_identity(self) -> bool:
        return all(self.images[i] == i + 1 for i in range(self.n))

    def __str__(self) -> str:
        return "[" + " ".join(map(str, self.images)) + "]"


DISTANT = "distant"
UP = "up"
DOWN = "down"


def word_label(word: Word) -> str:
    """Digits run together (12321); with a letter outside 1..9 they are comma-separated."""
    if not word:
        return "e"
    return ("" if 1 <= min(word) and max(word) <= 9 else ",").join(map(str, word))


class BraidMove(Frozen):
    """A single braid relation applied at a 0-based position of a word.

    Kinds:
      distant: (i, j) with |i-j| >= 2 rewrites the window (i, j) -> (j, i)
      up:      parameter i rewrites (i, i+1, i) -> (i+1, i, i+1)
      down:    parameter i rewrites (i+1, i, i+1) -> (i, i+1, i)

    The up direction agrees with the Manin-Schechtman orientation of
    adjacent edges.
    """

    __slots__ = ("position", "kind", "i", "j")

    def __init__(self, position: int, kind: str, i: int, j: int = 0):
        # j is the second letter, distant moves only
        if kind not in (DISTANT, UP, DOWN):
            raise ValueError(f"unknown move kind {kind!r}")
        if kind == DISTANT and abs(i - j) < 2:
            raise ValueError(f"letters {i}, {j} are not distant")
        self._init(position, kind, i, j)

    @property
    def width(self) -> int:
        return 2 if self.kind == DISTANT else 3

    def source_window(self) -> Word:
        if self.kind == DISTANT:
            return (self.i, self.j)
        if self.kind == UP:
            return (self.i, self.i + 1, self.i)
        return (self.i + 1, self.i, self.i + 1)

    def target_window(self) -> Word:
        return self.reversed().source_window()

    def reversed(self) -> BraidMove:
        if self.kind == DISTANT:
            return _move(self.position, DISTANT, self.j, self.i)
        return _move(self.position, UP if self.kind == DOWN else DOWN, self.i)

    def apply(self, word: Word) -> Word:
        p = self.position
        if word[p:p + self.width] != self.source_window():
            raise ValueError(f"move {self} does not apply to word {word_label(word)}")
        return word[:p] + self.target_window() + word[p + self.width:]


def word_to_perm(word, n: int) -> Permutation:
    """Multiply out a word of generator indices, left to right.

    >>> word_to_perm((1, 2, 3, 2, 1), 4).images
    (4, 2, 3, 1)
    """
    word = tuple(word)
    for letter in word:
        if not 1 <= letter <= n - 1:
            raise ValueError(f"letter {letter} out of range 1..{n - 1}")
    return reduce(
        lambda acc, i: acc * Permutation.simple_reflection(i, n),
        word,
        Permutation.identity(n),
    )


def is_reduced(word, n: int) -> bool:
    """True iff the word length equals the Coxeter length of its product."""
    word = tuple(word)
    return len(word) == word_to_perm(word, n).length()


def longest_element(n: int) -> Word:
    """The standard reduced word for the longest element of S_n.

    Built inductively by appending k, k-1, ..., 1 for k = 2, ..., n-1,
    so its length is n(n-1)/2.

    >>> [longest_element(n) for n in (2, 3, 4)]
    [(1,), (1, 2, 1), (1, 2, 1, 3, 2, 1)]
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    word: list[int] = [1]
    for k in range(2, n):
        word.extend(range(k, 0, -1))
    return tuple(word)


@cache
def _move(position: int, kind: str, i: int, j: int = 0) -> BraidMove:
    # moves are frozen values, so one instance per (position, kind, i, j) is shared
    return BraidMove(position, kind, i, j)


def braid_moves(word) -> list[tuple[BraidMove, Word]]:
    """All single braid moves applicable to a word, with their results.

    Results are listed deterministically by (position, kind); at most one
    move applies at each position, so scanning the positions in order
    lists them sorted.  Each result is the word with its window rewritten
    directly.  If the input is reduced, every result is reduced and
    represents the same group element.
    """
    word = tuple(word)
    found: list[tuple[BraidMove, Word]] = []
    for p in range(len(word) - 1):
        a, b = word[p], word[p + 1]
        if abs(a - b) >= 2:
            found.append((_move(p, DISTANT, a, b), word[:p] + (b, a) + word[p + 2:]))
        elif abs(a - b) == 1 and p + 2 < len(word) and word[p + 2] == a:
            move = _move(p, UP if b == a + 1 else DOWN, min(a, b))
            found.append((move, word[:p] + (b, a, b) + word[p + 3:]))
    return found


def _seed_reduced_word(perm: Permutation) -> Word:
    # peel right descents: w(i) > w(i+1) means l(w s_i) = l(w) - 1
    word: list[int] = []
    q = perm
    while not q.is_identity():
        i = next(i for i in range(1, q.n) if q(i) > q(i + 1))
        word.append(i)
        q = q * Permutation.simple_reflection(i, q.n)
    return tuple(reversed(word))


# the most reduced words a closure may hold: above the 48,620 words of the
# rank-11 line word 1..10..1, below the 292,864 of the longest element of
# S_6, whose closure alone, built with the limit raised, peaks at 144 MB
# of process RSS and takes about 6 s
MAX_REDUCED_WORDS = 50_000


def braid_closure(perm: Permutation) -> dict[Word, tuple[Word | BraidMove, ...]]:
    """Every reduced word of a permutation, in ascending order, mapped to its neighbours.

    Each word maps to one flat tuple (v1, move1, v2, move2, ...) of its
    ``braid_moves``, sorted by neighbour v, and each v is the map's own key
    object: one tuple per word rather than one per edge.  Closing one
    reduced word under braid moves finds each word's moves once; more than
    MAX_REDUCED_WORDS words is a ValueError naming the limit.

    >>> braid_closure(word_to_perm((1, 2, 1), 3))[(1, 2, 1)]
    ((2, 1, 2), BraidMove(position=0, kind='up', i=1, j=0))
    """
    seed = _seed_reduced_word(perm)
    found = {seed: seed}  # each word found so far, to its one stored object
    closure: dict[Word, tuple[Word | BraidMove, ...]] = {}
    stack = [seed]
    while stack:
        if len(found) > MAX_REDUCED_WORDS:
            raise ValueError(
                f"the element has more than {MAX_REDUCED_WORDS:,} reduced words, "
                f"the limit on reduced-word closures"
            )
        w = stack.pop()
        moves = braid_moves(w)
        for _, w2 in moves:
            if w2 not in found:
                found[w2] = w2
                stack.append(w2)
        # no two moves give one word (their windows differ), so sorting by
        # the neighbour alone keeps the (position, kind) tie-break
        pairs = sorted([(found[w2], move) for move, w2 in moves], key=itemgetter(0))
        closure[w] = tuple(chain.from_iterable(pairs))
    del found, stack  # the closure's keys hold every word: free the rest before sorting
    return {w: closure[w] for w in sorted(closure)}


# no verdict reads reduced_words; it stays while perfbench/tracer.py wraps it
def reduced_words(perm: Permutation) -> list[Word]:
    """All reduced words of a permutation, sorted lexicographically."""
    return list(braid_closure(perm))


def all_permutations(n: int) -> list[Permutation]:
    """All n! permutations, sorted by one-line notation."""
    from itertools import permutations as iperm

    return [Permutation(p) for p in sorted(iperm(range(1, n + 1)))]
