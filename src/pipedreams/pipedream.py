"""Pipe dreams (RC-graphs) and compatible sequences.

A pipe dream is stored as its finite set of cross positions (row, col),
1-indexed in matrix convention; every other cell of the positive quadrant is
an implicit elbow.  Crosses are read in the grid order: top row first, and
right to left within a row.  The cross at (i, j) stands for the simple
transposition s_{i+j-1}, and the product of these letters, taken left to
right by right multiplication, is the permutation of the diagram.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    EmptyDiagramError,
    InvalidDiagramError,
    InvalidSequenceError,
    InvariantError,
)
from .perm import Permutation, multiply_word
from .poly import SparsePolynomial


def grid_key(pos: tuple[int, int]) -> tuple[int, int]:
    """Sort key for the reading order on crosses (row up, column down)."""
    return (pos[0], -pos[1])


class CompatibleSequence:
    """A pair (a, r) of equal-length integer sequences.

    The defining conditions: a is a reduced word, r is weakly increasing,
    r_k <= a_k, and r_k < r_{k+1} whenever a_k < a_{k+1}.
    """

    __slots__ = ("a", "r")

    def __init__(self, a: Iterable[int], r: Iterable[int]):
        self.a = tuple(a)
        self.r = tuple(r)

    def validate(self) -> "CompatibleSequence":
        a, r = self.a, self.r
        if any(type(v) is not int for v in a + r):
            raise InvalidSequenceError("entries must be integers")
        if len(a) != len(r):
            raise InvalidSequenceError("a and r differ in length")
        if any(v < 1 for v in a) or any(v < 1 for v in r):
            raise InvalidSequenceError("entries must be positive")
        if not multiply_word(a)[1]:
            raise InvalidSequenceError(f"word {a} is not reduced")
        for k in range(len(a) - 1):
            if r[k] > r[k + 1]:
                raise InvalidSequenceError("r is not weakly increasing")
            if a[k] < a[k + 1] and r[k] >= r[k + 1]:
                raise InvalidSequenceError(
                    "r must increase strictly across an ascent of a"
                )
        for k in range(len(a)):
            if r[k] > a[k]:
                raise InvalidSequenceError(f"r_{k + 1} exceeds a_{k + 1}")
        return self

    def permutation(self) -> Permutation:
        return multiply_word(self.a)[0]

    def to_pipe_dream(self) -> "PipeDream":
        self.validate()
        return PipeDream._of(
            frozenset([(rk, ak - rk + 1) for ak, rk in zip(self.a, self.r)])
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CompatibleSequence)
            and self.a == other.a
            and self.r == other.r
        )

    def __hash__(self) -> int:
        return hash((self.a, self.r))

    def __repr__(self) -> str:
        return f"CompatibleSequence({self.a!r}, {self.r!r})"

    def to_json(self) -> dict:
        return {"a": list(self.a), "r": list(self.r)}


class PipeDream:
    """A set of crosses in the positive quadrant.

    >>> PipeDream([(1, 1), (1, 2), (2, 1)]).word()
    (2, 1, 2)
    >>> str(PipeDream([(1, 1), (1, 2), (2, 1)]).perm())
    '3,2,1'
    """

    __slots__ = ("crosses",)

    def __init__(self, crosses: Iterable[tuple[int, int]] = ()):
        cs = []
        for r, c in crosses:
            if type(r) is not int or type(c) is not int:
                raise TypeError(f"cross coordinates must be integers: {(r, c)!r}")
            if r < 1 or c < 1:
                raise ValueError(f"cross out of the positive quadrant: {(r, c)}")
            cs.append((r, c))
        self.crosses = frozenset(cs)

    @classmethod
    def _of(cls, crosses: frozenset[tuple[int, int]]) -> "PipeDream":
        """The pipe dream of crosses the library built, unchecked."""
        out = cls.__new__(cls)
        out.crosses = crosses
        return out

    def sorted_crosses(self) -> list[tuple[int, int]]:
        return sorted(self.crosses, key=grid_key)

    def word(self) -> tuple[int, ...]:
        return tuple(r + c - 1 for r, c in self.sorted_crosses())

    def perm(self) -> Permutation:
        """The permutation of the diagram; raises if a pair crosses twice."""
        return self._perm_of(self.word())

    def _perm_of(self, word: tuple[int, ...]) -> Permutation:
        """perm() given the diagram's word."""
        pi, reduced = multiply_word(word)
        if not reduced:
            raise InvalidDiagramError(
                f"pipe dream {sorted(self.crosses)} is not reduced"
            )
        return pi

    def weight(self) -> SparsePolynomial:
        rows = [r for r, _ in self.crosses]
        return SparsePolynomial._of(
            {tuple(rows.count(i) for i in range(1, max(rows, default=0) + 1)): 1}
        )

    def to_compatible(self) -> CompatibleSequence:
        crosses = self.sorted_crosses()
        word = tuple(r + c - 1 for r, c in crosses)
        self._perm_of(word)
        return CompatibleSequence(word, (r for r, _ in crosses))

    def pop(self) -> tuple[tuple[int, int], "PipeDream"]:
        """Remove the first cross in the grid order.

        Returns ((a, r), rest) where a = row + col - 1 of the removed cross
        and r is its row; perm(rest) = s_a * perm(self).
        """
        if not self.crosses:
            raise EmptyDiagramError("cannot pop an empty pipe dream")
        first = min(self.crosses, key=grid_key)
        r, c = first
        return (r + c - 1, r), PipeDream._of(self.crosses - {first})

    def __eq__(self, other) -> bool:
        return isinstance(other, PipeDream) and self.crosses == other.crosses

    def __hash__(self) -> int:
        return hash(self.crosses)

    def __repr__(self) -> str:
        return f"PipeDream({self.sorted_crosses()!r})"

    def to_json(self) -> dict:
        return {
            "model": "pd",
            "crosses": [list(pos) for pos in self.sorted_crosses()],
        }

    @classmethod
    def from_json(cls, data: dict) -> "PipeDream":
        if data.get("model") != "pd":
            raise ValueError("not a pipe dream payload")
        if "crosses" not in data:
            raise ValueError("the pipe dream payload has no field 'crosses'")
        crosses = data["crosses"]
        if not isinstance(crosses, list) or not all(
            isinstance(cross, list) and len(cross) == 2 for cross in crosses
        ):
            raise ValueError("the field 'crosses' must be a list of [row, col] pairs")
        diagram = cls((r, c) for r, c in crosses)
        if len(diagram.crosses) < len(crosses):
            twice = Counter(map(tuple, crosses)).most_common(1)[0][0]
            raise ValueError(f"the cross {list(twice)} is listed twice")
        return diagram


class PipeDreamTrace(NamedTuple):
    """The two pipes at each cross of a cross set.

    Pipes are labeled by the column where they enter at the top of the grid;
    they travel south and west through crosses (straight) and elbows (turns)
    until they leave through the west border.
    """

    cross_pipes: dict[tuple[int, int], frozenset[int]]
    pair_crossings: dict[frozenset[int], tuple[tuple[int, int], ...]]


def trace_pipes(crosses: Iterable[tuple[int, int]]) -> PipeDreamTrace:
    """Read which two pipes meet at each cross off the reading word.

    The word is multiplied left to right in the grid order, with at[p] the
    pipe at position p; the cross of letter a is where the pipes then at
    positions a and a+1 meet and swap.  Works for non-reduced sets too;
    pair_crossings records where each pair of pipes crosses, so double
    crossings are visible to callers.  Each pair's crosses come in walk
    order, which is row order: after the swap at letter a, only the pipe
    now at a moves again in that row, so a pair meets once a row at most.
    """
    ordered = sorted(frozenset(crosses), key=grid_key)
    at = list(range(max((r + c for r, c in ordered), default=1) + 1))
    cross_pipes: dict[tuple[int, int], frozenset[int]] = {}
    pair_crossings: dict[frozenset[int], tuple[tuple[int, int], ...]] = {}
    for r, c in ordered:
        a = r + c - 1
        pair = cross_pipes[(r, c)] = frozenset((at[a], at[a + 1]))
        pair_crossings[pair] = pair_crossings.get(pair, ()) + ((r, c),)
        at[a], at[a + 1] = at[a + 1], at[a]
    return PipeDreamTrace(cross_pipes, pair_crossings)


def iter_pipe_dreams(pi: Permutation) -> Iterator[PipeDream]:
    """Lazily generate the reduced pipe dreams of pi in one staircase walk.

    Row r of the staircase r + c <= n reads a strictly decreasing run of
    letters a in [r, n - 1], the cross (r, a - r + 1) standing for s_a.  A
    letter is placed only if it is a left descent of the part u of pi not
    yet read, which then becomes s_a u; where[v] is the position of v in u.
    Row r may end only once u fixes r, since later rows read letters above
    r.  Diagrams come row by row, each row's letters decreasing.
    """
    n = max(pi.size, 1)
    length = pi.length()
    identity = list(range(n + 1))
    where = identity[:]
    for pos, v in enumerate(pi.word, start=1):
        where[v] = pos
    read: list[tuple[int, int]] = []  # the crosses placed, in walk order
    # (row, bound, depth): the first depth crosses of read are placed, and
    # the next letter of the row is below bound.
    stack = [(1, n, 0)]
    while stack:
        r, a, depth = stack.pop()
        while len(read) > depth:
            i, c = read.pop()
            b = i + c - 1
            where[b], where[b + 1] = where[b + 1], where[b]
        if depth == length:
            if where != identity:
                word = tuple(i + c - 1 for i, c in read)
                raise InvariantError(f"walk read {word}, not a reduced word of {pi}")
            yield PipeDream._of(frozenset(read))
            continue
        a -= 1
        while a >= r and where[a] < where[a + 1]:
            a -= 1
        if a >= r:
            stack.append((r, a, depth))
            where[a], where[a + 1] = where[a + 1], where[a]
            read.append((r, a - r + 1))
            stack.append((r, a, depth + 1))
        elif where[r] == r and r + 1 < n:
            stack.append((r + 1, n, depth))


def enumerate_pipe_dreams(pi: Permutation) -> frozenset[PipeDream]:
    """All reduced pipe dreams of pi.

    >>> len(enumerate_pipe_dreams(Permutation([3, 2, 1])))
    1
    """
    return frozenset(iter_pipe_dreams(pi))
