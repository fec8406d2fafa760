"""Permutations of the infinite symmetric group in one-line notation.

A permutation is stored as a trimmed tuple ``(pi(1), ..., pi(n))`` with
trailing fixed points removed, so the same group element compares equal no
matter which finite symmetric group it came from.  Composition is functional:
``(sigma * pi)(i) == sigma(pi(i))``.
"""

from __future__ import annotations

import itertools
from bisect import bisect
from typing import Iterable, Iterator

from .errors import InvariantError


class Permutation:
    """An element of S-infinity as a trimmed one-line word.

    >>> Permutation([2, 1, 3]).word
    (2, 1)
    >>> Permutation([2, 1])(5)
    5
    >>> (Permutation([2, 1]) * Permutation([1, 3, 2])).word
    (2, 3, 1)
    """

    __slots__ = ("word",)

    def __init__(self, word: Iterable[int] = ()):
        w = tuple(word)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation word: {w!r}")
        while w and w[-1] == len(w):
            w = w[:-1]
        self.word = w

    @classmethod
    def _of(cls, w: list[int]) -> "Permutation":
        """The permutation of w, a list known to be a permutation word,
        without the check; trailing fixed points are dropped from w."""
        while w and w[-1] == len(w):
            w.pop()
        out = cls.__new__(cls)
        out.word = tuple(w)
        return out

    @classmethod
    def identity(cls) -> "Permutation":
        return cls._of([])

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse a one-line word.

        Accepts comma or space separated values, or a compact digit
        string when every value is a single digit.

        >>> Permutation.parse("2,1,5,4,3") == Permutation.parse("21543")
        True
        """
        parts = text.replace(",", " ").split()
        if not parts:
            raise ValueError("empty permutation text")
        if len(parts) == 1 and parts[0].isdigit() and len(parts[0]) > 1:
            return cls(int(ch) for ch in parts[0])
        return cls(int(p) for p in parts)

    @classmethod
    def longest(cls, n: int) -> "Permutation":
        """The longest element of S_n."""
        return cls._of(list(range(n, 0, -1)))

    @property
    def size(self) -> int:
        """Size of the support, i.e. the length of the trimmed word."""
        return len(self.word)

    def __call__(self, i: int) -> int:
        if i < 1:
            raise ValueError("positions are 1-based")
        return self.word[i - 1] if i <= len(self.word) else i

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.word)
        for i, v in enumerate(self.word, start=1):
            inv[v - 1] = i
        return Permutation._of(inv)

    def __mul__(self, other: "Permutation") -> "Permutation":
        m = max(self.size, other.size)
        return Permutation._of([self(other(i)) for i in range(1, m + 1)])

    def right_t(self, a: int, b: int) -> "Permutation":
        """Right-multiply by the transposition t_{a,b}: swap positions a and b."""
        if not 1 <= a < b:
            raise ValueError(f"need 1 <= a < b, got {(a, b)}")
        w = list(self.word) + list(range(len(self.word) + 1, b + 1))
        w[a - 1], w[b - 1] = w[b - 1], w[a - 1]
        return Permutation._of(w)

    def right_s(self, i: int) -> "Permutation":
        return self.right_t(i, i + 1)

    def left_s(self, i: int) -> "Permutation":
        """Left-multiply by s_i: swap the values i and i+1."""
        if i < 1:
            raise ValueError("need i >= 1")
        w = list(self.word)
        if len(w) <= i:
            w.extend(range(len(w) + 1, i + 2))
        p, q = w.index(i), w.index(i + 1)
        w[p], w[q] = i + 1, i
        return Permutation._of(w)

    def length(self) -> int:
        """Coxeter length = number of inversions.

        >>> Permutation([2, 1, 5, 4, 3]).length()
        4
        """
        # Each value adds the earlier values above it, found by bisecting
        # the sorted list of the values seen so far.
        seen: list[int] = []
        count = 0
        for v in self.word:
            k = bisect(seen, v)
            count += len(seen) - k
            seen.insert(k, v)
        return count

    def is_identity(self) -> bool:
        return not self.word

    def left_descents(self) -> frozenset[int]:
        """{i : i appears after i+1 in the word}.

        >>> sorted(Permutation([2, 1, 5, 4, 3]).left_descents())
        [1, 3, 4]
        """
        at = {v: k for k, v in enumerate(self.word)}
        return frozenset(i for i in range(1, self.size) if at[i] > at[i + 1])

    def right_descents(self) -> frozenset[int]:
        return frozenset(
            i for i in range(1, self.size) if self(i) > self(i + 1)
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    def __repr__(self) -> str:
        return f"Permutation({list(self.word)!r})"

    def __str__(self) -> str:
        return ",".join(map(str, self.word)) if self.word else "id"


def is_bruhat_cover(pi: Permutation, a: int, b: int) -> bool:
    """True iff pi * t_{a,b} covers pi in Bruhat order (length goes up by 1),
    that is, iff pi(a) < pi(b) and no a < k < b has pi(a) < pi(k) < pi(b)
    (Bjorner and Brenti, Combinatorics of Coxeter Groups, ch. 2)."""
    if not 1 <= a < b:
        raise ValueError(f"need 1 <= a < b, got {(a, b)}")
    low, high = pi(a), pi(b)
    return low < high and not any(low < pi(k) < high for k in range(a + 1, b))


def monk_covers(pi: Permutation, alpha: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The cover data entering Monk's rule at x_alpha.

    Returns ``(left, right)`` where ``left`` collects s < alpha with
    pi*t_{s,alpha} covering pi and ``right`` collects l > alpha with
    pi*t_{alpha,l} covering pi.  The right list is never empty.
    """
    if alpha < 1:
        raise ValueError("need alpha >= 1")
    left = tuple(s for s in range(1, alpha) if is_bruhat_cover(pi, s, alpha))
    n = max(pi.size, alpha)
    right = tuple(
        l for l in range(alpha + 1, n + 2) if is_bruhat_cover(pi, alpha, l)
    )
    if not right:
        raise InvariantError("right Monk covers cannot be empty in S-infinity")
    return left, right


def multiply_word(word: Iterable[int]) -> tuple[Permutation, bool]:
    """The product s_{a_1} s_{a_2} ... s_{a_l}, and whether the word is reduced.

    Right multiplication by s_i swaps positions i and i+1 of the one-line
    word; it raises the length by one exactly when w(i) < w(i+1) before
    the swap, so each letter is checked in constant time.

    >>> multiply_word([2, 1, 2])
    (Permutation([3, 2, 1]), True)
    >>> multiply_word([1, 1])[1]
    False
    """
    w: list[int] = []
    reduced = True
    for i in word:
        if i < 1:
            raise ValueError(f"the letter {i} is below 1")
        if len(w) <= i:
            w.extend(range(len(w) + 1, i + 2))
        if w[i - 1] > w[i]:
            reduced = False
        w[i - 1], w[i] = w[i], w[i - 1]
    return Permutation._of(w), reduced


def reduced_words(pi: Permutation) -> frozenset[tuple[int, ...]]:
    """All reduced words of pi, built one length at a time.

    A word (a_1, ..., a_l) multiplies to pi left to right:
    pi == s_{a_1} s_{a_2} ... s_{a_l}.  Peeling right descents from pi
    gives the permutations below it, level by level down to the identity.
    The words of each level are then built from the level below, which is
    dropped once the level above is built.  The words of u ending in i are
    those of u s_i with i appended, so no two are equal and a list holds
    them.
    """
    levels = [{pi}]
    for _ in range(pi.length()):
        levels.append({u.right_s(i) for u in levels[-1] for i in u.right_descents()})
    words: dict[Permutation, list[tuple[int, ...]]] = {Permutation.identity(): [()]}
    for level in reversed(levels[:-1]):
        words = {
            u: [w + (i,) for i in u.right_descents() for w in words[u.right_s(i)]]
            for u in level
        }
    return frozenset(words[pi])


def one_reduced_word(pi: Permutation) -> tuple[int, ...]:
    """A deterministic reduced word of pi (smallest right descent peeled last)."""
    word: list[int] = []
    cur = pi
    while not cur.is_identity():
        i = min(cur.right_descents())
        word.append(i)
        cur = cur.right_s(i)
    return tuple(reversed(word))


def symmetric_group(n: int) -> Iterator[Permutation]:
    """All permutations with support inside {1, ..., n}."""
    for w in itertools.permutations(range(1, n + 1)):
        yield Permutation._of(list(w))
