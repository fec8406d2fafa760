"""Insertion moves realizing the Monk rule on both diagram models.

Two families of moves act here.  On a diagram of pi, the variable move x_a
adds one crossing and lands in a diagram of some pi t_{a,l} with l > a,
multiplying the weight by x_a.  On a diagram of pi t_{s,b} (a cover of pi),
the transposition move m_{s,b} rewires one crossing and lands in a diagram
of some pi t_{b,l} with l > b, preserving the weight.  Together the images
partition the diagrams of all pi t_{a,l}.
"""

from __future__ import annotations

from typing import NamedTuple

from .bumpless import BumplessPipeDream, _droop_rows, _sweep
from .errors import InvariantError, MoveError
from .perm import Permutation, is_bruhat_cover
from .pipedream import PipeDream, trace_pipes


class MonkTrace(NamedTuple):
    """Step-by-step record of one insertion move.

    steps is a tuple of (kind, coordinates) pairs.  footprints holds one
    position per step: the first coordinate of a min_droop (the turn it
    droops), the last coordinate of any other step.  complete_footprints
    (ordinary pipe dreams only) additionally lists every column swept
    between a removal and the following re-insertion; these are provably
    all distinct.
    result_l is the l with output permutation equal to base t_{a,l}.
    """

    steps: tuple[tuple[str, tuple], ...]
    footprints: tuple[tuple[int, int], ...]
    complete_footprints: tuple[tuple[int, int], ...] | None
    result_l: int

    def __repr__(self) -> str:
        return f"MonkTrace(steps={self.steps!r}, result_l={self.result_l})"


def _cover_step(base: Permutation, position: int, out: Permutation) -> int:
    """The l with out = base * t_{position, l}; checked to be a cover.  Two
    permutations that differ at exactly two positions differ by their swap."""
    moved = [i for i in range(1, max(base.size, out.size) + 1) if base(i) != out(i)]
    if len(moved) != 2 or position not in moved:
        raise InvariantError(
            f"output permutation differs from the base by {moved}, not a "
            f"transposition at {position}"
        )
    l = next(i for i in moved if i != position)
    if l <= position:
        raise InvariantError(f"landing index {l} not beyond {position}")
    if not is_bruhat_cover(base, position, l):
        raise InvariantError(f"output {out} is not a cover of {base}")
    return l


# ---------------------------------------------------------------------------
# The frame of a move.  cascade(diagram, pi, *args) does the model's part and
# returns (out, steps, complete_footprints).


def _x_move(diagram, alpha: int, cascade):
    if alpha < 1:
        raise ValueError("row index must be positive")
    pi = diagram.perm()
    return _finish(pi, alpha, *cascade(diagram, pi, alpha))


def _m_move(diagram, s: int, beta: int, cascade):
    if not 1 <= s < beta:
        raise ValueError("need 1 <= s < beta")
    sigma = diagram.perm()
    pi = sigma.right_t(s, beta)
    if not is_bruhat_cover(pi, s, beta):
        raise ValueError(
            f"{sigma} is not a cover of {pi} at positions ({s}, {beta})"
        )
    return _finish(pi, beta, *cascade(diagram, pi, s, beta))


def _finish(base, position, out, steps, complete):
    l = _cover_step(base, position, out.perm())
    footprints = tuple(c[0] if k == "min_droop" else c[-1] for k, c in steps)
    return out, MonkTrace(tuple(steps), footprints, complete, l)


def _unique_crossing(pair, positions) -> tuple[int, int]:
    """The one position in positions, where the two pipes of pair cross."""
    if len(positions) != 1:
        raise InvariantError(f"pipes {sorted(pair)} cross at {positions}")
    return positions[0]


# ---------------------------------------------------------------------------
# Bumpless moves


def bpd_min_droop(
    diagram: BumplessPipeDream, pos: tuple[int, int]
) -> tuple[BumplessPipeDream, tuple[int, int]]:
    """Droop the turn at pos, on the grid, to the nearest free corner
    southeast of it.

    The scans south and east skip crossing tiles only; the grid grows as
    needed.  Unlike droop, a near corner may hold a 'j' turn of the pipe,
    which straightens.  Returns the new diagram and the corner position,
    whose tile is 'j' if the corner was blank and 'b' if it held another
    pipe's turn.

    >>> d, corner = bpd_min_droop(BumplessPipeDream.identity(2), (1, 1))
    >>> d.rows, corner
    (('.r', 'rb'), (2, 2))
    """
    a, b = pos
    if not (1 <= a <= diagram.n and 1 <= b <= diagram.n):
        raise MoveError(f"{pos} is off the grid")
    if diagram.tile(a, b) not in "rb":
        raise MoveError(f"no southeast turn at {pos}")
    # Tiles the growth adds next to the grid are '|' and '-', never '+'.
    x = y = 1
    while a + x <= diagram.n and diagram.tile(a + x, b) == "+":
        x += 1
    while b + y <= diagram.n and diagram.tile(a, b + y) == "+":
        y += 1
    far = (a + x, b + y)
    diagram = diagram.grow_to(max(far))
    return BumplessPipeDream._of(_droop_rows(diagram.rows, pos, far)), far


def _set_tile(diagram: BumplessPipeDream, pos, letter: str) -> BumplessPipeDream:
    """The diagram with letter written at pos.

    No edge is checked: callers only swap a '+' and a 'b' they have just
    read, and those two tiles touch the same four edges.
    """
    i, j = pos
    rows = list(diagram.rows)
    rows[i - 1] = rows[i - 1][: j - 1] + letter + rows[i - 1][j:]
    return BumplessPipeDream._of(tuple(rows))


def _bpd_cascade(
    cur: BumplessPipeDream, pos: tuple[int, int], tracked: int, steps: list
):
    """Min-droop from pos, chase the tracked pipe, resolve bumps."""
    for _ in range(8 * cur.n * cur.n + 8):
        cur, corner = bpd_min_droop(cur, pos)
        steps.append(("min_droop", (pos, corner)))
        t = cur.tile(*corner)
        if t == "j":
            # The tracked pipe, leaving the rows from the corner down through
            # the corner, now turns east where it enters the corner row, at
            # the first tile west of the corner that it does not run over.
            i, j = corner
            if _sweep(cur.rows[i - 1 :])[2][j - 1] != tracked:
                raise InvariantError(
                    f"the pipe at {corner} does not enter in column {tracked}"
                )
            j -= 1
            while cur.rows[i - 1][j - 1] in "-+":
                j -= 1
            pos = (i, j)
        elif t == "b":
            # With a '+' at the corner, the pair crossing there is the
            # tracked pipe and its partner.
            cur = _set_tile(cur, corner, "+")
            crossings = _sweep(cur.rows)[1].items()
            pair, positions = next(x for x in crossings if corner in x[1])
            if tracked not in pair:
                raise InvariantError(f"the pipe {tracked} does not reach {corner}")
            others = [p for p in positions if p != corner]
            if not others:
                steps.append(("bump_to_cross", (corner,)))
                return cur.trim(), steps, None
            cross = _unique_crossing(pair, others)
            cur = _set_tile(cur, cross, "b")
            steps.append(("cross_bump_swap", (corner, cross)))
            pos = cross
        else:  # pragma: no cover
            raise InvariantError(f"unexpected corner tile {t!r}")
    raise InvariantError("insertion cascade did not terminate")  # pragma: no cover


def _bpd_x(diagram: BumplessPipeDream, pi: Permutation, alpha: int):
    cur = diagram.grow_to(max(diagram.n, alpha))
    j = cur.rows[alpha - 1].rfind("r") + 1
    if not j:
        raise InvariantError(f"row {alpha} has no southeast turn")
    return _bpd_cascade(cur, (alpha, j), pi(alpha), [])


def _bpd_m(diagram: BumplessPipeDream, pi: Permutation, s: int, beta: int):
    pair = (pi(s), pi(beta))
    pos = _unique_crossing(pair, _sweep(diagram.rows)[1].get(frozenset(pair), ()))
    cur = _set_tile(diagram, pos, "b")
    return _bpd_cascade(cur, pos, pi(beta), [("cross_to_bump", (pos,))])


def bpd_x_insert(
    diagram: BumplessPipeDream, alpha: int
) -> tuple[BumplessPipeDream, MonkTrace]:
    """The variable move x_alpha on a bumpless diagram.

    >>> out, tr = bpd_x_insert(BumplessPipeDream.identity(1), 1)
    >>> out.rows, tr.result_l
    (('.r', 'r+'), 2)
    """
    return _x_move(diagram, alpha, _bpd_x)


def bpd_m_move(
    diagram: BumplessPipeDream, s: int, beta: int
) -> tuple[BumplessPipeDream, MonkTrace]:
    """The transposition move m_{s,beta} on a bumpless diagram.

    The input must be a diagram of sigma = pi t_{s,beta} with
    len(pi) = len(sigma) - 1; the crossing of the two pipes that exit in
    rows s and beta is turned into a bump and pushed until it resolves.
    """
    return _m_move(diagram, s, beta, _bpd_m)


# ---------------------------------------------------------------------------
# Ordinary pipe dream moves


def _pd_shift(
    crosses: set,
    base: Permutation,
    pos: tuple[int, int],
    steps: list,
    complete: list,
) -> tuple[int, int]:
    """Move the cross at pos to the first elbow to its right in its row.

    Without that cross the set must still be a diagram of base.  Returns
    the position of the re-added cross.
    """
    i, j = pos
    crosses.discard(pos)
    if PipeDream._of(frozenset(crosses)).perm() != base:
        raise InvariantError(
            f"removing the cross at {pos} lost the base permutation {base}"
        )
    jp = j + 1
    while (i, jp) in crosses:
        jp += 1
    crosses.add((i, jp))
    steps.extend((("remove", (pos,)), ("add", ((i, jp),))))
    complete.extend((i, jj) for jj in range(j, jp + 1))
    return i, jp


def _pd_cascade(
    crosses: set,
    base: Permutation,
    last_added: tuple[int, int],
    steps: list,
    complete: list,
):
    """Resolve double crossings until the cross set is reduced again.

    Only the pair of pipes passing through the newly added cross is
    inspected: if those two pipes cross a second time, the older
    crossing is removed and a cross is re-added at the first elbow to
    its right in the same row.  Other pipe pairs may double up while
    the new cross is in place (the extra cross multiplies the product
    by a reflection, which can shorten it by more than one), but each
    removal restores a reduced diagram of the base permutation.
    """
    for _ in range(4 * len(crosses) * len(crosses) + 4):
        tr = trace_pipes(crosses)
        positions = tr.pair_crossings[tr.cross_pipes[last_added]]
        if len(positions) == 1:
            return PipeDream._of(frozenset(crosses)), steps, tuple(complete)
        if len(positions) != 2:
            raise InvariantError(f"pair crosses thrice: {positions}")
        older = next(p for p in positions if p != last_added)
        last_added = _pd_shift(crosses, base, older, steps, complete)
    raise InvariantError("cascade did not terminate")


def _pd_x(diagram: PipeDream, pi: Permutation, alpha: int):
    crosses = set(diagram.crosses)
    j = 1
    while (alpha, j) in crosses:
        j += 1
    crosses.add((alpha, j))
    return _pd_cascade(crosses, pi, (alpha, j), [("add", ((alpha, j),))], [(alpha, j)])


def _pd_m(diagram: PipeDream, pi: Permutation, s: int, beta: int):
    pair = frozenset({pi(s), pi(beta)})
    crossings = trace_pipes(diagram.crosses).pair_crossings
    pos = _unique_crossing(pair, crossings.get(pair, ()))
    crosses = set(diagram.crosses)
    steps, complete = [], []
    last = _pd_shift(crosses, pi, pos, steps, complete)
    return _pd_cascade(crosses, pi, last, steps, complete)


def pd_x_insert(diagram: PipeDream, alpha: int) -> tuple[PipeDream, MonkTrace]:
    """The variable move x_alpha on an ordinary pipe dream.

    >>> out, tr = pd_x_insert(PipeDream(), 3)
    >>> sorted(out.crosses), tr.result_l
    ([(3, 1)], 4)
    """
    return _x_move(diagram, alpha, _pd_x)


def pd_m_move(diagram: PipeDream, s: int, beta: int) -> tuple[PipeDream, MonkTrace]:
    """The transposition move m_{s,beta} on an ordinary pipe dream.

    >>> out, tr = pd_m_move(PipeDream([(1, 1)]), 1, 2)
    >>> sorted(out.crosses), tr.result_l
    ([(1, 2)], 3)
    """
    return _m_move(diagram, s, beta, _pd_m)


def footprints_audit(trace: MonkTrace) -> bool:
    """True when the complete footprints of a pipe dream move are distinct."""
    if trace.complete_footprints is None:
        raise ValueError("complete footprints exist only for pipe dream moves")
    return len(trace.complete_footprints) == len(
        set(trace.complete_footprints)
    )
