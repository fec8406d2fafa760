"""Insertion moves realizing the Monk rule on both diagram models.

Two families of moves act here.  On a diagram of pi, the variable move x_a
adds one crossing and lands in a diagram of some pi t_{a,l} with l > a,
multiplying the weight by x_a.  On a diagram of pi t_{s,b} (a cover of pi),
the transposition move m_{s,b} rewires one crossing and lands in a diagram
of some pi t_{b,l} with l > b, preserving the weight.  Together the images
partition the diagrams of all pi t_{a,l}.
"""

from __future__ import annotations

from .bumpless import BumplessPipeDream, _Editor, _SEGMENTS
from .errors import MoveError
from .perm import Permutation
from .pipedream import PipeDream, trace_pipes


class MonkTrace:
    """Step-by-step record of one insertion move.

    steps is a list of (kind, coordinates) pairs; footprints collects the
    positions the move touched, in order.  complete_footprints (ordinary
    pipe dreams only) additionally lists every column swept between a
    removal and the following re-insertion; these are provably all distinct.
    result_l is the l with output permutation equal to base t_{a,l}.
    """

    __slots__ = ("kind", "params", "steps", "footprints", "complete_footprints", "result_l")

    def __init__(self, kind, params, steps, footprints, complete_footprints, result_l):
        self.kind = kind
        self.params = params
        self.steps = steps
        self.footprints = footprints
        self.complete_footprints = complete_footprints
        self.result_l = result_l

    def __repr__(self) -> str:
        return (
            f"MonkTrace(kind={self.kind!r}, params={self.params!r}, "
            f"result_l={self.result_l})"
        )


def _cover_step(base: Permutation, position: int, out: Permutation) -> int:
    """The l with out = base * t_{position, l}; checked to be a cover."""
    tau = base.inverse() * out
    moved = [i for i in range(1, max(tau.size, 1) + 1) if tau(i) != i]
    assert len(moved) == 2 and position in moved, (
        f"output permutation differs from the base by {moved}, not a "
        f"transposition at {position}"
    )
    l = next(i for i in moved if i != position)
    assert l > position, f"landing index {l} not beyond {position}"
    assert out == base.right_t(position, l)
    assert out.length() == base.length() + 1, "output is not a cover"
    return l


# ---------------------------------------------------------------------------
# Bumpless moves


def bpd_min_droop(
    diagram: BumplessPipeDream, pos: tuple[int, int]
) -> tuple[BumplessPipeDream, tuple[int, int]]:
    """Droop the turn at pos to the nearest free corner southeast of it.

    The scans south and east skip crossing tiles only; the grid grows as
    needed.  Returns the new diagram and the corner position, whose tile is
    'j' if the corner was blank and 'b' if it held another pipe's turn.

    >>> d, corner = bpd_min_droop(BumplessPipeDream.identity(2), (1, 1))
    >>> d.rows, corner
    (('.r', 'rb'), (2, 2))
    """
    a, b = pos
    cur = diagram
    if "SE" not in _SEGMENTS[cur.tile(a, b)]:
        raise MoveError(f"no southeast turn at {pos}")
    x = 1
    while True:
        if a + x > cur.n:
            cur = cur.grow_to(a + x)
        if cur.tile(a + x, b) != "+":
            break
        x += 1
    y = 1
    while True:
        if b + y > cur.n:
            cur = cur.grow_to(b + y)
        if cur.tile(a, b + y) != "+":
            break
        y += 1
    ed = _Editor(cur.rows)
    ed.remove(a, b, "SE")
    for t in range(1, x):
        ed.remove(a + t, b, "NS")
    for t in range(1, y):
        ed.remove(a, b + t, "EW")
    below = cur.tile(a + x, b)
    if below == "|":
        ed.remove(a + x, b, "NS")
        ed.add(a + x, b, "SE")
    elif below == "j":
        ed.remove(a + x, b, "NW")
        ed.add(a + x, b, "EW")
    else:
        raise MoveError(f"unexpected tile {below!r} south of the droop")
    east = cur.tile(a, b + y)
    if east == "-":
        ed.remove(a, b + y, "EW")
        ed.add(a, b + y, "SE")
    elif east == "j":
        ed.remove(a, b + y, "NW")
        ed.add(a, b + y, "NS")
    else:
        raise MoveError(f"unexpected tile {east!r} east of the droop")
    for t in range(1, y):
        ed.add(a + x, b + t, "EW")
    for t in range(1, x):
        ed.add(a + t, b + y, "NS")
    ed.add(a + x, b + y, "NW")
    return BumplessPipeDream(ed.apply()), (a + x, b + y)


def bpd_cross_bump_swap(
    diagram: BumplessPipeDream,
    bump: tuple[int, int],
    cross: tuple[int, int],
) -> BumplessPipeDream:
    """Exchange a bump tile and a crossing tile of the same two pipes."""
    if diagram.tile(*bump) != "b":
        raise MoveError(f"no bump at {bump}")
    if diagram.tile(*cross) != "+":
        raise MoveError(f"no crossing at {cross}")
    trace = diagram.trace(allow_bump=True)
    bump_pair = frozenset(
        {trace.strand[(*bump, "SE")], trace.strand[(*bump, "NW")]}
    )
    cross_pair = frozenset(
        {trace.strand[(*cross, "NS")], trace.strand[(*cross, "EW")]}
    )
    if bump_pair != cross_pair:
        raise MoveError(
            f"tiles at {bump} and {cross} belong to different pipe pairs"
        )
    rows = [list(row) for row in diagram.rows]
    rows[bump[0] - 1][bump[1] - 1] = "+"
    rows[cross[0] - 1][cross[1] - 1] = "b"
    return BumplessPipeDream("".join(row) for row in rows)


def _bpd_monk_loop(
    cur: BumplessPipeDream,
    pos: tuple[int, int],
    tracked: int,
    steps: list,
    footprints: list,
) -> BumplessPipeDream:
    """Shared cascade: min-droop, chase the tracked pipe, resolve bumps."""
    for _ in range(8 * cur.n * cur.n + 8):
        cur, corner = bpd_min_droop(cur, pos)
        steps.append(("min_droop", (pos, corner)))
        footprints.append(pos)
        t = cur.tile(*corner)
        if t == "j":
            trace = cur.trace(allow_bump=True)
            turns = [
                (i, j)
                for i, j, seg in trace.paths[tracked]
                if seg == "SE" and i == corner[0]
            ]
            assert len(turns) == 1, (
                f"tracked pipe {tracked} has turns {turns} in row {corner[0]}"
            )
            pos = turns[0]
        elif t == "b":
            trace = cur.trace(allow_bump=True)
            other = trace.strand[(*corner, "SE")]
            crossings = trace.pair_crossings.get(
                frozenset({tracked, other}), ()
            )
            if crossings:
                assert len(crossings) == 1, (
                    f"pipes {tracked} and {other} cross at {crossings}"
                )
                cur = bpd_cross_bump_swap(cur, corner, crossings[0])
                steps.append(("cross_bump_swap", (corner, crossings[0])))
                footprints.append(crossings[0])
                pos = crossings[0]
            else:
                ed = _Editor(cur.rows)
                ed.remove(*corner, "SE")
                ed.remove(*corner, "NW")
                ed.add(*corner, "NS")
                ed.add(*corner, "EW")
                cur = BumplessPipeDream(ed.apply())
                steps.append(("bump_to_cross", (corner,)))
                footprints.append(corner)
                return cur
        else:  # pragma: no cover
            raise AssertionError(f"unexpected corner tile {t!r}")
    raise AssertionError("insertion cascade did not terminate")  # pragma: no cover


def bpd_x_insert(
    diagram: BumplessPipeDream, alpha: int
) -> tuple[BumplessPipeDream, MonkTrace]:
    """The variable move x_alpha on a bumpless diagram.

    >>> out, tr = bpd_x_insert(BumplessPipeDream.identity(1), 1)
    >>> out.rows, tr.result_l
    (('.r', 'r+'), 2)
    """
    if alpha < 1:
        raise ValueError("row index must be positive")
    pi = diagram.validate()
    cur = diagram.grow_to(max(diagram.n, alpha))
    tracked = pi(alpha)
    turn_cols = [
        j for j in range(1, cur.n + 1) if cur.tile(alpha, j) == "r"
    ]
    assert turn_cols, f"row {alpha} has no southeast turn"
    pos = (alpha, max(turn_cols))
    steps: list = []
    footprints: list = []
    cur = _bpd_monk_loop(cur, pos, tracked, steps, footprints)
    out = cur.trim()
    sigma = out.validate()
    l = _cover_step(pi, alpha, sigma)
    trace = MonkTrace(
        "x", {"alpha": alpha}, tuple(steps), tuple(footprints), None, l
    )
    return out, trace


def bpd_m_move(
    diagram: BumplessPipeDream, s: int, beta: int
) -> tuple[BumplessPipeDream, MonkTrace]:
    """The transposition move m_{s,beta} on a bumpless diagram.

    The input must be a diagram of sigma = pi t_{s,beta} with
    len(pi) = len(sigma) - 1; the crossing of the two pipes that exit in
    rows s and beta is turned into a bump and pushed until it resolves.
    """
    if not 1 <= s < beta:
        raise ValueError("need 1 <= s < beta")
    sigma = diagram.validate()
    pi = sigma.right_t(s, beta)
    if pi.length() != sigma.length() - 1:
        raise ValueError(
            f"{sigma} is not a cover of {pi} at positions ({s}, {beta})"
        )
    tracked = pi(beta)
    small = pi(s)
    trace0 = diagram.trace()
    crossings = trace0.pair_crossings.get(frozenset({small, tracked}), ())
    assert len(crossings) == 1, (
        f"pipes {small} and {tracked} cross at {crossings}"
    )
    pos = crossings[0]
    ed = _Editor(diagram.rows)
    ed.remove(*pos, "NS")
    ed.remove(*pos, "EW")
    ed.add(*pos, "SE")
    ed.add(*pos, "NW")
    cur = BumplessPipeDream(ed.apply())
    steps: list = [("cross_to_bump", (pos,))]
    footprints: list = [pos]
    cur = _bpd_monk_loop(cur, pos, tracked, steps, footprints)
    out = cur.trim()
    sigma_out = out.validate()
    l = _cover_step(pi, beta, sigma_out)
    trace = MonkTrace(
        "m", {"s": s, "beta": beta}, tuple(steps), tuple(footprints), None, l
    )
    return out, trace


# ---------------------------------------------------------------------------
# Ordinary pipe dream moves


def _pd_window(crosses, *sizes) -> int:
    needed = max((r + c for r, c in crosses), default=1)
    return max(needed, *sizes)


def _pd_cascade(
    crosses: set,
    base: Permutation,
    last_added: tuple[int, int],
    steps: list,
    footprints: list,
    complete: list,
) -> None:
    """Resolve double crossings until the cross set is reduced again.

    Only the pair of pipes passing through the newly added cross is
    inspected: if those two pipes cross a second time, the older
    crossing is removed and a cross is re-added at the first elbow to
    its right in the same row.  Other pipe pairs may double up while
    the new cross is in place (the extra cross multiplies the product
    by a reflection, which can shorten it by more than one), but each
    removal restores a reduced diagram of the base permutation.
    """
    guard = 0
    while True:
        guard += 1
        assert guard <= 4 * len(crosses) * len(crosses) + 4, (
            "cascade did not terminate"
        )
        tr = trace_pipes(crosses, _pd_window(crosses, max(base.size, 1)))
        pair = tr.cross_pipes[last_added]
        positions = tr.pair_crossings[pair]
        if len(positions) == 1:
            return
        assert len(positions) == 2, f"pair crosses thrice: {positions}"
        i, j = next(p for p in positions if p != last_added)
        crosses.discard((i, j))
        assert PipeDream(crosses).perm() == base, (
            "intermediate diagram lost the base permutation"
        )
        jp = j + 1
        while (i, jp) in crosses:
            jp += 1
        crosses.add((i, jp))
        steps.append(("remove", ((i, j),)))
        steps.append(("add", ((i, jp),)))
        footprints.append((i, j))
        footprints.append((i, jp))
        complete.extend((i, jj) for jj in range(j, jp + 1))
        last_added = (i, jp)


def pd_x_insert(diagram: PipeDream, alpha: int) -> tuple[PipeDream, MonkTrace]:
    """The variable move x_alpha on an ordinary pipe dream.

    >>> out, tr = pd_x_insert(PipeDream(), 3)
    >>> sorted(out.crosses), tr.result_l
    ([(3, 1)], 4)
    """
    if alpha < 1:
        raise ValueError("row index must be positive")
    pi = diagram.perm()
    crosses = set(diagram.crosses)
    j0 = 1
    while (alpha, j0) in crosses:
        j0 += 1
    crosses.add((alpha, j0))
    steps: list = [("add", ((alpha, j0),))]
    footprints: list = [(alpha, j0)]
    complete: list = [(alpha, j0)]
    _pd_cascade(crosses, pi, (alpha, j0), steps, footprints, complete)
    out = PipeDream(crosses)
    sigma = out.perm()
    l = _cover_step(pi, alpha, sigma)
    trace = MonkTrace(
        "x",
        {"alpha": alpha},
        tuple(steps),
        tuple(footprints),
        tuple(complete),
        l,
    )
    return out, trace


def pd_m_move(diagram: PipeDream, s: int, beta: int) -> tuple[PipeDream, MonkTrace]:
    """The transposition move m_{s,beta} on an ordinary pipe dream.

    >>> out, tr = pd_m_move(PipeDream([(1, 1)]), 1, 2)
    >>> sorted(out.crosses), tr.result_l
    ([(1, 2)], 3)
    """
    if not 1 <= s < beta:
        raise ValueError("need 1 <= s < beta")
    sigma = diagram.perm()
    pi = sigma.right_t(s, beta)
    if pi.length() != sigma.length() - 1:
        raise ValueError(
            f"{sigma} is not a cover of {pi} at positions ({s}, {beta})"
        )
    window = _pd_window(
        diagram.crosses, max(sigma.size, 1), pi(s), pi(beta)
    )
    tr0 = trace_pipes(diagram.crosses, window)
    pair = frozenset({pi(s), pi(beta)})
    positions = tr0.pair_crossings.get(pair, ())
    assert len(positions) == 1, (
        f"pipes {sorted(pair)} cross at {positions}"
    )
    i, j = positions[0]
    crosses = set(diagram.crosses)
    crosses.discard((i, j))
    assert PipeDream(crosses).perm() == pi, (
        "uncrossing did not return to the base permutation"
    )
    jp = j + 1
    while (i, jp) in crosses:
        jp += 1
    crosses.add((i, jp))
    steps: list = [("remove", ((i, j),)), ("add", ((i, jp),))]
    footprints: list = [(i, j), (i, jp)]
    complete: list = [(i, jj) for jj in range(j, jp + 1)]
    _pd_cascade(crosses, pi, (i, jp), steps, footprints, complete)
    out = PipeDream(crosses)
    sigma_out = out.perm()
    l = _cover_step(pi, beta, sigma_out)
    trace = MonkTrace(
        "m",
        {"s": s, "beta": beta},
        tuple(steps),
        tuple(footprints),
        tuple(complete),
        l,
    )
    return out, trace


def footprints_audit(trace: MonkTrace) -> bool:
    """True when the complete footprints of a pipe dream move are distinct."""
    if trace.complete_footprints is None:
        raise ValueError("complete footprints exist only for pipe dream moves")
    return len(trace.complete_footprints) == len(
        set(trace.complete_footprints)
    )


if __name__ == "__main__":  # pragma: no cover
    import doctest

    doctest.testmod()
