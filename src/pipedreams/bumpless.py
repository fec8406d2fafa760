"""Bumpless pipe dreams on square grids.

A diagram is a tuple of rows, each a string over the six-letter alphabet

    '.'  empty tile          '|'  vertical segment      '-'  horizontal
    'r'  turn south-to-east  'j'  turn west-to-north    '+'  crossing

plus the letter 'b' for a bump tile (two touching arcs, south-to-east and
west-to-north) that appears only in intermediate states of insertion moves.

Pipe k enters the south border at the bottom of column k heading north and
leaves through the east border; the diagram's permutation sends the exit row
of pipe k back to k.  Tiles are addressed (row, col), 1-indexed.  One row
sweep, _sweep, reads every grid: it alone accepts or rejects a grid, and its
message words the rejection.

Two enumerators give the same set.  enumerate_bpds builds the grids a row
at a time from their pipes alone, sharing each row among the grids on it,
with no droop and no trace; it serves every caller in the library.  iter_bpds
closes the Rothe diagram under droops, each through the public droop(); it
is kept for its visiting order, which goldens pin, and as enumerate_bpds's oracle.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple, Optional

from .errors import EmptyDiagramError, InvalidDiagramError, InvariantError, MoveError
from .perm import Permutation
from .poly import SparsePolynomial

# The letters that take a pipe through their S edge and through their W edge.
_SOUTH = frozenset("|r+b")
_WEST = frozenset("-j+b")
_LETTERS = _SOUTH | _WEST | {"."}


def _sweep(rows: tuple[str, ...]) -> tuple:
    """Read every pipe of rows in one pass, bottom row first and each row from
    the west.  Pipes run only north and east, so the pipes on a tile's S and W
    edges are known before it is read: up[j - 1] on the S edge in column j,
    carry on the W edge.  Pipe k enters column k from the south.  rows may be
    the bottom rows of a grid, numbered from 1 at the top of rows.

    Returns (word, pairs, up): word[i - 1] is the pipe leaving through row i,
    pairs maps each pair of pipes to the tiles where they cross, top down, and
    up[j - 1] is the pipe leaving the top row through column j (None for every
    column of a whole grid).  Each cross is prepended: a pair crosses once a
    row at most, as one of its pipes leaves north there.

    Raises InvalidDiagramError at a bump, at a tile whose S or W edge does not
    match the pipes that reach it, or at a row that ends with no pipe leaving
    east.  No other edge needs a check on a whole grid: N and E edges are the
    next tiles' S and W, and as no tile copies or drops a pipe, n rows that
    each pass one pipe east pass all n, so up is empty after the top row.
    """
    up: list[Optional[int]] = list(range(1, len(rows[0]) + 1))
    word = [0] * len(rows)
    pairs: dict[frozenset[int], tuple[tuple[int, int], ...]] = {}
    for i in range(len(rows), 0, -1):
        carry = None
        for j, t in enumerate(rows[i - 1], 1):
            south = up[j - 1]
            if (south is None) == (t in _SOUTH) or (carry is None) == (t in _WEST):
                raise InvalidDiagramError(
                    f"tile {t!r} at {(i, j)} does not meet the pipes reaching it"
                )
            if t == "+":
                pair = frozenset((south, carry))
                pairs[pair] = ((i, j),) + pairs.get(pair, ())
            elif t in "rjb":
                if t == "b":
                    raise InvalidDiagramError(f"bump tile at {(i, j)}")
                # A turn moves its one pipe between the S and W edges' slots.
                up[j - 1], carry = carry, south
        if carry is None:
            raise InvalidDiagramError(f"no pipe leaves at row {i}")
        word[i - 1] = carry
    return word, pairs, up


# How a droop of the turn at (a, b) to (c, d) rewrites the border of the
# rectangle they span: the turn leaves (a, b), column b and row a lose the
# pipe's runs, the near corners (c, b) and (a, d) take its new turns east
# and north, row c and column d gain its runs, and (c, d) takes its turn
# north.  A tile missing from its table stops the droop.
_LIFT = {"r": ".", "b": "j"}
_UNRUN_NS = {"|": ".", "+": "-"}
_UNRUN_EW = {"-": ".", "+": "|"}
_TURN_EAST = {"|": "r", "j": "-"}
_TURN_NORTH = {"-": "r", "j": "|"}
_RUN_EW = {".": "-", "|": "+"}
_RUN_NS = {".": "|", "-": "+"}
_LAND = {".": "j", "r": "b"}


def _droop_rows(
    rows: tuple[str, ...], corner: tuple[int, int], far: tuple[int, int]
) -> tuple[str, ...]:
    """The rows after the turn at corner droops to far, strictly southeast
    of it.  Raises MoveError where a border tile cannot take its part.
    Only rows a to c are rebuilt; the others are shared with rows."""
    (a, b), (c, d) = corner, far
    grid = [list(row) for row in rows[a - 1 : c]]

    def put(i, j, table):
        row = grid[i - a]
        new = table.get(row[j - 1])
        if new is None:
            raise MoveError(f"droop meets tile {row[j - 1]!r} at {(i, j)}")
        row[j - 1] = new

    put(a, b, _LIFT)
    for t in range(a + 1, c):
        put(t, b, _UNRUN_NS)
        put(t, d, _RUN_NS)
    for j in range(b + 1, d):
        put(a, j, _UNRUN_EW)
        put(c, j, _RUN_EW)
    put(c, b, _TURN_EAST)
    put(a, d, _TURN_NORTH)
    put(c, d, _LAND)
    return rows[: a - 1] + tuple("".join(row) for row in grid) + rows[c:]


def _first_turn(rows: tuple[str, ...], k: int) -> int:
    """The row where pipe k, running north up column k over '|' and '+'
    from the south border, makes its first turn."""
    i = len(rows)
    while i >= 1 and rows[i - 1][k - 1] in "|+":
        i -= 1
    if i < 1 or rows[i - 1][k - 1] != "r":
        raise InvariantError(f"pipe {k} has no turn in column {k}")
    return i


# A column move of bpd_pop rewrites the strip of columns y and y+1 from the
# marked blank's row down to the row where the neighbouring pipe turns west,
# or on the terminal step crosses pipe y.  The blank takes a turn, the
# neighbouring pipe's run moves one column west, and each kink of another
# pipe from column y into column y+1 moves one column east.  Row by row the
# new pair of tiles depends only on the old pair and on the state: the top
# row, outside a kink, inside one, or the bottom row, which is "last" on a
# non-terminal step and "cross" on the terminal one.
# (state, old pair) -> (new pair, next state).
_COLUMN_MOVE = {
    ("top", ".r"): ("r-", "out"),
    ("top", ".|"): ("rj", "out"),
    ("out", ".|"): ("|.", "out"),
    ("out", "-+"): ("+-", "out"),
    ("out", "r+"): ("|r", "in"),
    ("in", "||"): ("||", "in"),
    ("in", "++"): ("++", "in"),
    ("in", "j|"): ("+j", "out"),
    ("last", "-j"): ("j.", "end"),
    ("last", "rj"): ("|.", "end"),
    ("cross", "r+"): ("|r", "end"),
}
# The same moves run backwards for bpd_insert: (state, new pair) -> (old
# pair, next state).  No two old pairs of one state share a new pair.
_REVERSE = {
    (state, new): (old, nxt) for (state, old), (new, nxt) in _COLUMN_MOVE.items()
}


def _move_strip(
    rows: tuple[str, ...], top: int, bottom: int, col: int, last: str, table: dict
) -> tuple[str, ...]:
    """The rows after table rewrites columns col and col+1 from row top to
    row bottom, whose state is last.  Raises InvariantError where a pair has
    no entry or a kink is still open at the bottom row."""
    out = list(rows)
    state = "top"
    for i in range(top, bottom + 1):
        row = out[i - 1]
        old = row[col - 1 : col + 1]
        if i == bottom:
            if state != "out":
                raise InvariantError(f"column move ends in state {state!r} at {(i, col)}")
            state = last
        step = table.get((state, old))
        if step is None:
            raise InvariantError(f"column move stops at {old!r} at {(i, col)}")
        pair, state = step
        out[i - 1] = row[: col - 1] + pair + row[col + 1 :]
    return tuple(out)


class BpdTrace(NamedTuple):
    """The permutation of a diagram and where each pair of pipes crosses."""

    perm: Permutation
    pair_crossings: dict[frozenset[int], tuple[tuple[int, int], ...]]


def _trim_rows(rows: tuple[str, ...]) -> tuple[str, ...]:
    """Strip trailing identity rows and columns added by growth."""
    while len(rows) > 1:
        n = len(rows)
        if rows[-1] != "|" * (n - 1) + "r":
            break
        if "".join(row[-1] for row in rows) != "-" * (n - 1) + "r":
            break
        rows = tuple(row[:-1] for row in rows[:-1])
    return rows


class BumplessPipeDream:
    """An n x n grid of tiles.

    Equality and hashing compare the trimmed form, so the same diagram drawn
    on grids of different sizes compares equal.

    >>> BumplessPipeDream.rothe(Permutation([2, 1])).rows
    ('.r', 'r+')
    >>> BumplessPipeDream.identity(2).rows
    ('r-', '|r')
    """

    __slots__ = ("rows", "_perm")

    def __init__(self, rows: Iterable[str]):
        rs = tuple(str(row) for row in rows)
        if not rs:
            raise ValueError("empty grid")
        n = len(rs)
        for row in rs:
            if len(row) != n:
                raise ValueError("grid is not square")
            if not _LETTERS.issuperset(row):
                for ch in row:
                    if ch not in _LETTERS:
                        raise ValueError(f"unknown tile letter {ch!r}")
        self.rows = rs
        self._perm = None  # (rows, permutation) once validate() passed

    @classmethod
    def _of(cls, rows: tuple[str, ...], like=None) -> "BumplessPipeDream":
        """The grid of rows, unchecked: rows the library built from checked
        rows.  like, if given, is a grid of the same permutation; if it was
        validated, its permutation carries over untraced."""
        out = cls.__new__(cls)
        out.rows = rows
        memo = like._perm if like is not None else None
        out._perm = (rows, memo[1]) if memo and memo[0] is like.rows else None
        return out

    @property
    def n(self) -> int:
        return len(self.rows)

    def tile(self, i: int, j: int) -> str:
        n = len(self.rows)
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexError(f"tile {(i, j)} is off the {n} x {n} grid")
        return self.rows[i - 1][j - 1]

    @classmethod
    def identity(cls, n: int) -> "BumplessPipeDream":
        if n < 1:
            raise ValueError("size must be positive")
        return cls._of(tuple("|" * i + "r" + "-" * (n - 1 - i) for i in range(n)))

    @classmethod
    def rothe(cls, pi: Permutation, n: int | None = None) -> "BumplessPipeDream":
        """The diagram with a blank at (i, j) exactly when j < pi(i) and
        i < pi^-1(j)."""
        if n is None:
            n = max(pi.size, 1)
        if n < max(pi.size, 1):
            raise ValueError("grid too small for the permutation")
        inv = pi.inverse()
        rows = []
        for r in range(1, n + 1):
            chars = []
            for c in range(1, n + 1):
                if pi(r) == c:
                    chars.append("r")
                elif r > inv(c) and c > pi(r):
                    chars.append("+")
                elif r > inv(c):
                    chars.append("|")
                elif c > pi(r):
                    chars.append("-")
                else:
                    chars.append(".")
            rows.append("".join(chars))
        return cls._of(tuple(rows))

    def grow_to(self, m: int) -> "BumplessPipeDream":
        """Embed into an m x m grid by appending identity rows and columns."""
        rows = self.rows
        while len(rows) < m:
            n = len(rows)
            rows = tuple(row + "-" for row in rows) + ("|" * n + "r",)
        return self if rows is self.rows else self._of(rows, self)

    def trim(self) -> "BumplessPipeDream":
        """Strip the identity borders."""
        return self._of(_trim_rows(self.rows), self)

    def blanks(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i, row in enumerate(self.rows, 1)
            for j, ch in enumerate(row, 1)
            if ch == "."
        ]

    def weight(self) -> SparsePolynomial:
        return SparsePolynomial.monomial(row.count(".") for row in self.rows)

    def trace(self) -> BpdTrace:
        """Read every pipe in one row sweep, whose crossings are the trace's.

        Raises InvalidDiagramError on a malformed grid, with the sweep's
        message: the tile and position where it stopped, or the row that
        no pipe leaves."""
        word, pairs, _ = _sweep(self.rows)
        return BpdTrace(Permutation._of(word), pairs)

    def validate(self) -> Permutation:
        """Check well-formedness and return the permutation of the diagram.

        Requires no bump tile and no pair of pipes crossing more than once.
        The permutation of a grid that passed is kept, keyed to its rows,
        and returned by later calls without a second trace.
        """
        rows = self.rows
        if self._perm is not None and self._perm[0] is rows:
            return self._perm[1]
        trace = self.trace()
        for pair, positions in trace.pair_crossings.items():
            if len(positions) > 1:
                raise InvalidDiagramError(
                    f"pipes {sorted(pair)} cross twice at {positions}"
                )
        # With no pair crossing twice, the crossing pairs are the inversions.
        # A guard, not a rule of the input: the n pipes of a grid that trace
        # accepts run north and east, so they make n^2 tile visits, one per
        # single-pipe tile and two per cross (trace rejects bumps).  So
        # blanks equal crosses, which equal crossing pairs here, and a
        # mismatch is a fault of the library.
        count = sum(row.count(".") for row in rows)
        pairs = len(trace.pair_crossings)
        if count != pairs:
            raise InvariantError(f"{count} blanks but {pairs} crossing pairs")
        self._perm = (rows, trace.perm)
        return trace.perm

    def perm(self) -> Permutation:
        return self.validate()

    def droop(self, corner: tuple[int, int], dest: tuple[int, int]) -> "BumplessPipeDream":
        """Move the turn at corner to the blank dest strictly southeast of it.

        Both must lie on the grid.  The pipe must pass straight through
        the near corners, '|' at (dest row, corner column) and '-' at
        (corner row, dest column), and the rectangle they span may contain
        no other turn of the moving pipe; violations surface as MoveError.
        """
        (a, b), (c, d) = corner, dest
        if not (c > a and d > b):
            raise MoveError("destination must be strictly southeast of corner")
        if a < 1 or b < 1 or c > self.n or d > self.n:
            raise MoveError(f"droop from {corner} to {dest} leaves the grid")
        if self.tile(a, b) != "r":
            raise MoveError(f"no turn to droop at {(a, b)}")
        if self.tile(c, d) != ".":
            raise MoveError(f"destination {(c, d)} is not blank")
        if self.tile(c, b) != "|" or self.tile(a, d) != "-":
            raise MoveError(f"droop needs '|' at {(c, b)} and '-' at {(a, d)}")
        rows = _droop_rows(self.rows, corner, dest)
        try:
            new_pi = BumplessPipeDream._of(rows).validate()
        except InvalidDiagramError as exc:
            raise MoveError(f"droop breaks the diagram: {exc}") from exc
        if new_pi != self.validate():
            raise MoveError("droop changed the permutation")
        # Keep the parent's Permutation: one enumeration then holds one.
        return BumplessPipeDream._of(rows, self)

    def __eq__(self, other) -> bool:
        return isinstance(other, BumplessPipeDream) and _trim_rows(
            self.rows
        ) == _trim_rows(other.rows)

    def __hash__(self) -> int:
        return hash(_trim_rows(self.rows))

    def __repr__(self) -> str:
        return f"BumplessPipeDream({list(self.rows)!r})"

    def to_json(self) -> dict:
        return {
            "model": "bpd",
            "n": self.n,
            "tiles": [list(row) for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BumplessPipeDream":
        if data.get("model") != "bpd":
            raise ValueError("not a bumpless pipe dream payload")
        if "tiles" not in data:
            raise ValueError("the bumpless pipe dream payload has no field 'tiles'")
        tiles = data["tiles"]
        if not isinstance(tiles, list):
            raise ValueError("the field 'tiles' must be a list of rows")
        n = data.get("n", len(tiles))
        if type(n) is not int:
            raise ValueError(f"the field 'n' must be an integer, not {n!r}")
        if len(tiles) != n:
            raise ValueError("tile grid does not match declared size")
        for row in tiles:
            if not isinstance(row, (list, str)):
                raise ValueError("each row of the field 'tiles' must be a list")
            for tile in row:
                if not isinstance(tile, str) or len(tile) != 1:
                    raise ValueError(f"a tile must be one letter, not {tile!r}")
        return cls("".join(row) for row in tiles)


class PopResult(NamedTuple):
    """Outcome of one pop step on a bumpless diagram.

    a and r satisfy perm(result) = s_a * perm(input), the weight drops by
    x_r, and footprints lists the southeast corner of every non-terminal
    rectangle the marked blank moved through.
    """

    a: int
    r: int
    result: BumplessPipeDream
    footprints: tuple[tuple[int, int], ...]


def bpd_pop(diagram: BumplessPipeDream) -> PopResult:
    """One step of the column-move cascade that removes the top blank.

    The marked blank starts as the rightmost blank of the topmost row that
    has one and slides east through column moves until the two pipes around
    it are forced to uncross; that crossing position yields the letter a.
    """
    return _pop(diagram, None)


def _pop(diagram: BumplessPipeDream, known: Optional[BumplessPipeDream]) -> PopResult:
    """bpd_pop(diagram).  known, if given, is a validated grid; a result
    whose trimmed rows are known's takes known's permutation untraced, as
    the permutation is a function of the trimmed rows."""
    pi = diagram.validate()
    if pi.is_identity():
        raise EmptyDiagramError("cannot pop the identity diagram")
    rows = diagram.rows
    n = len(rows)
    r = next(i for i, row in enumerate(rows, 1) if "." in row)
    x, y = r, rows[r - 1].rindex(".") + 1
    footprints: list[tuple[int, int]] = []
    # Each pass moves y at least one column east, and y + 1 > n raises.
    while True:
        # Slide east to the end of the contiguous blank block.
        while y + 1 <= n and rows[x - 1][y] == ".":
            y += 1
        if y + 1 > n:
            raise InvariantError("blank block touched the east border")
        # Scan down column y+1 for the end of the neighboring pipe's run;
        # the table checks that it ends in a turn west.
        x2 = x + 1
        while x2 <= n and rows[x2 - 1][y] in "|+":
            x2 += 1
        terminal = x2 > n
        if terminal:
            # Pipe y+1 runs straight up column y+1 to row x, so pipe y
            # crosses it where pipe y first turns east.
            x2 = _first_turn(rows, y)
            if x2 <= x:
                raise InvariantError(f"pipes {y}, {y + 1} do not cross below row {x}")
        rows = _move_strip(rows, x, x2, y, "cross" if terminal else "last", _COLUMN_MOVE)
        if terminal:
            a = y
            break
        footprints.append((x2, y + 1))
        x, y = x2, y + 1
    result = BumplessPipeDream._of(_trim_rows(rows))
    if result == known:
        result = BumplessPipeDream._of(result.rows, known)
    if result.validate() != pi.left_s(a):
        raise InvariantError("pop changed the permutation incorrectly")
    return PopResult(a, r, result, tuple(footprints))


def bpd_insert(diagram: BumplessPipeDream, a: int, r: int) -> Optional[BumplessPipeDream]:
    """Partial inverse of bpd_pop.

    Returns the diagram D with bpd_pop(D) = (a, r, diagram, ...) if one
    exists, and None otherwise.
    """
    if a < 1 or r < 1:
        raise ValueError("a and r must be positive")
    # Pipes a and a+1 of the reduced grid cross iff a is a left descent, else x < x2.
    if a in diagram.validate().left_descents():
        return None
    rows = diagram.grow_to(max(diagram.n, a + 1)).rows
    x, x2 = _first_turn(rows, a), _first_turn(rows, a + 1)
    # Each strip below reads a reduced grid and leaves one, so it never
    # raises and the round trip's validate() passes.  A column move
    # keeps the strip's outer edges, each pipe's way through it and each
    # pair's crossings in it; the recross swaps how pipes a and a+1 go on
    # and adds their one crossing.  As the state says whether column col+1
    # carries a pipe between two rows, _REVERSE lacks only a top "r+", and
    # that '+' pipe came into column col+1 across the run: it crosses twice.
    # Recross pipes a and a+1 at (x2, a+1), opening the blank at (x, a).
    rows = _move_strip(rows, x, x2, a, "cross", _REVERSE)
    bx, by = x, a
    # Each pass moves by at least one column west, and by - 1 < 1 gives None.
    while True:
        if bx < r:
            return None
        if bx == r:
            break
        while by - 1 >= 1 and rows[bx - 1][by - 2] == ".":
            by -= 1
        if by - 1 < 1:
            return None
        # Undo the column move whose blank started at the turn that tops
        # the run of column by-1 above the blank.
        x0 = bx - 1
        while x0 > 1 and rows[x0 - 1][by - 2] in "|+":
            x0 -= 1
        rows = _move_strip(rows, x0, bx, by - 1, "last", _REVERSE)
        bx, by = x0, by - 1
    # The pop's output check reads diagram's permutation when the pop lands
    # back on diagram's rows, so the round trip traces cur alone.  cur holds
    # the blank the recross opened: it is never the identity.
    cur = BumplessPipeDream._of(rows)
    check = _pop(cur, diagram)
    if (check.a, check.r) == (a, r) and check.result == diagram:
        return cur.trim()
    return None


def iter_bpds(pi: Permutation) -> Iterator[BumplessPipeDream]:
    """Generate all bumpless pipe dreams of pi by closing Rothe under droops.

    Each turn tries the blanks where droop() finds its '|' and '-'.  Use it
    for the droop order, which is pinned, or a lazy prefix; enumerate_bpds
    builds the whole set several times faster without a droop or a trace."""
    start = BumplessPipeDream.rothe(pi)
    seen = {start.rows}
    queue = [start]
    while queue:
        cur = queue.pop()
        yield cur
        rows = cur.rows
        blanks = cur.blanks()
        for a, row in enumerate(rows, 1):
            for b in [j for j, t in enumerate(row, 1) if t == "r"]:
                for c, d in blanks:
                    if c > a and d > b and rows[c - 1][b - 1] == "|" and row[d - 1] == "-":
                        # seen holds every grid reached, valid or not.
                        try:
                            reached = _droop_rows(rows, (a, b), (c, d))
                            if reached not in seen:
                                seen.add(reached)
                                queue.append(cur.droop((a, b), (c, d)))
                        except MoveError:
                            pass


def _build_bpds(pi: Permutation) -> Iterator[BumplessPipeDream]:
    """The bumpless pipe dreams of pi, built a row at a time from the bottom,
    each from the west in _sweep's state: up[j] on a tile's S edge, carry on
    its W edge.  No pipe gives '.'; one goes north ('|', 'j') or east ('r',
    '-'), w(i) only east in row i.  Pipes keep their order until they cross,
    so two cross ('+') only if carry < p and they are an inversion of pi, and
    row i ends carrying w(i), all its inversions crossed, as validate() wants.
    Rows below matter only through up: each up gets one walk over the row,
    and each row it gives tops every stack with that up, which is then freed."""
    n = max(pi.size, 1)
    w = [pi(i) for i in range(1, n + 1)]
    exit_row = [0] * (n + 1)  # pipe -> the row it leaves through, less 1
    for i, k in enumerate(w):
        exit_row[k] = i
    stacks = {tuple(range(1, n + 1)): [()]}  # up -> the stacks of rows below
    for i in range(n - 1, -1, -1):
        todo = [(0, up, None, "", below) for up, below in stacks.items()]
        out, stacks = w[i], {}
        while todo:
            j, up, carry, row, below = todo.pop()
            while j < n:
                p = up[j]
                if p is None:
                    if carry is not None and carry != out:
                        north = up[:j] + (carry,) + up[j + 1 :]
                        todo.append((j + 1, north, None, row + "j", below))
                    row += "." if carry is None else "-"
                elif carry is None:
                    if p != out:
                        todo.append((j + 1, up, None, row + "|", below))
                    up, carry, row = up[:j] + (None,) + up[j + 1 :], p, row + "r"
                elif carry < p and exit_row[carry] > exit_row[p]:
                    row += "+"
                else:
                    break
                j += 1
            else:
                if carry != out:
                    raise InvariantError(f"row {i + 1} ends carrying {carry}, not {out}")
                stacks.setdefault(up, []).extend([(row,) + rows for rows in below])
    length = pi.length()
    for up, built in stacks.items():
        for rows in built:
            if any(up) or "".join(rows).count(".") != length:
                raise InvariantError(f"the row builder made {rows} for {pi}")
            grid = BumplessPipeDream._of(rows)
            grid._perm = (rows, pi)
            yield grid


def enumerate_bpds(pi: Permutation) -> frozenset[BumplessPipeDream]:
    """All bumpless pipe dreams of pi, built a row at a time; every grid
    shares pi as its permutation, and each row built once is shared.

    >>> len(enumerate_bpds(Permutation([3, 2, 1])))
    1
    """
    return frozenset(_build_bpds(pi))
