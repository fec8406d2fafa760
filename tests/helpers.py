"""Independent brute-force oracles for the test suite.

Everything here is deliberately written from scratch against the tile
definitions, without reusing the library's tracing, enumeration, or
polynomial code, so that agreement between the two is evidence rather
than tautology.  Only the plain data containers (tuples, dicts) are
shared with the library, and verify_moves, which lists the Monk moves that
the library's checks make so that tests can make the same ones.
"""

from itertools import combinations

from pipedreams import symmetric_group
from pipedreams.verify import _moves_at

# Total number of n x n grids over the six bumpless tiles with closed
# north/west borders and fully used south/east borders.  These equal the
# alternating sign matrix numbers; used as a self-check on the brute
# enumerator.
GRID_TOTALS = {1: 1, 2: 2, 3: 7, 4: 42, 5: 429}


def staircase_cells(n):
    """Cells (i, j) with i + j <= n, the support of S_n pipe dreams."""
    return [(i, j) for i in range(1, n) for j in range(1, n - i + 1)]


def word_of(crosses):
    """Reading word of a cross set in grid order (rows top-down,
    each row right to left)."""
    ordered = sorted(crosses, key=lambda rc: (rc[0], -rc[1]))
    return tuple(r + c - 1 for r, c in ordered)


def apply_word(word, size):
    """Multiply out a word of adjacent swaps acting on positions.

    Returns (one_line, reduced): the resulting window permutation and
    whether every swap increased the inversion count.
    """
    w = list(range(1, size + 1))
    reduced = True
    for a in word:
        if w[a - 1] > w[a]:
            reduced = False
        w[a - 1], w[a] = w[a], w[a - 1]
    while len(w) > 1 and w[-1] == len(w):
        w.pop()
    if w == [1]:
        return (), reduced
    return tuple(w), reduced


def trim_word(one_line):
    w = list(one_line)
    while len(w) > 1 and w[-1] == len(w):
        w.pop()
    if w == [1]:
        return ()
    return tuple(w)


def walk_pipe_dream(crosses):
    """Follow the pipes of a cross set through the pipe dream picture.

    Pipe k enters the top of column k heading south.  A cross tile lets
    it pass straight; every other tile is an elbow that joins its north
    edge to its west edge and its east edge to its south edge.  The pipe
    leaves through the west border.  Returns (cross_pipes, pair_cells):
    the two pipes through each cross, and for each pair of pipes the
    sorted tuple of crosses they share.
    """
    cells = set(crosses)
    size = max((r + c for r, c in cells), default=1)
    visitors = {}
    for k in range(1, size + 1):
        row, col, came_from = 1, k, "N"
        while col >= 1:
            assert row <= size, ("pipe left through the south", crosses, k)
            if (row, col) in cells:
                visitors.setdefault((row, col), []).append(k)
                going = "S" if came_from == "N" else "W"
            else:
                going = "W" if came_from == "N" else "S"
            if going == "S":
                row, came_from = row + 1, "N"
            else:
                col, came_from = col - 1, "E"
    cross_pipes = {}
    pair_cells = {}
    for cell, who in visitors.items():
        assert len(who) == 2, (crosses, cell, who)
        cross_pipes[cell] = frozenset(who)
        pair_cells.setdefault(frozenset(who), []).append(cell)
    return cross_pipes, {p: tuple(sorted(cs)) for p, cs in pair_cells.items()}


def brute_pipe_dreams(n):
    """All reduced cross subsets of the S_n staircase, grouped by the
    trimmed one-line word of their product."""
    cells = staircase_cells(n)
    grouped = {}
    for k in range(len(cells) + 1):
        for chosen in combinations(cells, k):
            word, reduced = apply_word(word_of(chosen), n)
            if not reduced:
                continue
            grouped.setdefault(trim_word(word), set()).add(frozenset(chosen))
    return grouped


# Tile edge usage as (N, E, S, W) bits.
_TILE_EDGES = {
    ".": (0, 0, 0, 0),
    "|": (1, 0, 1, 0),
    "-": (0, 1, 0, 1),
    "r": (0, 1, 1, 0),
    "j": (1, 0, 0, 1),
    "+": (1, 1, 1, 1),
}


def _row_fills(n, north):
    """All legal fillings of one grid row given its north edge profile."""
    results = []

    def go(j, west, row, south):
        if j == n:
            results.append(("".join(row), tuple(south)))
            return
        for tile, (tn, te, ts, tw) in _TILE_EDGES.items():
            if tn != north[j] or tw != west:
                continue
            if j == n - 1 and te != 1:
                continue
            go(j + 1, te, row + [tile], south + [ts])

    go(0, 0, [], [])
    return results


def legal_grid(rows):
    """Whether rows tile a square grid legally, read off the edges of each
    tile: every tile is one of the six letters (a bump is not), no edge
    crosses the north or west border, a pipe crosses every edge of the south
    and east borders, and each interior edge is used by both tiles on it or
    by neither."""
    if any(t not in _TILE_EDGES for row in rows for t in row):
        return False
    edges = [[_TILE_EDGES[t] for t in row] for row in rows]
    n = len(rows)
    for k in range(n):
        if edges[0][k][0] or not edges[-1][k][2]:
            return False
        if edges[k][0][3] or not edges[k][-1][1]:
            return False
    for i in range(n):
        for j in range(n):
            _, east, south, _ = edges[i][j]
            if j + 1 < n and east != edges[i][j + 1][3]:
                return False
            if i + 1 < n and south != edges[i + 1][j][0]:
                return False
    return True


def brute_grids(n):
    """All legal n x n grids over the six tiles."""
    frontier = [((), (0,) * n)]
    for _ in range(n):
        nxt = []
        for rows, profile in frontier:
            for row, south in _row_fills(n, profile):
                nxt.append((rows + (row,), south))
        frontier = nxt
    grids = [rows for rows, south in frontier if all(south)]
    assert len(grids) == GRID_TOTALS[n], (n, len(grids))
    return grids


def trace_grid(rows, entered=None):
    """Trace every pipe of a legal grid, whose tiles may include bumps: a
    bump turns a pipe heading north to the east, and one heading east to
    the north.

    Returns (exit_rows, pair_cells): the map entry column -> exit row,
    and for each pair of pipes the list of cross tiles they share.  If
    entered is a dict, it gets (row, col, edge) -> entry column for the
    S or W edge through which each pipe enters each tile.
    """
    n = len(rows)
    visitors = {}
    exit_rows = {}
    if entered is None:
        entered = {}
    for c in range(1, n + 1):
        i, j, heading = n, c, "N"
        for _ in range(2 * n * n + 2):
            tile = rows[i - 1][j - 1]
            if heading == "N":
                entered[(i, j, "S")] = c
                assert tile in "|+rb", (rows, i, j)
                if tile == "+":
                    visitors.setdefault((i, j), []).append(c)
                if tile in "rb":
                    heading = "E"
                    j += 1
                else:
                    i -= 1
            else:
                entered[(i, j, "W")] = c
                assert tile in "-+jb", (rows, i, j)
                if tile == "+":
                    visitors.setdefault((i, j), []).append(c)
                if tile in "jb":
                    heading = "N"
                    i -= 1
                else:
                    j += 1
            if j > n:
                exit_rows[c] = i
                break
            assert i >= 1
        else:
            raise AssertionError("pipe walk did not terminate")
    pair_cells = {}
    for cell, who in visitors.items():
        assert len(who) == 2, (rows, cell, who)
        pair_cells.setdefault(frozenset(who), []).append(cell)
    return exit_rows, pair_cells


def trim_grid(rows):
    """Strip trailing identity rows and columns."""
    rows = list(rows)
    n = len(rows)
    while n > 1:
        last_row = rows[n - 1]
        last_col = "".join(r[n - 1] for r in rows)
        if last_row == "|" * (n - 1) + "r" and last_col == "-" * (n - 1) + "r":
            rows = [r[: n - 1] for r in rows[: n - 1]]
            n -= 1
        else:
            break
    return tuple(rows)


def brute_bpds(n):
    """All reduced legal grids, grouped by trimmed one-line word,
    stored as trimmed row tuples."""
    grouped = {}
    for rows in brute_grids(n):
        exit_rows, pair_cells = trace_grid(rows)
        if any(len(cells) > 1 for cells in pair_cells.values()):
            continue
        one_line = tuple(
            next(c for c in exit_rows if exit_rows[c] == i)
            for i in range(1, n + 1)
        )
        grouped.setdefault(trim_word(one_line), set()).add(trim_grid(rows))
    return grouped


def verify_moves(n):
    """(pi, base, move, label) for each Monk move the checks of verify make
    over S_n."""
    for pi in symmetric_group(n):
        for base, move, label in _moves_at(pi, n):
            yield pi, base, move, label


# Schubert polynomials of S_3, exponent tuple -> coefficient.
S3_SCHUBERT = {
    (1, 2, 3): {(): 1},
    (1, 3, 2): {(1,): 1, (0, 1): 1},
    (2, 1, 3): {(1,): 1},
    (2, 3, 1): {(1, 1): 1},
    (3, 1, 2): {(2,): 1},
    (3, 2, 1): {(2, 1): 1},
}
