"""Tests for bumpless pipe dreams: validation, Rothe diagrams, droops,
pop, and insert."""

import ast
import copy
import itertools
import random
from pathlib import Path

import pytest

import pipedreams

from helpers import (
    brute_bpds,
    brute_grids,
    legal_grid,
    trace_grid,
    trim_grid,
    verify_moves,
)
from pipedreams import (
    BumplessPipeDream,
    EmptyDiagramError,
    InvalidDiagramError,
    InvariantError,
    MoveError,
    Permutation,
    bpd_insert,
    bpd_pop,
    bpd_x_insert,
    enumerate_bpds,
    enumerate_pipe_dreams,
    phi,
    phi_inverse,
    schubert_polynomial,
    symmetric_group,
)
from pipedreams import bumpless, monk
from pipedreams.bumpless import _sweep, iter_bpds
from pipedreams.poly import SparsePolynomial
from pipedreams.verify import MODELS

ORACLE_4 = brute_bpds(4)
ORACLE_5 = brute_bpds(5)


def test_identity_grids():
    assert BumplessPipeDream.identity(1).rows == ("r",)
    assert BumplessPipeDream.identity(2).rows == ("r-", "|r")
    assert BumplessPipeDream.identity(3).rows == ("r--", "|r-", "||r")


def test_rothe_fixtures():
    assert BumplessPipeDream.rothe(Permutation((2, 1))).rows == (".r", "r+")
    assert BumplessPipeDream.rothe(Permutation((3, 2, 1))).rows == (
        "..r",
        ".r+",
        "r++",
    )
    assert BumplessPipeDream.rothe(Permutation((1, 3, 2))).rows == (
        "r--",
        "|.r",
        "|r+",
    )
    assert BumplessPipeDream.rothe(Permutation.identity(), 2) == (
        BumplessPipeDream.identity(1)
    )


def test_rothe_perm_roundtrip():
    for pi in symmetric_group(4):
        assert BumplessPipeDream.rothe(pi).perm() == pi


def test_rothe_blanks_match_length():
    for pi in symmetric_group(4):
        d = BumplessPipeDream.rothe(pi)
        assert len(d.blanks()) == pi.length()


def test_validate_rejects_bad_rows():
    with pytest.raises(InvalidDiagramError):
        BumplessPipeDream(("rr", "rr")).validate()
    with pytest.raises(InvalidDiagramError):
        BumplessPipeDream(("r",)).grow_to(2)  # fine
        BumplessPipeDream(("--", "--")).validate()
    with pytest.raises(InvalidDiagramError):
        BumplessPipeDream(("r-", "|j")).validate()


@pytest.mark.parametrize(
    "rows, message",
    [
        (("|rx", "...", "..."), "unknown tile letter 'x'"),
        (("...", "|rx", "y.."), "unknown tile letter 'x'"),
        (("|ry", "x..", "..."), "unknown tile letter 'y'"),
        (("|r", "|rx"), "grid is not square"),
        (("|x", "|r."), "unknown tile letter 'x'"),
    ],
)
def test_constructor_names_the_first_bad_row_fault(rows, message):
    with pytest.raises(ValueError) as err:
        BumplessPipeDream(rows)
    assert str(err.value) == message


def test_validate_rejects_double_crossing():
    non_reduced = [
        rows
        for rows in brute_grids(4)
        if any(len(v) > 1 for v in trace_grid(rows)[1].values())
    ]
    assert len(non_reduced) == 1
    with pytest.raises(InvalidDiagramError):
        BumplessPipeDream(non_reduced[0]).validate()


def assert_trace_matches_oracle(rows):
    """trace()'s permutation and sorted pair crossings against
    helpers.trace_grid."""
    trace = BumplessPipeDream(rows).trace()
    exit_rows, pair_cells = trace_grid(rows)
    word = [0] * len(rows)
    for column, row in exit_rows.items():
        word[row - 1] = column
    assert trace.perm == Permutation(word), rows
    assert trace.pair_crossings == {
        pair: tuple(sorted(cells)) for pair, cells in pair_cells.items()
    }, rows


@pytest.mark.parametrize("n", [4, 5])
def test_trace_matches_oracle(n):
    for rows in brute_grids(n):
        assert_trace_matches_oracle(rows)


# One grid per kind of fault in a tiling, each with the message of the sweep
# that rejects it: the tile and position where it stopped, or the row that
# no pipe leaves.  A blank count off the crossing pairs is a guard that
# raises InvariantError: in a grid that the sweep accepts with no double
# crossing, blanks equal crosses, which equal crossing pairs.
REJECTIONS = [
    ((".r", "rb"), "bump tile at (2, 2)"),
    (("|",), "no pipe leaves at row 1"),
    (("-",), "tile '-' at (1, 1) does not meet the pipes reaching it"),
    (("--", "++"), "tile '+' at (2, 1) does not meet the pipes reaching it"),
    (("r.", "||"), "no pipe leaves at row 2"),
    (("rr", "rr"), "tile 'r' at (2, 2) does not meet the pipes reaching it"),
    ((".r", "|r"), "tile '.' at (1, 1) does not meet the pipes reaching it"),
    (
        ("..r-", ".r+-", "r+jr", "||r+"),
        "pipes [1, 2] cross twice at ((2, 3), (3, 2))",
    ),
]


@pytest.mark.parametrize("rows, message", REJECTIONS)
def test_validate_rejection_messages(rows, message):
    with pytest.raises(InvalidDiagramError) as excinfo:
        BumplessPipeDream(rows).validate()
    assert str(excinfo.value) == message


def test_the_sweep_rejects_exactly_the_illegal_grids_of_size_1_and_2():
    # Every grid of size 1 and 2 over the seven letters; the legal ones are
    # the 1 + 2 that helpers.brute_grids lists.
    grids = [
        tuple("".join(row) for row in zip(*[iter(tiles)] * n))
        for n in (1, 2)
        for tiles in itertools.product(".|-rj+b", repeat=n * n)
    ]
    legal = []
    for rows in grids:
        try:
            BumplessPipeDream(rows).trace()
        except InvalidDiagramError:
            assert not legal_grid(rows), rows
        else:
            assert legal_grid(rows), rows
            legal.append(rows)
    assert len(grids) == 2408
    assert sorted(legal) == sorted(brute_grids(1) + brute_grids(2))


def test_the_sweep_alone_decides_every_grid_of_s5():
    for pi in symmetric_group(5):
        for d in enumerate_bpds(pi):
            assert BumplessPipeDream(d.rows).validate() == pi


def test_phi_and_phi_inverse_diagnose_no_grid():
    pi = Permutation.parse("2153746")
    for b in enumerate_bpds(pi):
        d = BumplessPipeDream(b.rows)
        assert phi_inverse(phi(d).pipe_dream()) == d
    for d in enumerate_pipe_dreams(pi):
        assert phi(phi_inverse(d)).pipe_dream() == d


def test_a_blank_count_off_the_crossing_pairs_is_an_invariant_error(monkeypatch):
    real = bumpless._sweep

    def dropping(rows):
        word, pairs, up = real(rows)
        pairs.popitem()
        return word, pairs, up

    monkeypatch.setattr(bumpless, "_sweep", dropping)
    with pytest.raises(InvariantError, match="^1 blanks but 0 crossing pairs$"):
        BumplessPipeDream((".r", "r+")).validate()


def test_the_sweep_rejects_a_pipe_leaving_the_top():
    # No row check fires on the north border: the pipe that leaves the top
    # leaves some row with no pipe to pass east.
    with pytest.raises(InvalidDiagramError, match="no pipe leaves at row 1"):
        _sweep(("|",))
    with pytest.raises(InvalidDiagramError, match="no pipe leaves at row 2"):
        _sweep(("|r", "||"))


@pytest.fixture
def traced(monkeypatch):
    """The rows of every grid BumplessPipeDream.trace is called on."""
    calls = []
    real = BumplessPipeDream.trace

    def counting(self):
        calls.append(self.rows)
        return real(self)

    monkeypatch.setattr(BumplessPipeDream, "trace", counting)
    return calls


def test_validated_grid_is_traced_once(traced):
    d = BumplessPipeDream.rothe(Permutation((3, 1, 2)))
    assert d.validate() == d.perm()
    assert traced == [d.rows]


def test_phi_inverse_traces_at_most_two_grids_per_insertion(traced):
    # The identity start, then per insertion at most the round-trip pop's
    # input check and output check; the exact count, one per insertion,
    # is pinned by test_phi_inverse_sweeps_one_grid_per_insertion.
    pi = Permutation.parse("2153746")
    for d in enumerate_pipe_dreams(pi):
        traced.clear()
        phi_inverse(d)
        assert len(traced) <= 2 * pi.length() + 1, d


@pytest.fixture
def swept(monkeypatch):
    """The rows of every grid bumpless._sweep reads."""
    calls = []
    real = bumpless._sweep

    def counting(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(bumpless, "_sweep", counting)
    return calls


def test_phi_inverse_sweeps_one_grid_per_insertion(swept):
    # The identity start, then the round-trip pop's input check of each
    # inserted grid; the pop lands back on the grid inserted into, whose
    # permutation is known, and the trimmed return keeps its permutation.
    pi = Permutation.parse("2153746")
    diagrams = enumerate_pipe_dreams(pi)
    for d in diagrams:
        before = len(swept)
        phi_inverse(d)
        assert len(swept) - before == pi.length() + 1, d
    assert len(diagrams) == 75
    assert len(swept) == 450


def test_insert_sweeps_the_pop_output_only_when_it_is_not_the_input(swept):
    # The pop lands back on the input: its rows are not swept again.
    base = BumplessPipeDream.identity(1)
    base.validate()
    swept.clear()
    out = bpd_insert(base, 1, 1)
    assert out == BumplessPipeDream.rothe(Permutation((2, 1)))
    assert swept == [out.rows]
    # The pop lands elsewhere: its output is swept, as before.
    base = BumplessPipeDream(("r---", "|.r-", "|rjr", "||r+"))
    base.validate()
    swept.clear()
    assert bpd_insert(base, 2, 3) is None
    assert len(swept) == 2 and base.rows not in swept


def test_insert_keeps_the_pop_output_check(monkeypatch):
    # Insertions whose pop lands back on the input, which now reads its
    # permutation off the input: a wrong left_s still fails the check.
    start = BumplessPipeDream.identity(1)
    popped = bpd_pop(BumplessPipeDream.rothe(Permutation.parse("2153746")))
    cases = [(start, 1, 1), (popped.result, popped.a, popped.r)]
    for d, a, r in cases:
        assert bpd_insert(d, a, r) is not None
    monkeypatch.setattr(
        Permutation, "left_s", lambda self, i: Permutation((2, 1, 3, 5, 4))
    )
    for d, a, r in cases:
        with pytest.raises(InvariantError) as err:
            bpd_insert(d, a, r)
        assert str(err.value) == "pop changed the permutation incorrectly"


def test_phi_traces_each_grid_of_the_pop_chain_once(traced):
    # The input check of the first pop, then one output check per pop; no
    # pop traces an intermediate grid.
    pi = Permutation.parse("2153746")
    for rows in sorted(b.rows for b in enumerate_bpds(pi)):
        traced.clear()
        phi(BumplessPipeDream(rows))
        assert len(traced) <= pi.length() + 1, rows


def test_every_bumpless_move_of_s4_traces_only_its_input_and_output(traced):
    # The cascade follows single pipes; only the frame validates, the input
    # (unless its permutation is kept) and the output.
    for _, base, move, _ in verify_moves(4):
        for b in enumerate_bpds(base):
            d = BumplessPipeDream(b.rows)
            traced.clear()
            out, _ = MODELS["bpd"].apply(d, move)
            assert traced == [d.rows, out.rows], (d.rows, move)
            traced.clear()
            MODELS["bpd"].apply(d, move)
            assert traced == [out.rows], (d.rows, move)


@pytest.fixture
def constructed(monkeypatch):
    """One entry per grid built through the checked public constructor."""
    calls = []
    real = BumplessPipeDream.__init__

    def counting(self, rows):
        calls.append(rows)
        real(self, rows)

    monkeypatch.setattr(BumplessPipeDream, "__init__", counting)
    return calls


def test_internal_grids_skip_the_checked_constructor(constructed):
    # Insertions, pops and Monk cascades build every grid from checked rows
    # through BumplessPipeDream._of; only the caller's grids were checked.
    pi = Permutation.parse("2153746")
    diagrams = enumerate_pipe_dreams(pi)
    moves = [(move, enumerate_bpds(base)) for _, base, move, _ in verify_moves(4)]
    constructed.clear()
    for d in diagrams:
        phi_inverse(d)
    for move, grids in moves:
        for b in grids:
            MODELS["bpd"].apply(b, move)
    assert len(diagrams) == 75
    assert constructed == []


def test_tables_and_builders_emit_only_known_letters():
    # _of checks no letter, so every letter the library writes is checked here.
    tables = [
        bumpless._LIFT,
        bumpless._UNRUN_NS,
        bumpless._UNRUN_EW,
        bumpless._TURN_EAST,
        bumpless._TURN_NORTH,
        bumpless._RUN_EW,
        bumpless._RUN_NS,
        bumpless._LAND,
    ]
    emitted = "".join(v for table in tables for v in table.values())
    for table in (bumpless._COLUMN_MOVE, bumpless._REVERSE):
        emitted += "".join(pair for pair, _ in table.values())
    for n in range(1, 7):
        emitted += "".join(BumplessPipeDream.identity(n).rows)
    for pi in symmetric_group(5):
        d = BumplessPipeDream.rothe(pi, 6)
        emitted += "".join(d.rows + d.grow_to(8).rows)
    assert set(emitted) <= bumpless._LETTERS
    assert set(".|-rj+b") <= set(emitted)


@pytest.mark.parametrize("n", [4, 5])
def test_crossings_match_oracle(n):
    for rows in brute_grids(n):
        pair_cells = trace_grid(rows)[1]
        pairs = _sweep(rows)[1]
        for p, q in itertools.permutations(range(1, n + 1), 2):
            cells = sorted(pair_cells.get(frozenset({p, q}), []))
            assert sorted(pairs.get(frozenset({p, q}), [])) == cells, (rows, p, q)


def assert_sweep_matches_oracle(rows):
    """The sweep's exit word and crossings against helpers.trace_grid, and
    the exit word and the pipes leaving the top of the bottom rows from
    each row i >= 2 down: those entering row i - 1 from the south."""
    n = len(rows)
    entered = {}
    exit_rows, pair_cells = trace_grid(rows, entered)
    word, pairs, up = _sweep(rows)
    assert up == [None] * n
    assert word == sorted(exit_rows, key=exit_rows.get), rows
    assert {p: sorted(v) for p, v in pairs.items()} == {
        p: sorted(v) for p, v in pair_cells.items()
    }, rows
    for i in range(2, n + 1):
        bottom_word, _, up = _sweep(rows[i - 1 :])
        assert bottom_word == word[i - 1 :], (rows, i)
        assert up == [entered.get((i - 1, j, "S")) for j in range(1, n + 1)], (rows, i)


def test_sweep_matches_oracle_on_s7_s8_enumeration_prefixes():
    rng = random.Random(7)
    grids = set()
    for n in (7, 8):
        for _ in range(5):
            pi = Permutation(rng.sample(range(1, n + 1), n))
            grids.update(d.rows for d in itertools.islice(iter_bpds(pi), 30))
    assert len(grids) == 185
    for rows in sorted(grids):
        assert_sweep_matches_oracle(rows)
        assert_trace_matches_oracle(rows)


def test_sweep_matches_oracle_on_the_bump_grids_of_the_s4_cascades(monkeypatch):
    # Every grid with a bump that an S4 cascade droops from or to.
    grids = set()
    real = monk.bpd_min_droop

    def recording(diagram, pos):
        out, corner = real(diagram, pos)
        grids.update(r for r in (diagram.rows, out.rows) if "b" in "".join(r))
        return out, corner

    monkeypatch.setattr(monk, "bpd_min_droop", recording)
    for _, base, move, _ in verify_moves(4):
        for d in enumerate_bpds(base):
            MODELS["bpd"].apply(d, move)
    assert len(grids) == 423
    # The sweep reads finished grids only: it stops at the first bump it
    # reads, the lowest, and trace() gives its message.  Below the lowest
    # bump, the sweeps of the bottom rows still match the oracle.
    partial = 0
    for rows in sorted(grids):
        n = len(rows)
        bumps = [
            (i, row.index("b") + 1) for i, row in enumerate(rows, 1) if "b" in row
        ]
        with pytest.raises(InvalidDiagramError) as traced:
            BumplessPipeDream(rows).trace()
        assert str(traced.value) == f"bump tile at {bumps[-1]}", rows
        entered = {}
        exit_rows = trace_grid(rows, entered)[0]
        word = sorted(exit_rows, key=exit_rows.get)
        for i in range(bumps[-1][0] + 1, n + 1):
            bottom_word, _, up = _sweep(rows[i - 1 :])
            assert bottom_word == word[i - 1 :], (rows, i)
            south = [entered.get((i - 1, j, "S")) for j in range(1, n + 1)]
            assert up == south, (rows, i)
            partial += 1
    assert partial == 55


def test_trim_carries_the_validated_permutation(traced):
    pi = Permutation.parse("2153746")
    grown = BumplessPipeDream.rothe(pi).grow_to(9)
    assert grown.validate() == pi
    traced.clear()
    trimmed = grown.trim()
    assert trimmed.n == 7
    assert trimmed.validate() is grown.validate()
    assert traced == []
    # An unvalidated grid passes on no memo: the trimmed grid is traced.
    fresh = BumplessPipeDream.rothe(pi).grow_to(9).trim()
    assert fresh.validate() == pi
    assert traced == [fresh.rows]


def test_grow_to_copies_nothing_and_carries_the_validated_permutation(traced):
    pi = Permutation.parse("2153746")
    d = BumplessPipeDream.rothe(pi)
    assert d.grow_to(d.n) is d and d.grow_to(1) is d
    assert d.validate() == pi
    traced.clear()
    grown = d.grow_to(9)
    assert grown.n == 9
    assert grown.validate() is d.validate()
    assert traced == []


def test_x_move_neither_copies_nor_retraces_its_input(traced, monkeypatch):
    grown = []
    real = BumplessPipeDream.grow_to

    def spy(self, m):
        grown.append((self, real(self, m)))
        return grown[-1][1]

    monkeypatch.setattr(BumplessPipeDream, "grow_to", spy)
    d = BumplessPipeDream.rothe(Permutation.parse("2153746"))
    d.validate()
    traced.clear()
    out, _ = bpd_x_insert(d, 2)
    assert grown[0][0] is grown[0][1] is d
    assert traced == [out.rows]


def test_enumeration_traces_no_grid_twice(traced):
    # A droop landing on rows already visited is not validated again.
    list(iter_bpds(Permutation.parse("21786534")))
    assert len(traced) == len(set(traced))
    assert len(traced) <= 1600


def test_enumerate_bpds_sweeps_no_grid(swept):
    # The row builder makes the checks of a sweep as it places each tile.
    assert len(enumerate_bpds(Permutation.parse("21786534"))) == 1315
    assert swept == []


@pytest.mark.parametrize(
    "enumerate_", [enumerate_bpds, iter_bpds], ids=lambda f: f.__name__
)
def test_every_diagram_of_an_enumeration_shares_one_permutation(enumerate_):
    diagrams = list(enumerate_(Permutation.parse("2153746")))
    perms = {id(d.validate()) for d in diagrams}
    assert len(diagrams) > 1 and len(perms) == 1


def test_trim_of_a_malformed_grid_invents_no_memo():
    bad = BumplessPipeDream(("rr", "rr")).grow_to(3)
    with pytest.raises(InvalidDiagramError):
        bad.validate()
    for _ in range(2):
        with pytest.raises(InvalidDiagramError):
            bad.trim().validate()
    # A memo of rows that were since replaced is not carried either.
    stale = BumplessPipeDream.identity(3)
    assert stale.validate() == Permutation()
    stale.rows = bad.rows
    with pytest.raises(InvalidDiagramError):
        stale.trim().validate()


def test_malformed_grid_raises_on_every_validate():
    d = BumplessPipeDream(("rr", "rr"))
    for _ in range(3):
        with pytest.raises(InvalidDiagramError):
            d.validate()


def test_bump_validate_does_not_admit_a_later_plain_validate():
    d = BumplessPipeDream((".r", "rb"))
    for _ in range(2):
        with pytest.raises(InvalidDiagramError, match="bump tile"):
            d.validate()


def test_reassigned_rows_give_the_new_permutation():
    d = BumplessPipeDream.rothe(Permutation((2, 1)))
    assert d.perm() == Permutation((2, 1))
    d.rows = BumplessPipeDream.rothe(Permutation((3, 2, 1))).rows
    assert d.perm() == Permutation((3, 2, 1))
    d.rows = ("rr", "rr")
    with pytest.raises(InvalidDiagramError):
        d.perm()


def test_validated_diagram_compares_copies_and_serialises_as_before():
    pi = Permutation.parse("2153746")
    checked = BumplessPipeDream.rothe(pi)
    fresh = BumplessPipeDream.rothe(pi)
    assert checked.validate() == pi
    assert checked == fresh and hash(checked) == hash(fresh)
    assert checked.to_json() == fresh.to_json()
    assert repr(checked) == repr(fresh)
    twin = copy.copy(checked)
    assert twin == checked and twin.rows == checked.rows
    assert twin.perm() == pi
    twin.rows = BumplessPipeDream.identity(3).rows
    assert twin.perm() == Permutation()
    assert checked.perm() == pi


@pytest.mark.parametrize(
    "path",
    sorted(Path(pipedreams.__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_module_has_no_assert(path):
    # Invariants must raise InvariantError so that python -O keeps them.
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        assert not isinstance(node, ast.Assert), node.lineno
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            assert getattr(exc, "id", None) != "AssertionError", node.lineno


def test_bump_tile_only_with_flag():
    rows = (".r", "rb")
    with pytest.raises(InvalidDiagramError):
        BumplessPipeDream(rows).validate()


def test_grow_and_trim_roundtrip():
    d = BumplessPipeDream.rothe(Permutation((2, 1)))
    grown = d.grow_to(4)
    assert grown.rows == (".r--", "r+--", "||r-", "|||r")
    assert grown.trim() == d
    assert grown == d  # equality compares trimmed forms
    assert hash(grown) == hash(d)


def test_weight_of_rothe():
    d = BumplessPipeDream.rothe(Permutation((3, 2, 1)))
    assert d.weight().terms == {(2, 1): 1}


def test_json_roundtrip():
    d = BumplessPipeDream.rothe(Permutation((1, 3, 2)))
    data = d.to_json()
    assert data["model"] == "bpd"
    assert data["n"] == 3
    assert data["tiles"] == [list("r--"), list("|.r"), list("|r+")]
    assert BumplessPipeDream.from_json(data) == d


@pytest.mark.parametrize(
    "pi",
    list(symmetric_group(4)) + [pi for pi in symmetric_group(5) if pi.size == 5],
)
def test_enumeration_matches_brute_force(pi):
    lib = {d.rows for d in enumerate_bpds(pi)}
    oracle = ORACLE_4 if pi.size <= 4 else ORACLE_5
    assert lib == oracle.get(pi.word, set())


def assert_builder_matches_droop_closure(pi):
    built = enumerate_bpds(pi)
    closed = list(iter_bpds(pi))
    assert {d.rows for d in built} == {d.rows for d in closed}
    assert len(built) == len(closed)
    for d in built:
        assert d.validate() is pi
        assert BumplessPipeDream(d.rows).validate() == pi


def test_builder_matches_droop_closure_on_s6():
    for pi in symmetric_group(6):
        assert_builder_matches_droop_closure(pi)


def test_builder_matches_droop_closure_on_s7_s8_samples():
    rng = random.Random(18)
    sample = [Permutation(rng.sample(range(1, n + 1), n)) for n in (7, 8) * 60]
    sample = [pi for pi in sample if pi.length() <= 14]
    assert len(sample) >= 40
    for pi in sample:
        assert_builder_matches_droop_closure(pi)


class _EveryValueTwo:
    """A stand-in permutation of size 2 that sends both rows to pipe 2."""

    size = 2

    def __call__(self, i):
        return 2


def test_a_row_ending_off_its_exit_pipe_is_an_invariant_error():
    # Row 2 ends carrying pipe 2, so row 1 starts with pipe 1 alone and
    # carries it to the border, where w(1) = 2 is due.
    with pytest.raises(InvariantError, match=r"^row 1 ends carrying 1, not 2$"):
        list(bumpless._build_bpds(_EveryValueTwo()))


def test_grids_built_on_the_same_pipes_share_their_rows():
    # Each row is built once per set of pipes below it and shared by every
    # grid built on them, not copied into each grid.
    grids = enumerate_bpds(Permutation.parse("13287654"))
    rows = [row for d in grids for row in d.rows]
    assert len({id(row) for row in rows}) <= 2 * len(set(rows))


def test_builder_needs_no_recursion_at_size_40():
    pi = Permutation([*range(1, 39), 40, 39])
    diagrams = enumerate_bpds(pi)
    assert pi.size == 40 and len(diagrams) == 39
    for d in diagrams:
        assert d.n == 40 and BumplessPipeDream(d.rows).validate() == pi


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_weights_sum_to_schubert(pi):
    total = sum(
        (d.weight() for d in enumerate_bpds(pi)),
        start=SparsePolynomial({}),
    )
    assert total == schubert_polynomial(pi)


def test_droop_rejects_non_southeast_blank():
    d = BumplessPipeDream.rothe(Permutation((3, 2, 1)))
    # corner (2,2) cannot droop into the blank at (1,1)
    with pytest.raises(MoveError):
        d.droop((2, 2), (1, 1))
    assert enumerate_bpds(Permutation((3, 2, 1))) == frozenset({d})


def test_droop_undroop_roundtrip():
    pi = Permutation((1, 3, 2))
    rothe = BumplessPipeDream.rothe(pi)
    others = enumerate_bpds(pi) - {rothe}
    assert len(others) == 1
    (other,) = others
    assert other.rows == (".r-", "rjr", "|r+")
    assert rothe.droop((1, 1), (2, 2)) == other


def test_tile_rejects_off_grid_positions():
    d = BumplessPipeDream.identity(2)
    assert d.tile(2, 2) == "r"
    for pos in [(0, 1), (1, 0), (3, 1), (1, 3), (-1, -1), (-2, 2)]:
        with pytest.raises(IndexError):
            d.tile(*pos)


def test_droop_rejects_every_off_grid_corner_and_destination():
    d = BumplessPipeDream(("r---", "|.r-", "|rjr", "||r+"))
    with pytest.raises(MoveError, match="leaves the grid"):
        d.droop((-3, -3), (-2, -2))
    checked = 0
    for pi in symmetric_group(4):
        for d in enumerate_bpds(pi):
            span = range(-d.n, d.n + 3)
            for a, b, c, e in itertools.product(span, repeat=4):
                if c > a and e > b and not all(1 <= v <= d.n for v in (a, b, c, e)):
                    with pytest.raises(MoveError):
                        d.droop((a, b), (c, e))
                    checked += 1
    assert checked == 108_601


def test_droop_requires_corner_and_blank():
    d = BumplessPipeDream.rothe(Permutation((1, 3, 2)))
    with pytest.raises(MoveError):
        d.droop((2, 2), (3, 3))  # not a corner position
    with pytest.raises(MoveError):
        d.droop((2, 3), (3, 3))  # target is not blank


def test_pop_of_rothe_21():
    res = bpd_pop(BumplessPipeDream.rothe(Permutation((2, 1))))
    assert (res.a, res.r) == (1, 1)
    assert res.result == BumplessPipeDream.identity(1)
    assert res.footprints == ()


def test_pop_of_rothe_321():
    res = bpd_pop(BumplessPipeDream.rothe(Permutation((3, 2, 1))))
    assert (res.a, res.r) == (2, 1)
    assert res.result == BumplessPipeDream.rothe(Permutation((2, 3, 1)))


def test_pop_on_identity_raises():
    with pytest.raises(EmptyDiagramError):
        bpd_pop(BumplessPipeDream.identity(3))


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_pop_invariants(pi):
    if pi.length() == 0:
        return
    for d in enumerate_bpds(pi):
        res = bpd_pop(d)
        assert res.a in pi.left_descents()
        assert res.r == min(r for r, c in d.blanks())
        assert res.result.perm() == pi.left_s(res.a)
        assert len(res.result.blanks()) == len(d.blanks()) - 1
        for pos in res.footprints:
            assert d.tile(*pos) in ".|-rj+"


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_pop_insert_roundtrip(pi):
    if pi.length() == 0:
        return
    for d in enumerate_bpds(pi):
        res = bpd_pop(d)
        assert bpd_insert(res.result, res.a, res.r) == d


def test_insert_absent_when_pipes_already_cross():
    d = BumplessPipeDream.rothe(Permutation((2, 1)))
    for r in range(1, 5):
        assert bpd_insert(d, 1, r) is None


def test_pipe_a_turns_above_pipe_a_plus_1_where_they_do_not_cross():
    # bpd_insert recrosses pipes a and a+1 on this fact, with no check of its own.
    checked = 0
    for pi in symmetric_group(6):
        descents = pi.left_descents()
        for d in enumerate_bpds(pi):
            for a in range(1, 8):
                if a not in descents:
                    rows = d.grow_to(max(d.n, a + 1)).rows
                    assert bumpless._first_turn(rows, a) < bumpless._first_turn(rows, a + 1)
                    checked += 1
    assert checked == 26946


@pytest.mark.parametrize(
    "rows, bottom, message",
    [
        # Top '.r' opens the move; '..' is no pair of the last row.
        ((".r", ".."), 2, r"^column move stops at '\.\.' at \(2, 1\)$"),
        # 'r+' opens a kink that is still open at the bottom row.
        ((".r", "r+", "||"), 3, r"^column move ends in state 'in' at \(3, 1\)$"),
    ],
    ids=["no_entry", "open_kink"],
)
def test_a_column_move_off_its_table_is_an_invariant_error(rows, bottom, message):
    with pytest.raises(InvariantError, match=message):
        bumpless._move_strip(rows, 1, bottom, 1, "last", bumpless._COLUMN_MOVE)


def test_insert_absent_for_unreachable_row():
    # inserting (1, r) into the identity only works at r = 1
    ident = BumplessPipeDream.identity(1)
    assert bpd_insert(ident, 1, 1) == BumplessPipeDream.rothe(
        Permutation((2, 1))
    )
    assert bpd_insert(ident, 1, 2) is None


def test_pop_value_for_2153746():
    pops = {
        (bpd_pop(b).a, bpd_pop(b).r)
        for b in enumerate_bpds(Permutation.parse("2153746"))
    }
    assert (4, 1) in pops
    assert {a for a, r in pops} <= Permutation.parse("2153746").left_descents()
