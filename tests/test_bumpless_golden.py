"""Golden digests of the bumpless moves: the grids enumerate_bpds builds
for two permutations past S8, the order in which iter_bpds visits grids (a
prefix of the anchor, and every permutation of S5 and S6), every droop that
succeeds on S5, every min-droop on S4, every pop step of the pop chains of
S5, every insertion into S5, every Monk x and m move of S4 and S5, and the
outcome of trace() on 100,000 seeded grids, most of them malformed.

Each digest is the sha256 of sorted (or, for iter_bpds, visiting-order)
text lines, one per case, recorded from the code before the droop surgery
was shared between droop and bpd_min_droop (the S5 and S6 orders: before
iter_bpds picked its droops by tile; the pop and insert digests:
before the column move became one tile table; the Monk digests: before the
cascade followed its pipes instead of tracing the grid; the trace outcomes:
after the row sweep's message became every rejection's, a change of wording
only; the builder's grids: before it dropped its bitmask of crossed
inversions).  A change to any of them is a change to the moves' outputs.
"""

import hashlib
import itertools
import random

import pytest

from helpers import legal_grid, verify_moves
from pipedreams import (
    BumplessPipeDream,
    InvalidDiagramError,
    MoveError,
    Permutation,
    enumerate_bpds,
    enumerate_pipe_dreams,
    symmetric_group,
)
from pipedreams.bumpless import bpd_insert, bpd_pop, iter_bpds
from pipedreams.monk import bpd_min_droop
from pipedreams.verify import MODELS


def _digest(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update((line + "\n").encode())
    return h.hexdigest()


def _grid(d):
    return " ".join(d.rows)


def _bpds(n):
    for pi in symmetric_group(n):
        yield from sorted(enumerate_bpds(pi), key=lambda b: b.rows)


def test_iter_bpds_visits_the_anchor_in_the_same_order():
    # The bijection benchmark draws its inputs from this prefix.
    grids = itertools.islice(iter_bpds(Permutation.parse("21786534")), 120)
    assert _digest(map(_grid, grids)) == (
        "ea74ebfa84f6809060af47937b3e6f186f274f6a01c1c776e7160a836926f494"
    )


def test_enumerate_bpds_builds_the_same_grids_past_s8():
    pi = Permutation.parse("13287654")
    grids = enumerate_bpds(pi)
    assert len(grids) == len(enumerate_pipe_dreams(pi)) == 9438
    assert _digest(sorted(map(_grid, grids))) == (
        "db9d1761cf1b4705a1a92796ea0020efb6ae6d1768491f7a2892c57319f23a50"
    )
    grids = enumerate_bpds(Permutation.parse("1,4,3,2,9,8,7,6,5"))
    assert len(grids) == 130130
    assert _digest(sorted(map(_grid, grids))) == (
        "ce589693cc691a4199f6d11e5ea291280fe54caace16e90255c289d2d9fd8e80"
    )


@pytest.mark.parametrize(
    "n, count, digest",
    [
        (5, 393, "ac125981c0322a435f431fb5a53c61d736d8540e6dc01b236685d7670f97f4c6"),
        (6, 6080, "9a14dacc228b05878a1f9953ef60f2d97f6c9550e4ae022afa7532cf411209d4"),
    ],
)
def test_iter_bpds_visits_every_permutation_in_the_same_order(n, count, digest):
    lines = [
        f"{pi} {_grid(d)}" for pi in symmetric_group(n) for d in iter_bpds(pi)
    ]
    assert len(lines) == count
    assert _digest(lines) == digest


def test_droop_succeeds_on_the_same_pairs_of_s5():
    attempts, lines = 0, []
    for b in _bpds(5):
        m = b.n
        for a, c in itertools.combinations(range(1, m + 1), 2):
            for col, d in itertools.combinations(range(1, m + 1), 2):
                attempts += 1
                try:
                    out = b.droop((a, col), (c, d))
                except MoveError:
                    continue
                lines.append(f"{_grid(b)} {(a, col)} {(c, d)} {_grid(out)}")
    assert (attempts, len(lines)) == (36470, 339)
    assert _digest(sorted(lines)) == (
        "c0ae70bd9cbb8f7c47e9fe452efc5fd2e5b00d93cf95ef04c47c80c4f51805fa"
    )


def test_min_droop_of_every_turn_of_s4_grown_by_two():
    lines = []
    for b in _bpds(4):
        g = b.grow_to(b.n + 2)
        for i, j in itertools.product(range(1, g.n + 1), repeat=2):
            if g.tile(i, j) == "r":
                try:
                    out, corner = bpd_min_droop(g, (i, j))
                except MoveError:
                    lines.append(f"{_grid(g)} {(i, j)} MoveError")
                    continue
                lines.append(f"{_grid(g)} {(i, j)} {_grid(out)} {corner}")
    assert len(lines) == 255
    assert _digest(sorted(lines)) == (
        "38ad0f7f80effd78aeea360e28ad31d71538434b699221ca9a159d0ee400c629"
    )


def test_every_pop_step_of_the_pop_chains_of_s5():
    lines = []
    for b in _bpds(5):
        cur = b
        while not cur.validate().is_identity():
            step = bpd_pop(cur)
            lines.append(
                f"{_grid(cur)} {step.a} {step.r} {_grid(step.result)} {step.footprints}"
            )
            cur = step.result
    assert len(lines) == 1758
    assert _digest(sorted(lines)) == (
        "2eed9ae7f7476d080cea82db18a256538c6b3c3bc55a3dbcf32c2114cf468896"
    )


def test_insert_every_letter_and_row_into_s5():
    lines, found = [], 0
    for b in _bpds(5):
        for a, r in itertools.product(range(1, 7), repeat=2):
            out = bpd_insert(b, a, r)
            found += out is not None
            lines.append(f"{_grid(b)} {a} {r} {_grid(out) if out else None}")
    assert (len(lines), found) == (14148, 1281)
    assert _digest(sorted(lines)) == (
        "ca1050c32fd679e51c4e48671549ba050bd6945a3f74c36dcb39297123d33b54"
    )


@pytest.mark.parametrize(
    "n, count, digest",
    [
        (4, 421, "c43075171a48e6e4d9654faaca14853b3b3d475130afa03f614229391371c21f"),
        (5, 5266, "073d9bbb9a429207b453a13c0fb23ddc048a77cdb0090da3e691197f838ce51f"),
    ],
)
def test_every_monk_move_of_the_verify_harness(n, count, digest):
    lines, bases = [], {}
    for _, base, move, _ in verify_moves(n):
        if base not in bases:
            bases[base] = sorted(enumerate_bpds(base), key=lambda b: b.rows)
        for b in bases[base]:
            out, tr = MODELS["bpd"].apply(b, move)
            lines.append(
                f"{_grid(b)} {move} {_grid(out)} {tr.steps} {tr.footprints} "
                f"{tr.result_l}"
            )
    assert len(lines) == count
    assert _digest(sorted(lines)) == digest


def _trace_outcome(rows):
    """The permutation and sorted pair crossings of rows, or the exception
    trace() raises on them."""
    try:
        tr = BumplessPipeDream(rows).trace()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return f"{tr.perm} {sorted((sorted(p), c) for p, c in tr.pair_crossings.items())}"


def _mutated_grids(count, seed):
    """Every tenth grid is a random grid of size 1 to 3 over all seven
    letters; the rest are grids of S6 (sizes 1 to 6) with 1 to 3 tiles
    rewritten at random, the bump letter included."""
    rng = random.Random(seed)
    letters = ".|-rj+b"
    bases = sorted({d.rows for pi in symmetric_group(6) for d in iter_bpds(pi)})
    for k in range(count):
        if k % 10 == 0:
            n = rng.randint(1, 3)
            yield tuple(
                "".join(rng.choice(letters) for _ in range(n)) for _ in range(n)
            )
            continue
        grid = [list(row) for row in rng.choice(bases)]
        n = len(grid)
        for _ in range(rng.randint(1, 3)):
            grid[rng.randrange(n)][rng.randrange(n)] = rng.choice(letters)
        yield tuple("".join(row) for row in grid)


def test_trace_outcomes_of_mutated_grids():
    # trace() rejects exactly the grids that the edge masks of
    # helpers.legal_grid reject, and only with InvalidDiagramError.
    lines = []
    for rows in _mutated_grids(100_000, seed=12):
        outcome = _trace_outcome(rows)
        rejected = outcome.startswith("InvalidDiagramError: ")
        assert rejected != legal_grid(rows), (rows, outcome)
        lines.append(f"{' '.join(rows)} {outcome}")
    assert sum("Error: " not in line for line in lines) == 5759
    assert _digest(lines) == (
        "0eed50727bbffe6d59b0db850f9d0a3924bcdacc3decb6c449d72a5c213d9345"
    )


def test_validated_mutated_grids_have_one_blank_per_inversion():
    # validate() compares the blanks with the crossing pairs; each pair
    # crosses once, so those are the inversions the message quotes.
    accepted = 0
    for rows in _mutated_grids(100_000, seed=12):
        d = BumplessPipeDream(rows)
        try:
            pi = d.validate()
        except InvalidDiagramError:
            continue
        accepted += 1
        blanks = len(d.blanks())
        assert blanks == len(d.trace().pair_crossings) == pi.length(), rows
    assert accepted == 5759
