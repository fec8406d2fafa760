"""Sampled checks of the bijection and the Monk moves on S9 to S12, where no
exhaustive check reaches.

Every bumpless pipe dream of pi is reached from its Rothe grid by droops
(Lam, Lee and Shimozono, Back stable Schubert calculus, Compositio Math. 157
(2021)), so a seeded walk of droop() steps samples grids of any size with no
enumeration.  One in three sampled permutations fixes 1 to some k >= 1, and
its walk droops no turn of rows 1 to k.  Those rows then hold no blank, so the
x moves into them (case x-low, alpha above the top blank row) come up.
"""

import random
from collections import Counter

import pytest

from helpers import trace_grid
from pipedreams import (
    BumplessPipeDream,
    MoveError,
    Permutation,
    bpd_m_move,
    bpd_x_insert,
    footprints_audit,
    is_bruhat_cover,
    lemma_case_audit,
    pd_m_move,
    pd_x_insert,
    phi,
    phi_inverse,
)

GRIDS = 24  # per n


def droop_walk(pi, steps, top, rng):
    """The grid of pi reached by up to steps seeded droops from its Rothe
    grid, each of a turn in row top or below; the walk stops early at a grid
    where no such droop applies."""
    b = BumplessPipeDream.rothe(pi)
    for _ in range(steps):
        rows, blanks = b.rows, b.blanks()
        droops = [
            ((a, c), (i, j))
            for a, row in enumerate(rows[top - 1 :], top)
            for c, t in enumerate(row, 1)
            if t == "r"
            for i, j in blanks
            if i > a and j > c and rows[i - 1][c - 1] == "|" and row[j - 1] == "-"
        ]
        rng.shuffle(droops)
        for corner, dest in droops:
            try:
                b = b.droop(corner, dest)
            except MoveError:  # the rectangle holds another turn of the pipe
                continue
            break
        else:
            return b
    return b


def sample(n):
    """GRIDS seeded (pi, grid) pairs of S_n, none of the identity."""
    rng = random.Random(f"s{n}")
    out = []
    while len(out) < GRIDS:
        k = rng.randrange(1, n - 1) if len(out) % 3 == 0 else 0
        pi = Permutation(list(range(1, k + 1)) + rng.sample(range(k + 1, n + 1), n - k))
        if pi.length():
            out.append((pi, droop_walk(pi, rng.randrange(4 * n + 1), k + 1, rng)))
    return out


@pytest.mark.parametrize("n", [9, 10, 11, 12])
def test_bijection_and_monk_moves_on_sampled_grids(n):
    cases = {"pd": Counter(), "bpd": Counter()}
    for sigma, b in sample(n):
        assert all(len(cells) == 1 for cells in trace_grid(b.rows)[1].values())
        d = phi(b).pipe_dream()
        assert d.weight() == b.weight(), b.rows
        assert d.perm() == b.perm() == sigma, b.rows
        assert phi_inverse(d) == b, b.rows
        moves = [(("x", alpha), bpd_x_insert, pd_x_insert) for alpha in range(1, n + 1)]
        moves += [
            (("m", s, beta), bpd_m_move, pd_m_move)
            for beta in range(2, n + 1)
            for s in range(1, beta)
            if is_bruhat_cover(sigma.right_t(s, beta), s, beta)
        ]
        for move, bpd_move, pd_move in moves:
            out = bpd_move(b, *move[1:])[0]
            via_pd, trace = pd_move(d, *move[1:])
            assert phi(out).pipe_dream() == via_pd, (b.rows, move)
            assert footprints_audit(trace), (b.rows, move)
            for diagram in (b, d):
                report = lemma_case_audit(diagram, move)
                assert report.passed(), (b.rows, report)
                cases[report.model][report.case] += 1
    for model, seen in cases.items():
        assert set(seen) == {"x-low", "x-generic", "m-generic", "m-special"}, seen
