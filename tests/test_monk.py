"""Tests for the insertion moves on both diagram models."""

import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from helpers import verify_moves
from pipedreams import (
    BumplessPipeDream,
    InvalidDiagramError,
    InvariantError,
    MoveError,
    Permutation,
    PipeDream,
    bpd_m_move,
    bpd_min_droop,
    bpd_pop,
    bpd_x_insert,
    enumerate_bpds,
    enumerate_pipe_dreams,
    footprints_audit,
    lemma_case_audit,
    pd_m_move,
    pd_x_insert,
    phi,
    symmetric_group,
)
from pipedreams import monk
from pipedreams.bumpless import iter_bpds
from pipedreams.verify import MODELS


def covers_of(pi, bound):
    for beta in range(2, bound + 1):
        for s in range(1, beta):
            tau = pi.right_t(s, beta)
            if tau.length() == pi.length() + 1:
                yield s, beta, tau


# ---------------------------------------------------------------- min droop


def test_min_droop_simple():
    d, corner = bpd_min_droop(BumplessPipeDream.identity(2), (1, 1))
    assert d.rows == (".r", "rb")
    assert corner == (2, 2)


def test_min_droop_skips_crossings():
    start = BumplessPipeDream.rothe(Permutation((3, 2, 1))).grow_to(4)
    d, corner = bpd_min_droop(start, (2, 2))
    assert corner == (4, 4)
    assert d.rows == ("..r-", "..|r", "r-++", "|r+b")


def test_min_droop_requires_turn():
    with pytest.raises(MoveError):
        bpd_min_droop(BumplessPipeDream.identity(2), (2, 1))


def test_min_droop_rejects_every_off_grid_corner():
    d = BumplessPipeDream(("r---", "|.r-", "|rjr", "||r+"))
    with pytest.raises(MoveError, match="off the grid"):
        bpd_min_droop(d, (-3, -3))
    for pi in symmetric_group(4):
        for d in enumerate_bpds(pi):
            span = range(-d.n, d.n + 3)
            for pos in itertools.product(span, repeat=2):
                if not all(1 <= v <= d.n for v in pos):
                    with pytest.raises(MoveError):
                        bpd_min_droop(d, pos)


# --------------------------------------------------------- bumpless inserts


def test_bpd_x_insert_base_case():
    out, tr = bpd_x_insert(BumplessPipeDream.identity(1), 1)
    assert out == BumplessPipeDream.rothe(Permutation((2, 1)))
    assert tr.result_l == 2


@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_bpd_x_insert_on_identity(alpha, request):
    out, tr = bpd_x_insert(BumplessPipeDream.identity(alpha), alpha)
    assert out.perm() == Permutation.identity().right_t(alpha, alpha + 1)
    assert out.tile(alpha + 1, alpha + 1) == "+"
    res = bpd_pop(out)
    assert (res.a, res.r) == (alpha, alpha)


def test_bpd_x_insert_fixture_132():
    out, tr = bpd_x_insert(BumplessPipeDream.rothe(Permutation((1, 3, 2))), 1)
    assert out.rows == (".r-", ".|r", "r++")
    assert out.perm() == Permutation((2, 3, 1))
    assert tr.result_l == 3


def test_bpd_m_move_base_case():
    out, tr = bpd_m_move(BumplessPipeDream.rothe(Permutation((2, 1))), 1, 2)
    assert out.rows == (".r-", "rjr", "|r+")
    assert out.perm() == Permutation((1, 3, 2))
    res = bpd_pop(out)
    assert (res.a, res.r) == (2, 1)


def test_bpd_m_move_rejects_non_cover():
    d = BumplessPipeDream.rothe(Permutation((3, 2, 1)))
    with pytest.raises(ValueError):
        bpd_m_move(d, 1, 3)  # 321*t_{1,3} drops two lengths
    with pytest.raises(ValueError):
        bpd_m_move(d, 2, 2)


@pytest.mark.parametrize("old, new", [(".", "+"), ("+", "|"), ("r", "."), ("+", "b")])
def test_a_corrupted_min_droop_step_raises(monkeypatch, old, new):
    # The cascade traces none of its steps: the pipe walks, the droop tables
    # and the validation of the output must still refuse one bad tile.
    real = monk.bpd_min_droop
    corrupted = []

    def corrupting(diagram, pos):
        out, corner = real(diagram, pos)
        if corrupted or old not in "".join(out.rows):
            return out, corner
        corrupted.append(pos)
        rows = "/".join(out.rows).replace(old, new, 1)
        return BumplessPipeDream(rows.split("/")), corner

    monkeypatch.setattr(monk, "bpd_min_droop", corrupting)
    raised = 0
    for pi in symmetric_group(4):
        for d in enumerate_bpds(pi):
            for alpha in range(1, 5):
                corrupted.clear()
                try:
                    bpd_x_insert(d, alpha)
                except (InvalidDiagramError, InvariantError, MoveError):
                    raised += 1
                    continue
                assert not corrupted, (d.rows, alpha)
    assert raised > 100


def test_a_j_corner_sweeps_the_rows_from_the_corner_down(monkeypatch):
    events = []
    real_droop, real_sweep = monk.bpd_min_droop, monk._sweep

    def drooping(diagram, pos):
        out, corner = real_droop(diagram, pos)
        events.append(("droop", out.rows, corner))
        return out, corner

    def sweeping(rows):
        events.append(("sweep", rows, None))
        return real_sweep(rows)

    monkeypatch.setattr(monk, "bpd_min_droop", drooping)
    monkeypatch.setattr(monk, "_sweep", sweeping)
    for _, base, move, _ in verify_moves(4):
        for d in enumerate_bpds(base):
            MODELS["bpd"].apply(d, move)
    corners = 0
    for (kind, rows, corner), after in zip(events, events[1:]):
        if kind == "droop" and rows[corner[0] - 1][corner[1] - 1] == "j":
            assert after == ("sweep", rows[corner[0] - 1 :], None), corner
            corners += 1
    assert corners == 19


def test_a_b_corner_refuses_a_pipe_that_does_not_cross_there():
    # x_1 on the identity of S3 droops pipe 1 onto pipe 2's turn at (2, 2).
    d = BumplessPipeDream.identity(3)
    out, _, _ = monk._bpd_cascade(d, (1, 1), 1, [])
    assert out.rows == (".r", "r+")
    with pytest.raises(InvariantError, match="does not reach"):
        monk._bpd_cascade(d, (1, 1), 3, [])


@seed(11)
@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([7, 8]).flatmap(lambda n: st.permutations(range(1, n + 1))),
    st.integers(min_value=0, max_value=29),
)
def test_moves_commute_with_phi_on_s7_s8(word, index):
    # Per diagram what Atlas.commutes checks over all diagrams of a base.
    sigma = Permutation(word)
    grids = list(itertools.islice(iter_bpds(sigma), 30))
    b = grids[index % len(grids)]
    image = phi(b).pipe_dream()
    n = len(word)
    moves = [(("x", alpha), sigma, alpha) for alpha in range(1, n + 1)]
    for s, beta in itertools.combinations(range(1, n + 1), 2):
        pi = sigma.right_t(s, beta)
        if pi.length() == sigma.length() - 1:
            moves.append((("m", s, beta), pi, beta))
    for move, base, position in moves:
        out, tr = MODELS["bpd"].apply(b, move)
        assert BumplessPipeDream(out.rows).validate() == base.right_t(
            position, tr.result_l
        )
        via_pd = MODELS["pd"].apply(image, move)[0]
        assert phi(out).pipe_dream() == via_pd, (b.rows, move)


@pytest.mark.parametrize("pi", list(symmetric_group(3)))
def test_bpd_weight_contracts(pi):
    for alpha in range(1, 4):
        for d in enumerate_bpds(pi):
            out, _ = bpd_x_insert(d, alpha)
            assert out.weight() == d.weight() * x_mono(alpha)
    for s, beta, tau in covers_of(pi, 4):
        for d in enumerate_bpds(tau):
            out, _ = bpd_m_move(d, s, beta)
            assert out.weight() == d.weight()


def x_mono(i):
    from pipedreams import SparsePolynomial

    exps = [0] * i
    exps[i - 1] = 1
    return SparsePolynomial({tuple(exps): 1})


# --------------------------------------------------------------- pd inserts


def test_pd_x_insert_base_cases():
    out, tr = pd_x_insert(PipeDream(), 3)
    assert sorted(out.crosses) == [(3, 1)]
    assert tr.result_l == 4
    out, tr = pd_x_insert(PipeDream([(1, 1)]), 1)
    assert sorted(out.crosses) == [(1, 1), (1, 2)]
    assert out.perm() == Permutation((3, 1, 2))
    assert tr.result_l == 3


def test_pd_x_insert_cascade_with_two_doubled_pairs():
    # Adding the cross at (2,1) makes two pipe pairs double up at once;
    # only the pair through the new cross is resolved.
    d = PipeDream([(1, 2), (1, 3), (3, 1)])
    out, tr = pd_x_insert(d, 2)
    assert sorted(out.crosses) == [(1, 3), (1, 4), (2, 1), (3, 1)]
    assert out.perm() == Permutation((1, 5, 3, 2, 4))
    assert tr.result_l == 5
    assert tr.steps == (
        ("add", ((2, 1),)),
        ("remove", ((1, 2),)),
        ("add", ((1, 4),)),
    )
    assert tr.complete_footprints == ((2, 1), (1, 2), (1, 3), (1, 4))
    assert footprints_audit(tr)


def test_pd_m_move_base_case():
    out, tr = pd_m_move(PipeDream([(1, 1)]), 1, 2)
    assert sorted(out.crosses) == [(1, 2)]
    assert out.perm() == Permutation((1, 3, 2))
    assert tr.result_l == 3


def test_pd_m_move_fixture_321():
    out, tr = pd_m_move(PipeDream([(1, 1), (1, 2), (2, 1)]), 2, 3)
    assert sorted(out.crosses) == [(1, 1), (1, 2), (2, 2)]
    assert out.perm() == Permutation((3, 1, 4, 2))
    assert tr.complete_footprints == ((2, 1), (2, 2))


@pytest.mark.parametrize(
    "n, count, digest",
    [
        (4, 421, "1f3d9efc243265170dd301edc27f21e56c1dfdf33b3b22424f4c0688ec653690"),
        (5, 5266, "6bb9d4a295b212f7da5aec2c81f03b3a01479daa164d431e56ad6b1895c3f2d5"),
    ],
)
def test_every_pd_monk_move_of_the_verify_harness(n, count, digest):
    # sha256 of the sorted lines, recorded before the cover check read
    # positions instead of lengths.
    lines, bases = [], {}
    for _, base, move, _ in verify_moves(n):
        if base not in bases:
            bases[base] = sorted(
                sorted(d.crosses) for d in enumerate_pipe_dreams(base)
            )
        for crosses in bases[base]:
            out, tr = MODELS["pd"].apply(PipeDream(crosses), move)
            lines.append(
                f"{crosses} {move} {sorted(out.crosses)} {tr.steps} "
                f"{tr.footprints} {tr.complete_footprints} {tr.result_l}"
            )
    assert len(lines) == count
    h = hashlib.sha256()
    for line in sorted(lines):
        h.update((line + "\n").encode())
    assert h.hexdigest() == digest


def test_pd_m_move_rejects_non_cover():
    with pytest.raises(ValueError):
        pd_m_move(PipeDream([(1, 1)]), 2, 1)
    with pytest.raises(ValueError):
        pd_m_move(PipeDream([(1, 1), (1, 2), (2, 1)]), 1, 3)


@pytest.mark.parametrize("pi", list(symmetric_group(3)))
def test_pd_weight_contracts(pi):
    for alpha in range(1, 4):
        for d in enumerate_pipe_dreams(pi):
            out, _ = pd_x_insert(d, alpha)
            assert out.weight() == d.weight() * x_mono(alpha)
    for s, beta, tau in covers_of(pi, 4):
        for d in enumerate_pipe_dreams(tau):
            out, _ = pd_m_move(d, s, beta)
            assert out.weight() == d.weight()


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_pd_steps_stay_in_their_row(pi):
    """Every removal is followed by a re-insertion in the same row."""
    for alpha in range(1, 5):
        for d in enumerate_pipe_dreams(pi):
            _, tr = pd_x_insert(d, alpha)
            check_row_discipline(tr)
    for s, beta, tau in covers_of(pi, 5):
        for d in enumerate_pipe_dreams(tau):
            _, tr = pd_m_move(d, s, beta)
            check_row_discipline(tr)


def check_row_discipline(tr):
    pending = None
    for kind, ((i, j),) in tr.steps:
        if kind == "remove":
            assert pending is None
            pending = (i, j)
        else:
            if pending is not None:
                assert pending[0] == i
                assert j > pending[1]
                pending = None
    assert pending is None


@pytest.mark.parametrize("pi", list(symmetric_group(3)))
def test_pop_drift_after_moves(pi):
    """A move shifts the first pop by at most one letter upward."""
    if pi.length() == 0:
        return
    for alpha in range(1, 4):
        for d in enumerate_pipe_dreams(pi):
            (i, r), _ = d.pop()
            out, _ = pd_x_insert(d, alpha)
            (i2, r2), _ = out.pop()
            if alpha < r:
                assert (i2, r2) == (alpha, alpha)
            else:
                assert (i2, r2) in {(i, r), (i + 1, r)}


# ------------------------------------------------------------------- audits


def test_footprints_audit_singleton():
    _, tr = pd_x_insert(PipeDream(), 2)
    assert footprints_audit(tr)
    assert tr.complete_footprints == ((2, 1),)


def test_lemma_case_audit_low_x():
    d = BumplessPipeDream.rothe(Permutation((1, 3, 2)))
    report = lemma_case_audit(d, ("x", 1))
    assert report.case == "x-low"
    assert report.passed()


@pytest.mark.parametrize("pi", list(symmetric_group(3)))
def test_lemma_case_audits_small(pi):
    if pi.length() == 0:
        return
    for model_enum in (enumerate_pipe_dreams, enumerate_bpds):
        for d in model_enum(pi):
            for alpha in range(1, 4):
                assert lemma_case_audit(d, ("x", alpha)).passed()
    for s, beta, tau in covers_of(pi, 4):
        if tau.length() < 1:
            continue
        for model_enum in (enumerate_pipe_dreams, enumerate_bpds):
            for d in model_enum(tau):
                assert lemma_case_audit(d, ("m", s, beta)).passed()


@pytest.mark.parametrize("model", sorted(MODELS))
def test_lemma_case_audit_rejects_what_it_cannot_audit(model):
    enum = MODELS[model].enumerate
    (d,) = enum(Permutation.parse("2,1"))
    (identity,) = enum(Permutation.parse("1"))
    # 2,1,3 t_{1,3} = 3,1,2 is longer, so no m move at (1, 3) reaches d.
    with pytest.raises(ValueError, match="is not a cover of"):
        lemma_case_audit(d, ("m", 1, 3))
    with pytest.raises(ValueError, match="cannot pop"):
        lemma_case_audit(identity, ("x", 1))
    malformed = (
        ("y", 1), ("x",), ("x", 1, 2), ("m", 1), ("x", "1"), ("x", True), ["x", 1]
    )
    for move in malformed:
        with pytest.raises(ValueError, match="unknown move"):
            lemma_case_audit(d, move)


def test_result_l_is_the_cover_step():
    base = Permutation((2, 1, 4, 3))
    for d in enumerate_pipe_dreams(base):
        out, tr = pd_x_insert(d, 2)
        assert out.perm() == base.right_t(2, tr.result_l)
    for b in enumerate_bpds(base):
        out, tr = bpd_x_insert(b, 2)
        assert out.perm() == base.right_t(2, tr.result_l)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_move_argument_errors(name):
    model = MODELS[name]
    d = next(iter(model.enumerate(Permutation((2, 1)))))
    with pytest.raises(ValueError, match="row index must be positive"):
        model.x(d, 0)
    for s, beta in ((2, 2), (0, 1)):
        with pytest.raises(ValueError, match="need 1 <= s < beta"):
            model.m(d, s, beta)


@pytest.mark.parametrize(
    "base, position, out, message",
    [
        (
            (), 1, (2, 3, 1),
            "differs from the base by [1, 2, 3], not a transposition at 1",
        ),
        ((), 1, (1, 3, 2), "differs from the base by [2, 3], not a transposition at 1"),
        ((), 1, (), "differs from the base by [], not a transposition at 1"),
        ((), 2, (2, 1), "landing index 1 not beyond 2"),
        ((2, 1), 1, (), "output id is not a cover of 2,1"),
        ((), 1, (3, 2, 1), "output 3,2,1 is not a cover of id"),
    ],
)
def test_cover_step_names_each_failure(base, position, out, message):
    with pytest.raises(InvariantError) as info:
        monk._cover_step(Permutation(base), position, Permutation(out))
    assert str(info.value).removeprefix("output permutation ") == message


def test_cover_step_check_survives_python_O():
    code = (
        "from pipedreams import InvariantError, Permutation\n"
        "from pipedreams.monk import _cover_step\n"
        "try:\n"
        "    _cover_step(Permutation(), 1, Permutation([3, 2, 1]))\n"
        "except InvariantError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    run = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert "not a cover" in run.stdout


# -------------------------------------------------------------- stress case


@pytest.mark.slow
def test_footprint_stress_21786534():
    pi = Permutation.parse("21786534")
    sigma = pi.right_t(2, 5)
    assert sigma.length() == pi.length() + 1 == 15
    checked = 0
    for d in enumerate_pipe_dreams(sigma):
        if d.pop()[0] != (5, 1):
            continue
        out, tr = pd_m_move(d, 2, 5)
        assert footprints_audit(tr)
        assert out.perm() == pi.right_t(5, tr.result_l)
        checked += 1
    assert checked == 78
