"""Tests for ordinary pipe dreams and compatible sequences."""

import random
from itertools import combinations

import pytest

from hypothesis import given, seed, settings, strategies as st

from helpers import (
    apply_word,
    brute_pipe_dreams,
    staircase_cells,
    verify_moves,
    walk_pipe_dream,
    word_of,
)
from pipedreams import (
    CompatibleSequence,
    EmptyDiagramError,
    InvalidDiagramError,
    InvalidSequenceError,
    Permutation,
    PipeDream,
    SparsePolynomial,
    enumerate_bpds,
    enumerate_pipe_dreams,
    iter_pipe_dreams,
    phi,
    schubert_polynomial,
    symmetric_group,
    trace_pipes,
)
from pipedreams import pipedream
from pipedreams.perm import multiply_word
from pipedreams.render import render_pipe_dream
from pipedreams.verify import MODELS

ORACLE_4 = brute_pipe_dreams(4)


def test_constructor_and_equality():
    d = PipeDream([(1, 2), (2, 1)])
    assert d == PipeDream({(2, 1), (1, 2)})
    assert hash(d) == hash(PipeDream([(2, 1), (1, 2)]))
    assert d != PipeDream([(1, 2)])
    with pytest.raises(ValueError):
        PipeDream([(1, 2, 3)])
    with pytest.raises(ValueError):
        PipeDream([(0, 1)])


def test_repr_lists_the_crosses_in_word_order():
    d = PipeDream([(1, 1), (1, 2), (2, 1)])
    assert repr(d) == "PipeDream([(1, 2), (1, 1), (2, 1)])"


def test_word_reads_rows_top_down_right_to_left():
    d = PipeDream([(1, 1), (1, 2), (2, 1)])
    assert d.word() == (2, 1, 2)
    assert d.perm() == Permutation((3, 2, 1))


def test_small_permutation_fixtures():
    assert PipeDream([(1, 1), (2, 1)]).perm() == Permutation((2, 3, 1))
    assert PipeDream([(1, 1), (1, 2)]).perm() == Permutation((3, 1, 2))
    assert PipeDream([]).perm() == Permutation.identity()


def test_non_reduced_raises():
    # crosses (1,1),(2,1) and (1,2) wire two pipes across each other twice
    bad = PipeDream([(1, 2), (2, 1)])
    assert not multiply_word(bad.word())[1]
    with pytest.raises(InvalidDiagramError):
        bad.perm()


def test_weight_counts_rows():
    d = PipeDream([(1, 1), (1, 2), (2, 1)])
    assert d.weight().terms == {(2, 1): 1}


def test_pop_takes_first_grid_order_cross():
    d = PipeDream([(1, 1), (1, 2), (2, 1)])
    (a, r), rest = d.pop()
    assert (a, r) == (2, 1)
    assert rest == PipeDream([(1, 1), (2, 1)])
    with pytest.raises(EmptyDiagramError):
        PipeDream([]).pop()


def test_json_roundtrip():
    d = PipeDream([(2, 1), (1, 3)])
    data = d.to_json()
    assert data["model"] == "pd"
    assert data["crosses"] == [[1, 3], [2, 1]]
    assert PipeDream.from_json(data) == d


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_enumeration_matches_brute_force(pi):
    lib = {frozenset(d.crosses) for d in enumerate_pipe_dreams(pi)}
    assert lib == ORACLE_4.get(pi.word, set())


@pytest.mark.slow
@pytest.mark.parametrize("n", [5, 6])
def test_enumeration_matches_brute_force_s5_s6(n):
    oracle = brute_pipe_dreams(n)
    for pi in symmetric_group(n):
        got = {frozenset(d.crosses) for d in enumerate_pipe_dreams(pi)}
        assert got == oracle.get(pi.word, set()), pi


def test_long_simple_transposition_has_one_diagram_per_row():
    s60 = Permutation.identity().right_s(60)
    assert s60.size == 61 and s60.length() == 1
    expected = {PipeDream([(r, 61 - r)]) for r in range(1, 61)}
    assert enumerate_pipe_dreams(s60) == expected


@seed(7)
@settings(max_examples=60, deadline=None)
@given(st.sampled_from([7, 8]).flatmap(lambda n: st.permutations(range(1, n + 1))))
def test_enumeration_on_s7_s8_sums_to_schubert(word):
    pi = Permutation(word)
    diagrams = list(iter_pipe_dreams(pi))
    assert len(set(diagrams)) == len(diagrams)
    assert all(d.perm() == pi for d in diagrams)
    total = sum((d.weight() for d in diagrams), start=SparsePolynomial({}))
    assert total == schubert_polynomial(pi)


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_weights_sum_to_schubert(pi):
    total = sum(
        (d.weight() for d in enumerate_pipe_dreams(pi)),
        start=SparsePolynomial({}),
    )
    assert total == schubert_polynomial(pi)


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_compatible_sequence_roundtrip(pi):
    for d in enumerate_pipe_dreams(pi):
        seq = d.to_compatible()
        seq.validate()
        assert seq.permutation() == pi
        assert seq.to_pipe_dream() == d


def test_to_compatible_sorts_the_crosses_once(monkeypatch):
    calls = []
    real = pipedream.grid_key

    def counting(pos):
        calls.append(pos)
        return real(pos)

    monkeypatch.setattr(pipedream, "grid_key", counting)
    d = PipeDream([(1, 1), (1, 2), (2, 1)])
    assert d.to_compatible() == CompatibleSequence((2, 1, 2), (1, 1, 2))
    assert sorted(calls) == sorted(d.crosses)
    with pytest.raises(
        InvalidDiagramError, match=r"^pipe dream \[\(1, 2\), \(2, 1\)\] is not reduced$"
    ):
        PipeDream([(1, 2), (2, 1)]).to_compatible()


def test_enumeration_and_pop_make_no_checked_pipe_dream(monkeypatch):
    """The diagrams the library builds from its own crosses, by enumeration,
    pops, Monk moves and phi, skip the check of __init__; only user-given
    crosses pay for it."""
    checked = []
    init = PipeDream.__init__

    def counting_init(self, *args, **kwargs):
        checked.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(PipeDream, "__init__", counting_init)
    pds = enumerate_pipe_dreams(Permutation.parse("21786534"))
    assert len(pds) == 1315
    for d in list(pds)[:50]:
        while d.crosses:
            d = d.pop()[1]
    moves = 0
    for _, base, move, _ in verify_moves(4):
        for d in enumerate_pipe_dreams(base):
            MODELS["pd"].apply(d, move)
            moves += 1
    images = [
        phi(b).pipe_dream() for pi in symmetric_group(4) for b in enumerate_bpds(pi)
    ]
    assert (moves, len(images)) == (421, 41)
    assert checked == []
    PipeDream([(1, 1)])
    assert len(checked) == 1


def test_compatible_sequence_validation_errors():
    with pytest.raises(InvalidSequenceError):
        CompatibleSequence((1, 2), (1,)).validate()
    with pytest.raises(InvalidSequenceError):
        CompatibleSequence((1, 1), (1, 1)).validate()  # word not reduced
    with pytest.raises(InvalidSequenceError):
        CompatibleSequence((2, 1), (2, 1)).validate()  # rows decrease
    with pytest.raises(InvalidSequenceError):
        CompatibleSequence((2,), (3,)).validate()  # r_j > a_j
    with pytest.raises(InvalidSequenceError):
        # ascent in a must force strict increase in r
        CompatibleSequence((1, 2), (1, 1)).validate()
    with pytest.raises(InvalidSequenceError):
        CompatibleSequence((0,), (0,)).validate()
    # Entries must be ints; a bool is refused as one.
    for a, r in [
        ((1,), (1.0,)),
        ((True,), (True,)),
        (("1",), (1,)),
        ((1.5,), (1,)),
    ]:
        with pytest.raises(InvalidSequenceError, match="^entries must be integers$"):
            CompatibleSequence(a, r).validate()


def test_compatible_sequence_of_321():
    seq = CompatibleSequence((2, 1, 2), (1, 1, 2))
    seq.validate()
    assert seq.to_pipe_dream() == PipeDream([(1, 1), (1, 2), (2, 1)])


cell_subsets = st.frozensets(
    st.sampled_from(staircase_cells(5)), max_size=6
)


@settings(max_examples=120)
@given(cell_subsets)
def test_perm_agrees_with_brute_multiply(crosses):
    d = PipeDream(crosses)
    word, reduced = apply_word(word_of(crosses), 5)
    assert multiply_word(d.word())[1] == reduced
    if reduced:
        assert d.perm().word == word
    else:
        with pytest.raises(InvalidDiagramError):
            d.perm()


@settings(max_examples=60)
@given(cell_subsets)
def test_pop_removes_first_cross(crosses):
    d = PipeDream(crosses)
    if not multiply_word(d.word())[1]:
        return
    if not crosses:
        with pytest.raises(EmptyDiagramError):
            d.pop()
        return
    (a, r), rest = d.pop()
    first = min(crosses, key=lambda rc: (rc[0], -rc[1]))
    assert (r, a - r + 1) == first
    assert rest.crosses == frozenset(crosses) - {first}


def assert_trace_matches_walk(crosses):
    tr = trace_pipes(crosses)
    cross_pipes, pair_cells = walk_pipe_dream(crosses)
    assert tr.cross_pipes == cross_pipes
    assert tr.pair_crossings == pair_cells


def test_trace_matches_walk_on_every_s5_subset():
    cells = staircase_cells(5)
    subsets = [
        frozenset(chosen)
        for k in range(len(cells) + 1)
        for chosen in combinations(cells, k)
    ]
    assert len(subsets) == 1024
    for crosses in subsets:
        assert_trace_matches_walk(crosses)


@seed(8)
@settings(max_examples=300)
@given(st.frozensets(st.sampled_from(staircase_cells(8))))
def test_trace_matches_walk_on_s8_subsets(crosses):
    assert_trace_matches_walk(crosses)


def test_the_drawn_staircase_holds_the_product_of_any_cross_set():
    # render_pipe_dream draws max(r + c) rows: the letter s_{r+c-1} of a
    # cross moves only points up to r + c, so the product, reduced or not,
    # fixes every point beyond.
    rng = random.Random(11)
    for _ in range(3000):
        cells = staircase_cells(rng.randint(2, 9))
        crosses = rng.sample(cells, rng.randint(1, min(len(cells), 12)))
        size = max(r + c for r, c in crosses)
        one_line, _ = apply_word(word_of(crosses), size + 2)
        assert len(one_line) <= size, crosses
        assert len(render_pipe_dream(PipeDream(crosses)).splitlines()) == size
    assert render_pipe_dream(PipeDream()) == "."
