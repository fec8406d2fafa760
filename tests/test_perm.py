"""Tests for the permutation layer."""

import gc
import tracemalloc
from itertools import combinations, product

import pytest
from hypothesis import given, seed, settings, strategies as st

from helpers import apply_word

from pipedreams import (
    Permutation,
    is_bruhat_cover,
    monk_covers,
    one_reduced_word,
    reduced_words,
    schubert_polynomial,
    symmetric_group,
)
from pipedreams.perm import multiply_word


def brute_length(word):
    return sum(
        1
        for i in range(len(word))
        for j in range(i + 1, len(word))
        if word[i] > word[j]
    )


def test_identity_and_trim():
    assert Permutation(()).word == ()
    assert Permutation((1, 2, 3)).word == ()
    assert Permutation((2, 1, 3, 4)).word == (2, 1)
    assert str(Permutation(())) == "id"


def test_parse_forms():
    assert Permutation.parse("2,1,5,4,3").word == (2, 1, 5, 4, 3)
    assert Permutation.parse("2 1 5 4 3").word == (2, 1, 5, 4, 3)
    assert Permutation.parse("21543").word == (2, 1, 5, 4, 3)
    with pytest.raises(ValueError):
        Permutation.parse("")
    with pytest.raises(ValueError):
        Permutation.parse("1,1,2")


def test_call_beyond_support():
    pi = Permutation((2, 1))
    assert pi(1) == 2 and pi(2) == 1 and pi(7) == 7


def test_composition_convention():
    sigma = Permutation((2, 3, 1))
    pi = Permutation((2, 1))
    assert (sigma * pi).word == tuple(sigma(pi(i)) for i in range(1, 4))


def test_right_s_swaps_positions_left_s_swaps_values():
    pi = Permutation((3, 1, 2))
    assert pi.right_s(1).word == (1, 3, 2)
    assert pi.left_s(1).word == (3, 2, 1)


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_length_counts_inversions(pi):
    full = tuple(pi(i) for i in range(1, 5))
    assert pi.length() == brute_length(full)


def test_left_s_length_and_left_descents_match_their_old_formulas_on_s6():
    # The formulas the word-reading versions replaced: left_s mapped
    # every value through s_i, left_descents compared inverse positions.
    for pi in symmetric_group(6):
        assert pi.length() == brute_length(pi.word), pi
        inv = pi.inverse()
        assert pi.left_descents() == frozenset(
            i for i in range(1, pi.size) if inv(i) > inv(i + 1)
        ), pi
        for i in range(1, 9):
            swap = {i: i + 1, i + 1: i}
            m = max(pi.size, i + 1)
            want = Permutation(swap.get(pi(j), pi(j)) for j in range(1, m + 1))
            got = pi.left_s(i)
            assert got.word == want.word, (pi, i)
            assert Permutation(got.word).word == got.word, (pi, i)


def test_left_s_grows_past_the_support_and_trims():
    pi = Permutation((2, 1))
    assert pi.left_s(2).word == (3, 1, 2)
    assert pi.left_s(5).word == (2, 1, 3, 4, 6, 5)
    assert Permutation.identity().left_s(4).word == (1, 2, 3, 5, 4)
    assert pi.left_s(1).left_s(1) == pi
    assert Permutation((1, 3, 2)).left_s(2).word == ()
    with pytest.raises(ValueError, match="need i >= 1"):
        pi.left_s(0)


def test_descents_of_21543():
    pi = Permutation.parse("21543")
    assert pi.left_descents() == {1, 3, 4}
    assert pi.right_descents() == {1, 3, 4}


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_descent_definitions(pi):
    inv = pi.inverse()
    assert pi.left_descents() == {
        i for i in range(1, 5) if inv(i) > inv(i + 1)
    }
    assert pi.right_descents() == {
        i for i in range(1, 5) if pi(i) > pi(i + 1)
    }


def test_reduced_words_of_21543():
    pi = Permutation.parse("21543")
    words = reduced_words(pi)
    assert len(words) == 8
    brute = set()
    for w in product(range(1, 5), repeat=4):
        cur = list(range(1, 6))
        ok = True
        for a in w:
            if cur[a - 1] > cur[a]:
                ok = False
                break
            cur[a - 1], cur[a] = cur[a], cur[a - 1]
        if ok and tuple(cur) == (2, 1, 5, 4, 3):
            brute.add(w)
    assert words == brute


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_reduced_words_multiply_back(pi):
    for word in reduced_words(pi):
        assert len(word) == pi.length()
        cur = Permutation.identity()
        for a in word:
            nxt = cur.right_s(a)
            assert nxt.length() == cur.length() + 1
            cur = nxt
        assert cur == pi
    assert one_reduced_word(pi) in reduced_words(pi)


def test_reduced_words_retains_nothing_between_calls():
    pi = Permutation.longest(5)
    reduced_words(Permutation((2, 1)))
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert len(reduced_words(pi)) == 768
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 4096
    assert reduced_words(pi) is not reduced_words(pi)


def test_reduced_words_match_brute_force_on_s5():
    # Every reduced word of length k + 1 extends one of length k.
    brute = {(): {()}}
    level = [()]
    while level:
        level = [
            w + (a,)
            for w in level
            for a in range(1, 5)
            if apply_word(w + (a,), 5)[1]
        ]
        for w in level:
            brute.setdefault(apply_word(w, 5)[0], set()).add(w)
    for pi in symmetric_group(5):
        assert reduced_words(pi) == brute[pi.word]


def test_reduced_words_drop_each_level_once_the_next_is_built():
    pi = Permutation.parse("2176543")
    gc.collect()
    tracemalloc.start()
    try:
        words = reduced_words(pi)
        gc.collect()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(words) == 8448
    # Keeping the words of every level would peak above 3 times the result.
    assert peak < 2.5 * kept


def test_symmetric_group_sizes():
    assert len(list(symmetric_group(1))) == 1
    assert len(list(symmetric_group(4))) == 24
    assert len({p for p in symmetric_group(4)}) == 24


def test_bruhat_cover_basics():
    id_ = Permutation.identity()
    assert is_bruhat_cover(id_, 1, 2)
    assert not is_bruhat_cover(Permutation((2, 1)), 1, 2)
    assert not is_bruhat_cover(id_, 1, 3)
    with pytest.raises(ValueError):
        is_bruhat_cover(id_, 2, 2)


def _covers_by_length(pi, a, b):
    """The definition: pi t_{a,b} covers pi when it is one inversion longer."""
    return pi.right_t(a, b).length() == pi.length() + 1


def test_bruhat_cover_matches_its_definition_on_s6():
    for pi in symmetric_group(6):
        for a, b in combinations(range(1, 8), 2):
            want = _covers_by_length(pi, a, b)
            assert is_bruhat_cover(pi, a, b) == want, (pi, a, b)


@seed(9)
@settings(max_examples=150, deadline=None)
@given(st.permutations(range(1, 10)))
def test_bruhat_cover_matches_its_definition_on_s9(word):
    pi = Permutation(word)
    for a, b in combinations(range(1, 11), 2):
        assert is_bruhat_cover(pi, a, b) == _covers_by_length(pi, a, b), (a, b)


def test_monk_covers_examples():
    assert monk_covers(Permutation.identity(), 1) == ((), (2,))
    assert monk_covers(Permutation((2, 1)), 2) == ((), (3,))
    assert monk_covers(Permutation((3, 2, 1)), 2) == ((), (4,))
    left, right = monk_covers(Permutation((1, 3, 2)), 2)
    assert left == (1,)
    assert right == (4,)


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
@pytest.mark.parametrize("alpha", [1, 2, 3, 4])
def test_monk_covers_are_covers(pi, alpha):
    left, right = monk_covers(pi, alpha)
    assert right, "the right cover set is never empty"
    for s in left:
        assert s < alpha
        assert is_bruhat_cover(pi, s, alpha)
    for l in right:
        assert l > alpha
        assert is_bruhat_cover(pi, alpha, l)


@given(st.permutations(list(range(1, 7))))
def test_inverse_roundtrip(word):
    pi = Permutation(tuple(word))
    assert pi.inverse().inverse() == pi
    assert pi * pi.inverse() == Permutation.identity()
    assert pi.inverse().length() == pi.length()


@given(st.permutations(list(range(1, 7))), st.integers(min_value=1, max_value=6))
def test_simple_multiplication_changes_length_by_one(word, i):
    pi = Permutation(tuple(word))
    assert abs(pi.right_s(i).length() - pi.length()) == 1


def test_longest_element():
    w0 = Permutation.longest(4)
    assert w0.word == (4, 3, 2, 1)
    assert w0.length() == 6
    assert w0.inverse() == w0


def test_unchecked_products_drop_trailing_fixed_points():
    assert Permutation.longest(1).word == ()
    assert Permutation.longest(0) == Permutation.identity()
    assert Permutation([2, 1]).right_t(1, 2).word == ()
    assert Permutation([1, 3, 2]).right_t(2, 4).word == (1, 4, 2, 3)
    assert (Permutation([2, 3, 1]) * Permutation([3, 1, 2])).word == ()
    assert Permutation([1, 2, 4, 3]).inverse().word == (1, 2, 4, 3)
    for a, b in [(0, 1), (2, 2), (3, 1)]:
        with pytest.raises(ValueError, match="need 1 <= a < b"):
            Permutation([2, 1]).right_t(a, b)


def test_a_word_letter_below_1_is_named():
    with pytest.raises(ValueError, match="^the letter 0 is below 1$"):
        multiply_word([2, 0])


def test_schubert_polynomial_makes_no_checked_permutation(monkeypatch):
    """The permutations perm.py builds from its own words skip the check
    of __init__; only parsed or user-given words pay for it."""
    pi = Permutation.parse("21786534")
    checked = []
    init = Permutation.__init__

    def counting_init(self, *args, **kwargs):
        checked.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Permutation, "__init__", counting_init)
    schubert_polynomial(pi)
    assert checked == []
    Permutation([2, 1])
    assert len(checked) == 1
