"""Tests for sparse polynomials, divided differences, and Schubert
polynomials."""

import builtins
import hashlib
import json
import random
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import S3_SCHUBERT
from pipedreams import (
    InvariantError,
    Permutation,
    SparsePolynomial,
    divided_difference,
    one_reduced_word,
    reduced_words,
    schubert_polynomial,
    staircase_monomial,
    symmetric_group,
)
from pipedreams import poly


def x(i):
    exps = [0] * i
    exps[i - 1] = 1
    return SparsePolynomial({tuple(exps): 1})


small_polys = st.dictionaries(
    st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(3))),
    st.integers(min_value=-4, max_value=4),
    max_size=4,
).map(SparsePolynomial)


def test_zero_and_one():
    zero = SparsePolynomial({})
    one = SparsePolynomial({(): 1})
    p = x(1) + x(2)
    assert p + zero == p
    assert p * one == p
    assert p * zero == zero
    assert p - p == zero


@settings(max_examples=60)
@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def test_display_ordering():
    p = x(1) * x(1) + SparsePolynomial({(0, 0, 1): 2, (1,): 1})
    assert str(p) == "x1^2 + x1 + 2*x3"
    assert str(SparsePolynomial({})) == "0"
    assert str(SparsePolynomial({(1, 1): -1, (): 3})) == "-x1*x2 + 3"


def test_repr_lists_the_terms_by_exponent():
    p = SparsePolynomial.variable(2) + SparsePolynomial.variable(1)
    assert repr(p) == "SparsePolynomial({(0, 1): 1, (1,): 1})"


def test_json_roundtrip():
    p = x(1) * x(2) + x(3) * x(3)
    data = p.to_json()
    assert data["terms"] == [
        {"exponents": [0, 0, 2], "coefficient": 1},
        {"exponents": [1, 1], "coefficient": 1},
    ]
    assert SparsePolynomial.from_json(data) == p


@pytest.mark.parametrize(
    "exponents, coefficient",
    [([1], 2.7), ([1], "3"), ([1.5], 3), ([True], 3), ([-1], 3), ([1], False)],
)
def test_json_refuses_values_that_are_not_integers(exponents, coefficient):
    data = {"terms": [{"exponents": exponents, "coefficient": coefficient}]}
    with pytest.raises(ValueError):
        SparsePolynomial.from_json(data)


@pytest.mark.parametrize(
    "data, field",
    [
        ({}, "'terms'"),
        ({"terms": 5}, "'terms'"),
        ({"terms": [[1, 2]]}, "'terms'"),
        ({"terms": [{"exponents": [1]}]}, "'coefficient'"),
        ({"terms": [{"coefficient": 1}]}, "'exponents'"),
        ({"terms": [{"exponents": 5, "coefficient": 1}]}, "exponents"),
    ],
    ids=["empty", "terms-int", "term-list", "no-coefficient", "no-exponents", "exponents-int"],
)
def test_json_names_a_missing_or_misshapen_field(data, field):
    with pytest.raises(ValueError, match=field):
        SparsePolynomial.from_json(data)


def test_swap_vars():
    p = x(1) * x(1) * x(2)
    assert p.swap_vars(1) == x(1) * x(2) * x(2)
    assert p.swap_vars(3) == p


def test_divided_difference_basics():
    # partial_1 of x1 is 1, of a symmetric polynomial is 0
    one = SparsePolynomial({(): 1})
    assert divided_difference(x(1), 1) == one
    sym = x(1) * x(2)
    assert divided_difference(sym, 1) == SparsePolynomial({})
    assert divided_difference(x(1) + x(2), 1) == SparsePolynomial({})


@settings(max_examples=40)
@given(small_polys, st.integers(min_value=1, max_value=3))
def test_divided_difference_is_nilpotent(p, i):
    assert divided_difference(divided_difference(p, i), i) == (
        SparsePolynomial({})
    )


@settings(max_examples=40)
@given(small_polys)
def test_divided_difference_braid_and_commute(p):
    d = divided_difference
    assert d(d(p, 1), 3) == d(d(p, 3), 1)
    assert d(d(d(p, 1), 2), 1) == d(d(d(p, 2), 1), 2)


def test_staircase_monomial():
    assert staircase_monomial(3) == x(1) * x(1) * x(2)
    assert staircase_monomial(1) == SparsePolynomial({(): 1})


def test_schubert_s3_table():
    for word, terms in S3_SCHUBERT.items():
        pi = Permutation(word)
        expect = SparsePolynomial(dict(terms))
        assert schubert_polynomial(pi) == expect


def test_schubert_identity_is_one():
    assert schubert_polynomial(Permutation.identity()) == (
        SparsePolynomial({(): 1})
    )


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_schubert_from_any_reduced_word(pi):
    """Folding divided differences over every reduced word of the
    complement gives the same polynomial."""
    w0 = Permutation.longest(4)
    comp = pi.inverse() * w0
    expect = schubert_polynomial(pi)
    for word in reduced_words(comp):
        poly = staircase_monomial(4)
        for a in reversed(word):
            poly = divided_difference(poly, a)
        assert poly == expect


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_schubert_coefficients_nonnegative(pi):
    S = schubert_polynomial(pi)
    assert all(c > 0 for c in S.terms.values())
    assert sum(c for c in S.terms.values()) >= 1


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_schubert_stability(pi):
    assert schubert_polynomial(pi, ambient=6) == (
        schubert_polynomial(pi)
    )


def test_dominant_permutation_is_single_monomial():
    # 321 is dominant: its Schubert polynomial is x to its Lehmer code (2, 1)
    pi = Permutation((3, 2, 1))
    S = schubert_polynomial(pi)
    assert S == SparsePolynomial({(2, 1): 1})


def _lehmer_code(pi):
    w = pi.word
    return tuple(sum(w[j] < w[i] for j in range(i + 1, len(w))) for i in range(len(w)))


def _avoids_132(pi):
    w = pi.word
    return not any(
        w[i] < w[k] < w[j]
        for i in range(len(w))
        for j in range(i + 1, len(w))
        for k in range(j + 1, len(w))
    )


def _seeded_sample(n, count, seed):
    rng = random.Random(seed)
    return [Permutation(rng.sample(range(1, n + 1), n)) for _ in range(count)]


@pytest.fixture
def dd_calls(monkeypatch):
    """Counts the divided differences schubert_polynomial applies."""
    count = [0]
    real = poly.divided_difference

    def counting(f, i):
        count[0] += 1
        return real(f, i)

    monkeypatch.setattr(poly, "divided_difference", counting)
    return count


@pytest.mark.parametrize(
    "pis",
    [list(symmetric_group(6)), _seeded_sample(7, 40, 7) + _seeded_sample(8, 20, 8)],
    ids=["S6", "S7-S8-sample"],
)
def test_dominant_route_matches_the_longest_element_route(pis):
    for pi in pis:
        assert schubert_polynomial(pi) == schubert_polynomial(
            pi, ambient=max(pi.size, 1)
        ), pi


def _longest_element_route(pi, m):
    """The Schubert polynomial of pi without the climb: the staircase
    monomial of S_m, folded down a reduced word of pi^{-1} w0."""
    f = staircase_monomial(m)
    for i in reversed(one_reduced_word(pi.inverse() * Permutation.longest(m))):
        f = divided_difference(f, i)
    return f


@pytest.mark.parametrize(
    "pis",
    [list(symmetric_group(6)), _seeded_sample(7, 40, 7) + _seeded_sample(8, 20, 8)],
    ids=["S6", "S7-S8-sample"],
)
def test_both_climbs_match_the_longest_element_reference(pis):
    for pi in pis:
        for m in (max(pi.size, 1), max(pi.size, 1) + 2):
            expect = _longest_element_route(pi, m)
            assert schubert_polynomial(pi) == expect, (pi, m)
            assert schubert_polynomial(pi, m) == expect, (pi, m)


@pytest.mark.parametrize(
    "ambient, message",
    [(0, "need n >= 1"), (-1, "ambient S_-1 too small for support 0")],
)
def test_an_ambient_below_one_is_refused(ambient, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        schubert_polynomial(Permutation(), ambient)


def test_a_dominant_permutation_needs_no_divided_difference(dd_calls):
    dominant = [pi for pi in symmetric_group(6) if _avoids_132(pi)]
    assert len(dominant) == 132  # the Catalan number C_6
    for pi in dominant:
        assert schubert_polynomial(pi) == SparsePolynomial.monomial(_lehmer_code(pi))
    assert dd_calls[0] == 0


def test_divided_differences_over_s5_are_a_pinned_work_count(dd_calls):
    # Starting each route at the longest element of S_{pi.size} took 481.
    for pi in symmetric_group(5):
        schubert_polynomial(pi)
    assert dd_calls[0] == 156


def test_multiplicity_two_coefficient():
    S = schubert_polynomial(Permutation.parse("21543"))
    assert S.terms[(2, 1, 1)] == 2


def test_degree_equals_length():
    for pi in symmetric_group(4):
        S = schubert_polynomial(pi)
        assert {sum(e) for e in S.terms} == {pi.length()}


# Exponent tuples of length 0 to 3, so trailing-zero twins such as (1,) and
# (1, 0) meet in one dict and must be added, not overwritten.
ragged_terms = st.dictionaries(
    st.lists(st.integers(min_value=0, max_value=2), max_size=3).map(tuple),
    st.integers(min_value=-3, max_value=3),
    max_size=6,
)


@settings(max_examples=200)
@given(ragged_terms)
def test_constructor_adds_keys_that_trim_alike(terms):
    p = SparsePolynomial(terms)
    assert p == sum(
        (SparsePolynomial.monomial(e, c) for e, c in terms.items()),
        start=SparsePolynomial(),
    )
    assert all(c and (not e or e[-1]) for e, c in p.terms.items())
    assert SparsePolynomial.from_json(p.to_json()) == p
    raw = {
        "terms": [
            {"exponents": list(e), "coefficient": c} for e, c in terms.items()
        ]
    }
    assert SparsePolynomial.from_json(raw) == p


def test_trailing_zero_twins_are_merged():
    assert SparsePolynomial({(1,): 1, (1, 0): 1}) == SparsePolynomial({(1,): 2})
    assert SparsePolynomial({(1, 0): 1, (1,): -1}) == SparsePolynomial()


@settings(max_examples=100)
@given(ragged_terms, ragged_terms)
def test_product_adds_padded_exponents(d1, d2):
    def pad(e):
        return e + (0,) * (3 - len(e))

    expect = SparsePolynomial()
    for e1, c1 in d1.items():
        for e2, c2 in d2.items():
            e = tuple(a + b for a, b in zip(pad(e1), pad(e2)))
            expect += SparsePolynomial.monomial(e, c1 * c2)
    product = SparsePolynomial(d1) * SparsePolynomial(d2)
    assert product == expect
    assert all(not e or e[-1] for e in product.terms)


def test_divided_difference_checks_against_swap_vars(monkeypatch):
    """The exactness check compares with swap_vars, so a wrong swap is
    caught even though the quotient is built without it."""
    monkeypatch.setattr(SparsePolynomial, "swap_vars", lambda self, i: self)
    with pytest.raises(InvariantError, match="not exact"):
        divided_difference(x(1), 1)


def test_divided_difference_checks_its_own_quotient(monkeypatch):
    """A quotient that misses one telescoped term fails the check even with
    a correct swap_vars: x1^2 yields x2 alone in place of x1 + x2."""
    monkeypatch.setattr(poly, "range", lambda n: builtins.range(1, n), raising=False)
    with pytest.raises(InvariantError, match="^divided difference not exact$"):
        divided_difference(x(1) * x(1), 1)


# Keys of length 0 to 3 with negative exponents, trailing zeros and zero
# coefficients, so every ring op meets terms that must cancel or trim.
laurent_polys = st.dictionaries(
    st.lists(st.integers(min_value=-2, max_value=2), max_size=3).map(tuple),
    st.integers(min_value=-2, max_value=2),
    max_size=5,
).map(SparsePolynomial)


def _is_normal(p):
    return p.terms == SparsePolynomial(dict(p.terms)).terms


@settings(max_examples=200)
@given(laurent_polys, laurent_polys, st.integers(min_value=1, max_value=4))
@example(SparsePolynomial({(0, 1): 1}), SparsePolynomial({(0, -1): 1}), 1)
@example(SparsePolynomial({(2,): 1, (0, 2): 1}), SparsePolynomial(), 1)
def test_ring_ops_return_the_normal_form(p, q, i):
    """The ring ops build their results unchecked, so each must already be
    what the constructor would make of it: x2 * x2^-1 trims to 1, and the
    quotient terms of the symmetric x1^2 + x2^2 cancel."""
    for r in (p + q, p - q, -p, p * q, p.swap_vars(i), divided_difference(p, i)):
        assert _is_normal(r)
    assert p - q == p + (-q)


@settings(max_examples=200)
@given(laurent_polys, st.integers(min_value=1, max_value=4))
def test_quotient_times_the_root_is_the_antisymmetric_part(p, i):
    """The defining identity through the public * and -, which the
    exactness check inside divided_difference does not call."""
    product = divided_difference(p, i) * (x(i) - x(i + 1))
    assert product == p - p.swap_vars(i)
    assert _is_normal(product)


def test_schubert_polynomial_makes_one_checked_polynomial(monkeypatch):
    """Only the monomial start goes through __init__; every divided
    difference and its exactness check build their polynomials unchecked."""
    checked = []
    init = SparsePolynomial.__init__

    def counting_init(self, *args, **kwargs):
        checked.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SparsePolynomial, "__init__", counting_init)
    s = schubert_polynomial(Permutation.parse("21786534"))
    assert len(checked) == 1
    assert len(s.terms) == 683


# sha256 of json.dumps(schubert_polynomial(pi).to_json(), sort_keys=True),
# recorded when the exactness check still multiplied the quotient back; the
# second reaches S9, past the S7 poly golden.
SCHUBERT_SHA256 = {
    "21786534": (
        683, "97e8b1e3299ff81f782bb82ff3518b274acf13d34517f36ecb5db1f2613c3fc3"
    ),
    "1,3,2,9,8,7,6,5,4": (
        17319, "0d6e43fd4429486572930ce7df4f6d53b014d61a8449903048683f33d489bca4"
    ),
}


@pytest.mark.parametrize("word", list(SCHUBERT_SHA256))
def test_large_schubert_polynomials_are_pinned_term_for_term(word):
    s = schubert_polynomial(Permutation.parse(word))
    dump = json.dumps(s.to_json(), sort_keys=True).encode()
    assert (len(s.terms), hashlib.sha256(dump).hexdigest()) == SCHUBERT_SHA256[word]
