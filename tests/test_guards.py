"""The guards at the public boundary: each rejects its input with its own
exception and message, raised by the function named in the test id."""

import pytest

from pipedreams import (
    BumplessPipeDream,
    Permutation,
    PipeDream,
    SparsePolynomial,
    bpd_insert,
    bpd_x_insert,
    footprints_audit,
    schubert_polynomial,
)
from pipedreams.perm import monk_covers
from pipedreams.pipedream import CompatibleSequence
from pipedreams.poly import divided_difference, staircase_monomial
from pipedreams.render import render
from pipedreams.verify import model_of, run_checks

THING = object()
X1 = SparsePolynomial.variable(1)

# (function that raises, call, exception type, message)
GUARDS = [
    ("run_checks", lambda: run_checks(3, "bogus"), ValueError, "unknown check group 'bogus'"),
    ("model_of", lambda: model_of(THING), TypeError, f"not a diagram: {THING!r}"),
    ("render", lambda: render(THING), TypeError, f"cannot render {THING!r}"),
    ("identity", lambda: BumplessPipeDream.identity(0), ValueError, "size must be positive"),
    (
        "rothe",
        lambda: BumplessPipeDream.rothe(Permutation([2, 1]), 1),
        ValueError,
        "grid too small for the permutation",
    ),
    (
        "from_json",
        lambda: BumplessPipeDream.from_json({"model": "pd", "crosses": []}),
        ValueError,
        "not a bumpless pipe dream payload",
    ),
    (
        "from_json",
        lambda: PipeDream.from_json({"model": "bpd"}),
        ValueError,
        "not a pipe dream payload",
    ),
    (
        "bpd_insert",
        lambda: bpd_insert(BumplessPipeDream.identity(2), 0, 1),
        ValueError,
        "a and r must be positive",
    ),
    ("__call__", lambda: Permutation([2, 1])(0), ValueError, "positions are 1-based"),
    ("monk_covers", lambda: monk_covers(Permutation([2, 1]), 0), ValueError, "need alpha >= 1"),
    (
        "footprints_audit",
        lambda: footprints_audit(bpd_x_insert(BumplessPipeDream.identity(1), 1)[1]),
        ValueError,
        "complete footprints exist only for pipe dream moves",
    ),
    ("variable", lambda: SparsePolynomial.variable(0), ValueError, "variables are numbered from 1"),
    ("swap_vars", lambda: X1.swap_vars(0), ValueError, "variables are numbered from 1"),
    (
        "divided_difference",
        lambda: divided_difference(X1, 0),
        ValueError,
        "variables are numbered from 1",
    ),
    ("staircase_monomial", lambda: staircase_monomial(0), ValueError, "need n >= 1"),
    (
        "schubert_polynomial",
        lambda: schubert_polynomial(Permutation([3, 1, 2]), 2),
        ValueError,
        "ambient S_2 too small for support 3",
    ),
]


@pytest.mark.parametrize(
    "where, call, error, message", GUARDS, ids=[f"{g[0]}-{i}" for i, g in enumerate(GUARDS)]
)
def test_each_boundary_guard_raises_its_own_message(where, call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message
    # Without its own guard, divided_difference would still raise the same
    # message from SparsePolynomial.variable; the raising frame tells them apart.
    assert caught.traceback[-1].name == where


def test_trim_keeps_a_grid_whose_last_column_is_not_an_identity_column():
    # The last row is an identity row, but the last column, '-' over 'r'
    # in a grown grid, here reads 'r' over 'r'.
    assert BumplessPipeDream([".r", "|r"]).trim().rows == (".r", "|r")


def test_equal_compatible_sequences_hash_equal():
    one, other = CompatibleSequence((2, 1, 2), (1, 1, 2)), CompatibleSequence([2, 1, 2], [1, 1, 2])
    assert one == other and one is not other
    assert hash(one) == hash(other)


def test_equal_polynomials_hash_equal():
    one = X1 + SparsePolynomial.variable(2)
    other = SparsePolynomial({(0, 1): 1, (1,): 1})
    assert one == other and one is not other
    assert hash(one) == hash(other)
