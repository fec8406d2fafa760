"""The verify harness: the witness a failing check reports, and the work
one run does.

A failing check's detail string is the only witness a failing run gives, so
these tests break one pipe dream move on purpose and pin the whole result
of the check groups that run it.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pipedreams
from pipedreams import verify
from pipedreams.bijection import PhiResult
from pipedreams.bumpless import BumplessPipeDream
from pipedreams.cli import main
from pipedreams.errors import InvariantError, MoveError
from pipedreams.perm import Permutation, is_bruhat_cover
from pipedreams.pipedream import CompatibleSequence, PipeDream
from pipedreams.poly import SparsePolynomial

PASSING_DIAGRAMS = {
    "bijection": (True, "bijective on 7 diagrams"),
    "compatible": (True, "7 sequences valid"),
    "roundtrip": (True, "6 pop/insert round trips"),
    "commutation": (True, "37 move families commute with phi"),
    "partition": (True, "images partition the upper cover diagrams"),
}
PASSING_POLY = {
    "triple_agreement": (True, "all 6 permutations agree"),
    "monk_poly": (True, "24 instances hold"),
    "stability": (True, "polynomials independent of the ambient size"),
    "poly_ring": (True, "ring axioms hold on random samples"),
}
PASSING_FOOTPRINTS = {"footprints": (True, "51 moves leave distinct footprints")}

# (move, fault) -> {check: (ok, detail)} of the changed checks
WITNESSES = {
    ("pd_x_insert", "wrong_diagram"): {
        "commutation": (False, "x move disagreement at id, alpha=1"),
        "partition": (False, "partition fails at id, alpha=1, pd"),
    },
    ("pd_x_insert", "repeated_footprint"): {
        "footprints": (False, "repeated footprint at id, alpha=1"),
    },
    ("pd_m_move", "wrong_diagram"): {
        "commutation": (False, "m move disagreement at id, (1,2)"),
        "partition": (False, "partition fails at id, alpha=2, pd"),
    },
    ("pd_m_move", "repeated_footprint"): {
        "footprints": (False, "repeated footprint at id, (1,2)"),
    },
}


def _break(monkeypatch, move, fault):
    real = getattr(verify, move)

    def broken(d, *args):
        out, trace = real(d, *args)
        if fault == "wrong_diagram":
            return d, trace
        return out, trace._replace(complete_footprints=[(1, 1), (1, 1)])

    monkeypatch.setattr(verify, move, broken)


@pytest.mark.parametrize("move, fault", sorted(WITNESSES), ids="-".join)
def test_failing_move_is_named_in_the_result(monkeypatch, move, fault):
    _break(monkeypatch, move, fault)
    witness = WITNESSES[move, fault]
    assert verify.run_checks(3, "diagrams") == {
        name: witness.get(name, result) for name, result in PASSING_DIAGRAMS.items()
    }
    assert verify.run_checks(3, "footprints") == {
        name: witness.get(name, result) for name, result in PASSING_FOOTPRINTS.items()
    }


def test_unbroken_moves_pass():
    assert verify.run_checks(3, "diagrams") == PASSING_DIAGRAMS
    assert verify.run_checks(3, "footprints") == PASSING_FOOTPRINTS


def _climb_without_swaps(ambient):
    """A fault in poly._climb: the climb with n (ambient) or without it
    returns pi's own Lehmer code and no swaps, so that route starts and
    ends at x^code(pi); the other climb is the real one."""
    real = pipedreams.poly._climb

    def broken(pi, n):
        if (n is not None) != ambient:
            return real(pi, n)
        w = pi.word
        return [sum(v < w[i] for v in w[i + 1:]) for i in range(len(w))], []

    return broken


def test_stability_guards_the_dominant_start(monkeypatch):
    """Starting at pi itself, not at a dominant permutation above it, gives
    x^code(pi): right at the dominant permutations, wrong first at 132.
    The stability check's climb to the longest element then disagrees."""
    assert verify.run_checks(3, "poly") == PASSING_POLY
    monkeypatch.setattr(pipedreams.poly, "_climb", _climb_without_swaps(ambient=False))
    assert verify.run_checks(3, "poly") == {
        "triple_agreement": (False, "disagreement at 1,3,2"),
        "monk_poly": (False, "failure at id, alpha=2"),
        "stability": (False, "ambient change alters the polynomial at 1,3,2"),
        "poly_ring": PASSING_POLY["poly_ring"],
    }


def test_stability_guards_the_longest_element_start(monkeypatch):
    """The mirror fault: only the climb inside S_{n+2} stops at pi, so only
    the stability check sees it."""
    monkeypatch.setattr(pipedreams.poly, "_climb", _climb_without_swaps(ambient=True))
    assert verify.run_checks(3, "poly") == {
        **PASSING_POLY,
        "stability": (False, "ambient change alters the polynomial at 1,3,2"),
    }


def test_a_failing_lemma_audit_reports_its_repr(monkeypatch):
    _break(monkeypatch, "pd_x_insert", "wrong_diagram")
    detail = (
        "AuditReport(pd, x-low, [('pop', 'fail', 'got (2, 2)'), "
        "('nabla', 'fail', '')]) at 1,3,2"
    )
    assert verify.run_checks(3, "lemmas") == {"lemmas": (False, detail)}


def _reversed_r(real):
    def broken(b):
        res = real(b)
        seq = CompatibleSequence(res.sequence.a, res.sequence.r[::-1])
        return PhiResult(seq, res.pops)

    return broken


def _raising(error):
    def broken(d, alpha):
        raise error("no move here")

    return broken


# (name, fault, error) -> the changed diagrams checks.  compatible names the
# permutation itself, since it validates each sequence it reads.
NOT_INCREASING = "r is not weakly increasing"
RAISES = {
    ("phi", _reversed_r, "InvalidSequenceError"): {
        "bijection": (False, f"raised InvalidSequenceError: {NOT_INCREASING}"),
        "compatible": (False, f"invalid sequence at 2,3,1: {NOT_INCREASING}"),
        "commutation": (False, f"raised InvalidSequenceError: {NOT_INCREASING}"),
    },
    ("bpd_x_insert", lambda real: _raising(MoveError), "MoveError"): {
        "commutation": (False, "raised MoveError: no move here"),
        "partition": (False, "raised MoveError: no move here"),
    },
    ("bpd_x_insert", lambda real: _raising(InvariantError), "InvariantError"): {
        "commutation": (False, "raised InvariantError: no move here"),
        "partition": (False, "raised InvariantError: no move here"),
    },
}


@pytest.mark.parametrize("key", list(RAISES), ids=lambda key: f"{key[0]}-{key[2]}")
def test_a_check_that_raises_fails_and_the_others_still_run(
    monkeypatch, capsys, key
):
    name, fault, _ = key
    monkeypatch.setattr(verify, name, fault(getattr(verify, name)))
    expected = {
        check: RAISES[key].get(check, result)
        for check, result in PASSING_DIAGRAMS.items()
    }
    assert verify.run_checks(3, "diagrams") == expected
    assert main(["verify", "--group", "3", "--check", "diagrams"]) == 1
    results = json.loads(capsys.readouterr().out)["results"]
    assert {check: (r["passed"], r["detail"]) for check, r in results.items()} == expected


def _phi_of(pick):
    """A fault in phi: each grid gets the true image of pick(grid)."""
    return lambda real: lambda b: real(pick(b))


def _first_grid(b):
    # The atlas lists the grids of a permutation by their rows, so
    # bijection meets this one first.
    return min(pipedreams.enumerate_bpds(b.perm()), key=lambda g: g.rows)


def _other_grid_of_132(b):
    if str(b.perm()) != "1,3,2":
        return b
    return next(g for g in pipedreams.enumerate_bpds(b.perm()) if g != b)


def _identity_image(real):
    one = PhiResult(CompatibleSequence((1,), (1,)), ())
    return lambda b: one if b.perm().is_identity() else real(b)


def _without_first(real):
    def broken(pi):
        pds = real(pi)
        return pds - {min(pds, key=PipeDream.sorted_crosses)} if len(pds) > 1 else pds

    return broken


NOT_EXACT = (False, "raised InvariantError: divided difference not exact")
# fault -> (group, owner, name, broken(real), the changed checks)
FAULTS = {
    "phi-not-injective": (
        "diagrams", verify, "phi", _phi_of(_first_grid), {
            "bijection": (False, "phi not injective at 1,3,2"),
            "commutation": (False, "x move disagreement at id, alpha=2"),
        },
    ),
    "phi-changes-a-weight": (
        "diagrams", verify, "phi", _phi_of(_other_grid_of_132), {
            "bijection": (False, "phi changes a weight at 1,3,2"),
            "commutation": (False, "x move disagreement at id, alpha=2"),
        },
    ),
    "phi_inverse-not-inverse": (
        "diagrams", verify, "phi_inverse",
        lambda real: lambda d: BumplessPipeDream.rothe(d.perm()), {
            "bijection": (False, "phi_inverse not inverse at 1,3,2"),
        },
    ),
    "phi-image-misses-diagrams": (
        "diagrams", verify, "enumerate_pipe_dreams", _without_first, {
            "bijection": (False, "phi image misses diagrams at 1,3,2"),
            "partition": (False, "partition fails at id, alpha=2, pd"),
        },
    ),
    "sequence-permutation-mismatch": (
        "diagrams", verify, "phi", _identity_image, {
            "bijection": (False, "phi changes a weight at id"),
            "compatible": (False, "sequence permutation mismatch at id"),
            "commutation": (False, "x move disagreement at id, alpha=1"),
        },
    ),
    "insert-does-not-undo-pop": (
        "diagrams", verify, "bpd_insert", lambda real: lambda *args: None, {
            "roundtrip": (False, "insert does not undo pop at 1,3,2"),
        },
    ),
    "distributivity": (
        "poly", SparsePolynomial, "__mul__",
        lambda real: lambda p, q: SparsePolynomial.monomial((), 1), {
            "triple_agreement": NOT_EXACT,
            "monk_poly": (False, "failure at id, alpha=1"),
            "stability": NOT_EXACT,
            "poly_ring": (False, "distributivity failed"),
        },
    ),
    "commutativity": (
        "poly", SparsePolynomial, "__mul__", lambda real: lambda p, q: p, {
            "triple_agreement": NOT_EXACT,
            "monk_poly": NOT_EXACT,
            "stability": NOT_EXACT,
            "poly_ring": (False, "commutativity failed"),
        },
    ),
    "associativity": (
        "poly", SparsePolynomial, "__mul__",
        lambda real: lambda p, q: real(p, q).swap_vars(1), {
            "triple_agreement": NOT_EXACT,
            "monk_poly": (False, "failure at id, alpha=1"),
            "stability": NOT_EXACT,
            "poly_ring": (False, "associativity failed"),
        },
    ),
    "subtraction": (
        "poly", SparsePolynomial, "__sub__", lambda real: lambda p, q: p + q, {
            "triple_agreement": NOT_EXACT,
            "monk_poly": NOT_EXACT,
            "stability": NOT_EXACT,
            "poly_ring": (False, "subtraction failed"),
        },
    ),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_each_check_failure_detail_can_fire(monkeypatch, fault):
    group, owner, name, broken, changed = FAULTS[fault]
    monkeypatch.setattr(owner, name, broken(getattr(owner, name)))
    results = verify.run_checks(3, group)
    passing = PASSING_DIAGRAMS if group == "diagrams" else PASSING_POLY
    assert results.keys() == passing.keys()
    for check, (ok, detail) in results.items():
        want_ok, want = changed.get(check, passing[check])
        assert ok == want_ok, check
        assert detail == want


# Runs the diagrams group under the phi-not-injective fault and prints
# the results; the fault lives in this module, imported from the path.
_FAULTED_RUN = """
import json
import test_verify
from pipedreams import verify
group, owner, name, broken, _ = test_verify.FAULTS["phi-not-injective"]
setattr(owner, name, broken(getattr(owner, name)))
print(json.dumps(verify.run_checks(3, group)))
"""


def test_a_failing_check_reports_the_same_witness_under_every_string_hash():
    # The atlas lists each permutation's diagrams in one order, so which
    # grid a check meets first does not follow string hashing.
    changed = FAULTS["phi-not-injective"][-1]
    expected = {
        check: list(changed.get(check, result))
        for check, result in PASSING_DIAGRAMS.items()
    }
    here = Path(__file__).parent
    path = os.pathsep.join([str(here.parent / "src"), str(here)])
    flags = ["-O"] if sys.flags.optimize else []
    for seed in ("0", "1", "2", "5"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path}
        run = subprocess.run(
            [sys.executable, *flags, "-c", _FAULTED_RUN],
            env=env, capture_output=True, text=True, check=True,
        )
        assert json.loads(run.stdout) == expected, seed


COUNTED = (
    "enumerate_bpds",
    "enumerate_pipe_dreams",
    "schubert_polynomial",
    "phi",
    "bpd_pop",
    "pd_x_insert",
    "pd_m_move",
    "bpd_x_insert",
    "bpd_m_move",
)


@pytest.fixture
def calls(monkeypatch):
    """Counts the calls run_checks makes through the names verify uses."""
    counts = dict.fromkeys(COUNTED, 0)
    for name in COUNTED:
        real = getattr(verify, name)

        def counting(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(verify, name, counting)
    return counts


def test_each_diagram_set_and_polynomial_is_computed_once_per_run(calls):
    verify.run_checks(3)
    # 17 permutations reach an enumeration and 29 calls a Schubert
    # polynomial: 23 permutations through the atlas, and the 6 of S_3 again
    # at the ambient size 5 of the stability check.  phi runs once on each
    # of the 49 distinct grids that are enumerated or a bumpless move's
    # output, and once on each of the 7 phi_inverse outputs; bpd_pop once
    # on each of the 48 grids the lemma audits pop, and again in the 6
    # round trips; each move once per distinct input.
    assert calls == {
        "enumerate_bpds": 17,
        "enumerate_pipe_dreams": 17,
        "schubert_polynomial": 29,
        "phi": 56,
        "bpd_pop": 54,
        "pd_x_insert": 21,
        "pd_m_move": 30,
        "bpd_x_insert": 21,
        "bpd_m_move": 30,
    }


def test_a_second_run_recomputes_everything(calls):
    verify.run_checks(3)
    first = dict(calls)
    verify.run_checks(3)
    assert calls == {name: 2 * count for name, count in first.items()}


# Calls that skip the atlas: bijection maps each of the 41 phi_inverse
# outputs by phi itself, and roundtrip pops each of the 40 grids itself.
UNMEMOISED = {"all": {"phi": 41, "bpd_pop": 40}, "diagrams": {"phi": 41}}


@pytest.mark.parametrize("group", ["all", *verify.CHECK_GROUPS])
def test_the_library_runs_once_per_distinct_input_across_levels(monkeypatch, group):
    # S4, unlike S3, lists a permutation before a shorter one (1,4,3,2
    # before 2,1), so the atlas must keep what a later level reads again.
    seen = {name: [] for name in COUNTED}
    for name in COUNTED:
        real = getattr(verify, name)

        def recording(*args, name=name, real=real):
            seen[name].append(args)
            return real(*args)

        monkeypatch.setattr(verify, name, recording)
    verify.run_checks(4, group)
    repeats = {name: len(args) - len(set(args)) for name, args in seen.items()}
    assert {name: k for name, k in repeats.items() if k} == UNMEMOISED.get(group, {})


def _direct(method, d, *move):
    """What Atlas.<method>(d, *move) stands for, by a direct library call."""
    ops = verify.model_of(d)
    if method == "image":
        return verify.phi(d).sequence
    if method == "pop":
        res = ops.pop(d)
        return res.a, res.r, res.result
    out, trace = ops.apply(d, *move)
    return out, verify.footprints_audit(trace) if ops.name == "pd" else None


def test_the_atlas_gives_what_the_library_gives(monkeypatch):
    # Every pop, move and image the S4 checks ask the atlas for.
    asked = {}
    for method in ("pop", "move", "image"):
        real = getattr(verify.Atlas, method)

        def recording(self, *args, method=method, real=real):
            asked[method, args] = out = real(self, *args)
            return out

        monkeypatch.setattr(verify.Atlas, method, recording)
    verify.run_checks(4)
    monkeypatch.undo()
    assert {method for method, _ in asked} == {"pop", "move", "image"}
    for (method, (d, *move)), out in asked.items():
        assert out == _direct(method, d, *move)


def _entries(value):
    """The leaves of a dict, recursing into dict values; any other value,
    a frozenset or a tuple included, is one entry."""
    if isinstance(value, dict):
        return sum(map(_entries, value.values()))
    return 1


@pytest.mark.parametrize(
    "n, kept",
    [
        (4, [69, 222, 336, 310, 170, 68, 18]),
        (5, [104, 562, 1545, 2663, 3101, 2615, 1752, 835, 332, 104, 22]),
    ],
)
def test_the_atlas_keeps_a_pinned_number_of_entries_after_each_length(
    monkeypatch, n, kept
):
    # The call-count tests catch a forget that keeps too little; this one
    # catches one that keeps too much, however the atlas lays out its memos.
    counts = []
    real = verify.Atlas.forget

    def counting(self, level, n):
        real(self, level, n)
        counts.append(_entries(vars(self)))

    monkeypatch.setattr(verify.Atlas, "forget", counting)
    verify.run_checks(n)
    assert counts == kept


S4_PASSING = {
    "bijection": (True, "bijective on 41 diagrams"),
    "compatible": (True, "41 sequences valid"),
    "roundtrip": (True, "40 pop/insert round trips"),
    "commutation": (True, "204 move families commute with phi"),
    "partition": (True, "images partition the upper cover diagrams"),
    "footprints": (True, "421 moves leave distinct footprints"),
}
LATE, EARLY = "1,4,3,2", "2,1"  # listed in this order in S4, longer first
FAILED_AT_LATE = {
    "commutation": (False, f"x move disagreement at {LATE}, alpha=1"),
    "partition": (False, f"partition fails at {LATE}, alpha=1, pd"),
    "footprints": (False, f"repeated footprint at {LATE}, alpha=1"),
}
RAISED_AT_LATE = {
    name: (False, f"raised MoveError: broken at {LATE}") for name in FAILED_AT_LATE
}


@pytest.mark.parametrize(
    "late, early, changed",
    [
        ("fail", "fail", FAILED_AT_LATE),
        ("raise", "fail", RAISED_AT_LATE),
        ("fail", "raise", FAILED_AT_LATE),
    ],
    ids=["fail-fail", "raise-fail", "fail-raise"],
)
def test_the_first_failure_in_group_order_wins_over_a_shorter_permutation(
    monkeypatch, late, early, changed
):
    # The checks run one length at a time, so they meet 2,1 first.
    real = verify.pd_x_insert
    faults = {LATE: late, EARLY: early}

    def broken(d, alpha):
        out, trace = real(d, alpha)
        fault = faults.get(str(d.perm()))
        if fault == "raise":
            raise MoveError(f"broken at {d.perm()}")
        if fault == "fail":
            return d, trace._replace(complete_footprints=[(1, 1), (1, 1)])
        return out, trace

    monkeypatch.setattr(verify, "pd_x_insert", broken)
    results = {**verify.run_checks(4, "diagrams"), **verify.run_checks(4, "footprints")}
    assert results == {name: changed.get(name, r) for name, r in S4_PASSING.items()}


def _called_name(node):
    while isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "attr", getattr(node, "id", None))


@pytest.mark.parametrize(
    "path",
    sorted(Path(pipedreams.__file__).parent.glob("*.py")),
    ids=lambda path: path.name,
)
def test_module_keeps_no_cache(path):
    # A module-level memo outlives every call; memos belong to one call.
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            exprs = node.decorator_list
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value:
            exprs = [node.value]
        else:
            continue
        for expr in exprs:
            assert _called_name(expr) not in ("cache", "lru_cache"), node.lineno


@pytest.fixture
def refusing(monkeypatch):
    """Calls of the pd x and m moves within one audit, counted per kind;
    set refuse[kind] = k to make the k-th call raise ValueError."""
    calls, refuse = {"x": 0, "m": 0}, {}
    ops = verify.MODELS["pd"]

    def counted(kind):
        real = getattr(ops, kind)

        def move(*args):
            calls[kind] += 1
            if refuse.get(kind) == calls[kind]:
                raise ValueError("refused")
            return real(*args)

        return move

    monkeypatch.setitem(verify.MODELS, "pd", ops._replace(x=counted("x"), m=counted("m")))

    def audit(d, move, **refusals):
        calls.update(x=0, m=0)
        refuse.clear()
        refuse.update(refusals)
        return verify.lemma_case_audit(d, move)

    audit.calls = calls
    return audit


def _first_generic_audit(audit, kind, m_calls):
    """The first S4 pd audit of a kind move whose generic case makes
    m_calls m moves, so that it reaches the follow-up m move."""
    for pi, base, move, _ in verify._moves(4):
        if move[0] != kind or (kind == "x" and pi.is_identity()):
            continue
        for d in sorted(pipedreams.enumerate_pipe_dreams(base), key=lambda d: sorted(d.crosses)):
            report = audit(d, move)
            if report.case == kind + "-generic" and audit.calls["m"] == m_calls:
                return d, move
    raise AssertionError(f"no {kind}-generic audit with a follow-up m move")


def test_m_generic_audit_raises_where_the_m_move_on_the_popped_diagram_refuses(refusing):
    d, move = _first_generic_audit(refusing, "m", 3)
    # The second m move is the move on the popped diagram, the third the
    # follow-up one; the lemma says both apply, so neither refusal passes.
    for k in (2, 3):
        with pytest.raises(ValueError, match="refused"):
            refusing(d, move, m=k)


def test_x_generic_audit_raises_where_its_follow_up_m_move_refuses(refusing):
    d, move = _first_generic_audit(refusing, "x", 1)
    with pytest.raises(ValueError, match="refused"):
        refusing(d, move, m=1)
    with pytest.raises(ValueError, match="refused"):
        refusing(d, move, x=2)


def test_a_refused_m_move_on_the_popped_diagram_fails_the_lemmas_check(monkeypatch):
    # Each m audit refuses its own move on the diagram its pop leaves.
    refused = [None]
    real_audit, real_move = verify.Atlas.audit, verify.Atlas.move

    def audit(self, diagram, move):
        refused[0] = (self.pop(diagram)[2], move) if move[0] == "m" else None
        return real_audit(self, diagram, move)

    def move(self, diagram, move):
        if refused[0] == (diagram, move):
            raise MoveError("refused on the popped diagram")
        return real_move(self, diagram, move)

    monkeypatch.setattr(verify.Atlas, "audit", audit)
    monkeypatch.setattr(verify.Atlas, "move", move)
    assert verify.run_checks(4, "lemmas") == {
        "lemmas": (False, "raised MoveError: refused on the popped diagram"),
    }


def test_bruhat_covers_are_the_bruhat_covers_below_the_bound():
    for pi in pipedreams.symmetric_group(5):
        for bound in range(2, 8):
            assert verify.bruhat_covers(pi, bound) == [
                (s, b)
                for b in range(2, bound + 1)
                for s in range(1, b)
                if is_bruhat_cover(pi, s, b)
            ]


def test_bruhat_covers_default_to_one_past_the_size():
    assert verify.bruhat_covers(Permutation([2, 1])) == [(1, 3), (2, 3)]
    assert verify.bruhat_covers(Permutation([2, 1]), 3) == [(1, 3), (2, 3)]
    assert verify.bruhat_covers(Permutation()) == [(1, 2)]
