"""Acceptance suite: one test per contract criterion.

Each criterion runs at the group size its contract names; ``pytest -v``
prints one pass or fail line per criterion.  The slow marker covers the
larger group sizes with their own time budgets.
"""

import time

import pytest

from pipedreams import (
    BumplessPipeDream,
    Permutation,
    PipeDream,
    SparsePolynomial,
    bpd_insert,
    bpd_m_move,
    bpd_pop,
    bpd_x_insert,
    enumerate_bpds,
    enumerate_pipe_dreams,
    footprints_audit,
    lemma_case_audit,
    pd_m_move,
    pd_x_insert,
    phi,
    schubert_polynomial,
    symmetric_group,
)
from pipedreams.verify import (
    bruhat_covers,
    verify_monk_commutation,
    verify_monk_commutation_m,
    verify_monk_poly,
    verify_partition,
)


def poly_sum(terms):
    return sum(terms, start=SparsePolynomial({}))


def assert_triple_agreement(n):
    for pi in symmetric_group(n):
        S = schubert_polynomial(pi)
        assert poly_sum(d.weight() for d in enumerate_pipe_dreams(pi)) == S
        assert poly_sum(d.weight() for d in enumerate_bpds(pi)) == S


def test_criterion_01_triple_agreement_s4():
    start = time.monotonic()
    assert_triple_agreement(4)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"S4 triple agreement took {elapsed:.2f}s"


@pytest.mark.slow
def test_criterion_01_triple_agreement_s5_slow():
    start = time.monotonic()
    assert_triple_agreement(5)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"S5 triple agreement took {elapsed:.2f}s"


def test_criterion_02_bijection_s5():
    for pi in symmetric_group(5):
        images = {}
        for b in enumerate_bpds(pi):
            d = phi(b).pipe_dream()
            assert d.weight() == b.weight(), "weights must be preserved"
            assert d not in images, "phi must be injective"
            images[d] = b
        assert set(images) == set(enumerate_pipe_dreams(pi)), (
            "phi must be onto the pipe dreams"
        )


def test_criterion_03_compatible_sequences_s5():
    for pi in symmetric_group(5):
        for b in enumerate_bpds(pi):
            seq = phi(b).sequence
            seq.validate()
            assert seq.permutation() == pi


def test_criterion_04_monk_polynomial_identity():
    for pi in symmetric_group(4):
        for alpha in range(1, 6):
            assert verify_monk_poly(pi, alpha), (pi, alpha)


def test_criterion_05_monk_diagram_commutation():
    for pi in symmetric_group(4):
        for alpha in range(1, 5):
            assert verify_monk_commutation(pi, alpha), (pi, alpha)
        for s, beta in bruhat_covers(pi, bound=5):
            assert verify_monk_commutation_m(pi, s, beta), (pi, s, beta)


def test_criterion_06_monk_partition_property():
    for pi in symmetric_group(4):
        for alpha in range(1, 5):
            for model in ("pd", "bpd"):
                assert verify_partition(pi, alpha, model), (pi, alpha, model)


def test_verify_partition_rejects_unknown_model():
    with pytest.raises(ValueError, match="unknown model"):
        verify_partition(Permutation((2, 1)), 1, "xyz")


def test_criterion_07_footprint_distinctness():
    for pi in symmetric_group(4):
        for alpha in range(1, 5):
            for d in enumerate_pipe_dreams(pi):
                _, tr = pd_x_insert(d, alpha)
                assert footprints_audit(tr), (pi, alpha, d)
        for s, beta in bruhat_covers(pi, bound=5):
            tau = pi.right_t(s, beta)
            for d in enumerate_pipe_dreams(tau):
                _, tr = pd_m_move(d, s, beta)
                assert footprints_audit(tr), (pi, s, beta, d)


def test_criterion_08_lemma_case_audits():
    skipped = 0
    for pi in symmetric_group(4):
        if pi.length() == 0:
            continue
        for enum in (enumerate_pipe_dreams, enumerate_bpds):
            for d in enum(pi):
                for alpha in range(1, 5):
                    report = lemma_case_audit(d, ("x", alpha))
                    assert report.passed(), report
                    skipped += sum(
                        1 for _, status, _ in report.checks
                        if status == "skip"
                    )
    for pi in symmetric_group(4):
        for s, beta in bruhat_covers(pi, bound=5):
            tau = pi.right_t(s, beta)
            for enum in (enumerate_pipe_dreams, enumerate_bpds):
                for d in enum(tau):
                    report = lemma_case_audit(d, ("m", s, beta))
                    assert report.passed(), report
                    skipped += sum(
                        1 for _, status, _ in report.checks
                        if status == "skip"
                    )
    assert skipped == 0, f"{skipped} audit clauses were skipped"


def test_criterion_09_pop_insert_roundtrip_s5():
    for pi in symmetric_group(5):
        if pi.length() == 0:
            continue
        for b in enumerate_bpds(pi):
            res = bpd_pop(b)
            assert bpd_insert(res.result, res.a, res.r) == b
    blocked = BumplessPipeDream.rothe(Permutation((2, 1)))
    for r in range(1, 6):
        assert bpd_insert(blocked, 1, r) is None


def test_criterion_10_anchor_values():
    # inserting x_alpha into the identity puts the cross on the diagonal
    for alpha in range(1, 5):
        out, _ = bpd_x_insert(BumplessPipeDream.identity(alpha), alpha)
        assert out.tile(alpha + 1, alpha + 1) == "+"
        res = bpd_pop(out)
        assert (res.a, res.r) == (alpha, alpha)
    # the only m move over the identity has s = beta - 1; it shifts the
    # pop value from (beta - 1, k) to (beta, k)
    for beta in range(2, 5):
        tau = Permutation.identity().right_t(beta - 1, beta)
        for b in enumerate_bpds(tau):
            res = bpd_pop(b)
            assert res.a == beta - 1
            out, _ = bpd_m_move(b, beta - 1, beta)
            res2 = bpd_pop(out)
            assert (res2.a, res2.r) == (beta, res.r)
    # the Schubert polynomial of 21543 is not multiplicity free
    S = schubert_polynomial(Permutation.parse("21543"))
    assert S.terms[(2, 1, 1)] >= 2


def test_criterion_11_stability():
    for pi in symmetric_group(4):
        assert schubert_polynomial(pi, ambient=6) == (
            schubert_polynomial(pi)
        )


def test_anchor_pop_value_for_2153746():
    pi = Permutation.parse("2153746")
    pops = {(bpd_pop(b).a, bpd_pop(b).r) for b in enumerate_bpds(pi)}
    assert (4, 1) in pops


@pytest.mark.slow
def test_anchor_footprint_stress_21786534_slow():
    pi = Permutation.parse("21786534")
    sigma = pi.right_t(2, 5)
    seen = 0
    for d in enumerate_pipe_dreams(sigma):
        if d.pop()[0] != (5, 1):
            continue
        _, tr = pd_m_move(d, 2, 5)
        assert footprints_audit(tr)
        seen += 1
    assert seen == 78
