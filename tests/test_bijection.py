"""Tests for the pop-based bijection between bumpless pipe dreams and
ordinary pipe dreams."""

import random
from collections import Counter

import pytest

from pipedreams import (
    BumplessPipeDream,
    CompatibleSequence,
    InvariantError,
    Permutation,
    PipeDream,
    bpd_insert,
    bpd_pop,
    bpd_x_insert,
    bruhat_covers,
    enumerate_bpds,
    enumerate_pipe_dreams,
    footprints_audit,
    lemma_case_audit,
    pd_m_move,
    pd_x_insert,
    phi,
    phi_inverse,
    symmetric_group,
    verify_partition,
)


def test_phi_of_identity_is_empty():
    res = phi(BumplessPipeDream.identity(3))
    assert res.sequence == CompatibleSequence((), ())
    assert res.pops == ()
    assert res.pipe_dream() == PipeDream([])


def test_the_records_of_rothe_321_print_their_fields():
    b = BumplessPipeDream.rothe(Permutation([3, 2, 1]))
    assert repr(bpd_pop(b)) == (
        "PopResult(a=2, r=1, result=BumplessPipeDream(['.r-', '.|r', 'r++']), "
        "footprints=())"
    )
    assert repr(phi(b)) == "PhiResult(CompatibleSequence((2, 1, 2), (1, 1, 2)))"
    assert repr(bpd_x_insert(b, 1)[1]) == (
        "MonkTrace(steps=(('min_droop', ((1, 3), (4, 4))), "
        "('bump_to_cross', ((4, 4),))), result_l=4)"
    )


def test_phi_of_rothe_21():
    res = phi(BumplessPipeDream.rothe(Permutation((2, 1))))
    assert res.sequence == CompatibleSequence((1,), (1,))
    assert res.pipe_dream() == PipeDream([(1, 1)])


def test_phi_of_rothe_321():
    res = phi(BumplessPipeDream.rothe(Permutation((3, 2, 1))))
    assert res.sequence == CompatibleSequence((2, 1, 2), (1, 1, 2))
    assert res.pipe_dream() == PipeDream([(1, 1), (1, 2), (2, 1)])


def test_phi_inverse_fixture():
    assert phi_inverse(PipeDream([(1, 1)])).rows == (".r", "r+")


def test_phi_inverse_names_a_failed_insertion_an_invariant(monkeypatch):
    monkeypatch.setattr("pipedreams.bijection.bpd_insert", lambda d, a, r: None)
    with pytest.raises(InvariantError, match=r"insertion of \(1, 1\) failed"):
        phi_inverse(PipeDream([(1, 1)]))


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_phi_is_a_weight_preserving_bijection(pi):
    bpds = enumerate_bpds(pi)
    images = {}
    for b in bpds:
        res = phi(b)
        res.sequence.validate()
        d = res.pipe_dream()
        assert d.perm() == pi
        assert d.weight() == b.weight()
        assert d not in images, "phi must be injective"
        images[d] = b
    assert set(images) == set(enumerate_pipe_dreams(pi))


@pytest.mark.parametrize("pi", list(symmetric_group(4)))
def test_phi_inverse_roundtrip(pi):
    for b in enumerate_bpds(pi):
        assert phi_inverse(phi(b).pipe_dream()) == b
    for d in enumerate_pipe_dreams(pi):
        assert phi(phi_inverse(d)).pipe_dream() == d


def test_pops_read_off_the_compatible_sequence():
    for pi in symmetric_group(3):
        for b in enumerate_bpds(pi):
            res = phi(b)
            a_seq = tuple(a for a, _ in res.pops)
            r_seq = tuple(r for _, r in res.pops)
            assert res.sequence == CompatibleSequence(a_seq, r_seq)
            assert len(res.pops) == pi.length()


def _s7_s8_sample(seed, count, most):
    """A fixed-seed sample of S7 and S8 with 2 to `most` diagrams each."""
    rng = random.Random(seed)
    sample = []
    while len(sample) < count:
        n = rng.choice((7, 8))
        pi = Permutation(rng.sample(range(1, n + 1), n))
        if 2 <= len(enumerate_pipe_dreams(pi)) <= most:
            sample.append(pi)
    return sample


@pytest.mark.parametrize("pi", _s7_s8_sample(19, 24, 40), ids=str)
def test_phi_is_a_weight_preserving_bijection_past_s5(pi):
    bpds = enumerate_bpds(pi)
    images = {}
    for b in bpds:
        d = phi(b).pipe_dream()
        assert d.weight() == b.weight()
        assert phi_inverse(d) == b
        images[d] = b
    assert len(images) == len(bpds)
    assert set(images) == set(enumerate_pipe_dreams(pi))


@pytest.mark.parametrize("pi", _s7_s8_sample(19, 24, 40), ids=str)
def test_insert_undoes_pop_past_s5(pi):
    for b in enumerate_bpds(pi):
        p = bpd_pop(b)
        assert bpd_insert(p.result, p.a, p.r) == b


@pytest.mark.parametrize("pi", _s7_s8_sample(19, 24, 40), ids=str)
def test_move_images_partition_the_upper_covers_past_s5(pi):
    for alpha in random.Random(str(pi)).sample(range(1, pi.size + 1), 3):
        for model in ("pd", "bpd"):
            assert verify_partition(pi, alpha, model), (alpha, model)


def test_monk_lemmas_past_s5():
    """The four cases of the pop lemma and the footprint lemma on two x and
    two m moves of each sampled permutation, every diagram of both models."""
    cases = {"pd": Counter(), "bpd": Counter()}
    for pi in _s7_s8_sample(19, 24, 40):
        rng = random.Random(str(pi))
        moves = [(pi, ("x", alpha)) for alpha in rng.sample(range(1, pi.size + 1), 2)]
        moves += [
            (pi.right_t(s, beta), ("m", s, beta))
            for s, beta in rng.sample(bruhat_covers(pi, pi.size + 1), 2)
        ]
        for base, move in moves:
            for d in [*enumerate_bpds(base), *enumerate_pipe_dreams(base)]:
                report = lemma_case_audit(d, move)
                assert report.passed(), (pi, report)
                cases[report.model][report.case] += 1
                if report.model == "pd":
                    apply = pd_x_insert if move[0] == "x" else pd_m_move
                    assert footprints_audit(apply(d, *move[1:])[1]), (pi, d, move)
    for model, seen in cases.items():
        assert set(seen) == {"x-low", "x-generic", "m-generic", "m-special"}, model
