"""Exhaustive consistency checks over a full symmetric group.

Each check returns (ok, detail); run_checks bundles them into the named
check groups used by the command line tool.  Everything here is exact and
deterministic except the ring axiom spot checks, which draw random small
polynomials from a seeded generator.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache
from typing import Callable, NamedTuple

from .bijection import phi, phi_inverse
from .bumpless import (
    BumplessPipeDream,
    PopResult,
    bpd_insert,
    bpd_pop,
    enumerate_bpds,
)
from .errors import InvalidSequenceError
from .monk import (
    bpd_m_move,
    bpd_x_insert,
    footprints_audit,
    pd_m_move,
    pd_x_insert,
)
from .perm import Permutation, is_bruhat_cover, monk_covers, symmetric_group
from .pipedream import PipeDream, enumerate_pipe_dreams
from .poly import SparsePolynomial, schubert_polynomial


class Model(NamedTuple):
    """One diagram model and the operations the harness applies to it.

    cls supplies from_json, to_json, perm and weight; enumerate(pi) gives
    every diagram of pi; pop(d) returns a PopResult; x(d, alpha) and
    m(d, s, beta) return the moved diagram with its MonkTrace.
    """

    name: str
    cls: type
    enumerate: Callable
    pop: Callable
    x: Callable
    m: Callable

    def apply(self, d, move):
        """The move ("x", alpha) or ("m", s, beta) on d."""
        return getattr(self, move[0])(d, *move[1:])


def _pd_pop(d: PipeDream) -> PopResult:
    (a, r), rest = d.pop()
    return PopResult(a, r, rest, None)


# The entries look the library functions up by name on every call, so a
# profiler that rebinds those module attributes also sees these calls.
MODELS = {
    "pd": Model(
        "pd",
        PipeDream,
        lambda pi: enumerate_pipe_dreams(pi),
        _pd_pop,
        lambda d, alpha: pd_x_insert(d, alpha),
        lambda d, s, beta: pd_m_move(d, s, beta),
    ),
    "bpd": Model(
        "bpd",
        BumplessPipeDream,
        lambda pi: enumerate_bpds(pi),
        lambda d: bpd_pop(d),
        lambda d, alpha: bpd_x_insert(d, alpha),
        lambda d, s, beta: bpd_m_move(d, s, beta),
    ),
}


def model_of(diagram) -> Model:
    """The MODELS entry whose class the diagram is an instance of."""
    for model in MODELS.values():
        if isinstance(diagram, model.cls):
            return model
    raise TypeError(f"not a diagram: {diagram!r}")


class Atlas:
    """One call's memos: diagrams(model, pi), schubert(pi, ambient) and
    image(b), phi of an enumerated grid keyed by its rows.  The phi of a
    move's output in commutes is not kept.  They call this module's names,
    which profilers and tests may rebind."""

    def __init__(self):
        self.diagrams = cache(lambda model, pi: MODELS[model].enumerate(pi))
        self.schubert = cache(lambda pi, ambient=None: schubert_polynomial(pi, ambient))
        self.images = {}

    def image(self, b: BumplessPipeDream):
        if b.rows not in self.images:
            self.images[b.rows] = phi(b)
        return self.images[b.rows]

    def monk_identity(self, pi: Permutation, alpha: int) -> bool:
        left, right = monk_covers(pi, alpha)
        lhs = SparsePolynomial.variable(alpha) * self.schubert(pi)
        for s in left:
            lhs = lhs + self.schubert(pi.right_t(s, alpha))
        rhs = SparsePolynomial.zero()
        for l in right:
            rhs = rhs + self.schubert(pi.right_t(alpha, l))
        return lhs == rhs

    def commutes(self, base: Permutation, move) -> bool:
        for b in self.diagrams("bpd", base):
            via_bpd = phi(MODELS["bpd"].apply(b, move)[0]).pipe_dream()
            via_pd = MODELS["pd"].apply(self.image(b).pipe_dream(), move)[0]
            if via_bpd != via_pd:
                return False
        return True

    def partitions(self, pi: Permutation, alpha: int, model: str) -> bool:
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}")
        ops = MODELS[model]
        left, right = monk_covers(pi, alpha)
        produced: Counter = Counter()
        for d in self.diagrams(model, pi):
            produced[ops.x(d, alpha)[0]] += 1
        for s in left:
            for d in self.diagrams(model, pi.right_t(s, alpha)):
                produced[ops.m(d, s, alpha)[0]] += 1
        expected: Counter = Counter()
        for l in right:
            for d in self.diagrams(model, pi.right_t(alpha, l)):
                expected[d] += 1
        return produced == expected


def _moves(n: int):
    """(pi, base, move, label) for each Monk move the checks make over S_n."""
    for pi in symmetric_group(n):
        for alpha in range(1, n + 1):
            yield pi, pi, ("x", alpha), f"alpha={alpha}"
        for s, beta in bruhat_covers(pi, n + 1):
            yield pi, pi.right_t(s, beta), ("m", s, beta), f"({s},{beta})"


def verify_monk_poly(pi: Permutation, alpha: int) -> bool:
    """x_alpha * S_pi + sum of lower cover terms equals the upper cover sum."""
    return Atlas().monk_identity(pi, alpha)


def verify_monk_commutation(pi: Permutation, alpha: int) -> bool:
    """phi intertwines the two x_alpha moves pointwise on diagrams of pi."""
    return Atlas().commutes(pi, ("x", alpha))


def verify_monk_commutation_m(pi: Permutation, s: int, beta: int) -> bool:
    """phi intertwines the two m_{s,beta} moves on diagrams of pi t_{s,beta}."""
    return Atlas().commutes(pi.right_t(s, beta), ("m", s, beta))


def bruhat_covers(pi: Permutation, bound: int | None = None) -> list[tuple[int, int]]:
    """All (s, beta) with s < beta <= bound and pi t_{s,beta} covering pi."""
    if bound is None:
        bound = max(pi.size, 1) + 1
    out = []
    for b in range(2, bound + 1):
        for s in range(1, b):
            if is_bruhat_cover(pi, s, b):
                out.append((s, b))
    return out


def verify_partition(pi: Permutation, alpha: int, model: str) -> bool:
    """The move images partition the diagrams of the upper covers exactly."""
    return Atlas().partitions(pi, alpha, model)


class AuditReport:
    """Outcome of one case audit: a case label and named clause results."""

    __slots__ = ("model", "case", "checks")

    def __init__(self, model, case, checks):
        self.model = model
        self.case = case
        self.checks = checks

    def passed(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    def __repr__(self) -> str:
        return f"AuditReport({self.model}, {self.case}, {self.checks!r})"


def _clause(name, ok, detail=""):
    return (name, "pass" if ok else "fail", detail)


def _descent_m(ops: Model, d, k: int):
    """The m move at rho^-1(k+1), rho^-1(k) on d, where rho is the
    permutation of d, when k is a left descent of rho; else d itself."""
    rho = d.perm()
    if k not in rho.left_descents():
        return d
    inv = rho.inverse()
    return ops.m(d, inv(k + 1), inv(k))[0]


def lemma_case_audit(diagram, move) -> AuditReport:
    """Check how one insertion move commutes with one pop step.

    move is ("x", alpha) or ("m", s, beta).  The four cases:

    * m, generic: pop keeps (i, r) or shifts to (i+1, r) according to
      whether i descends in the permutation of m applied to the popped
      diagram, and the popped results match up to one more m move.
    * m, special (the moved positions are exactly where the popped letter
      acts): pop always shifts to (i+1, r).
    * x with alpha >= r: same dichotomy as the generic m case.
    * x with alpha < r: pop returns (alpha, alpha) and popping undoes the
      insertion exactly.

    A ValueError from the m move on the popped diagram skips the audit, and
    one from the follow-up m move of the x path skips its nabla clause.
    """
    ops = model_of(diagram)
    if move[0] == "m":
        _, s, beta = move
        sigma = diagram.perm()
        pi = sigma.right_t(s, beta)
        if not is_bruhat_cover(pi, s, beta):
            raise ValueError("move is not a cover of its base")
    elif move[0] == "x":
        _, alpha = move
        if diagram.perm().is_identity():
            raise ValueError("nothing to pop on an identity diagram")
    else:
        raise ValueError(f"unknown move {move!r}")
    moved = ops.apply(diagram, move)[0]
    first, second = ops.pop(diagram), ops.pop(moved)
    i, r, nabla = first.a, first.r, first.result
    i2, r2, nabla_moved = second.a, second.r, second.result
    checks = []
    if move[0] == "m" and {s, beta} == {pi.inverse()(i), pi.inverse()(i + 1)}:
        case = "m-special"
        checks.append(_clause("pop", (i2, r2) == (i + 1, r), f"got {(i2, r2)}"))
        checks.append(_clause("nabla", nabla_moved == _descent_m(ops, nabla, i + 1)))
    elif move[0] == "x" and alpha < r:
        case = "x-low"
        checks.append(
            _clause("pop", (i2, r2) == (alpha, alpha), f"got {(i2, r2)}")
        )
        checks.append(_clause("nabla", nabla_moved == diagram))
    else:
        case = move[0] + "-generic"
        try:
            up = ops.apply(nabla, move)[0]
        except ValueError as exc:
            if move[0] == "x":
                raise
            return AuditReport(ops.name, case, [("m-on-popped", "skip", str(exc))])
        descends = i in up.perm().left_descents()
        want = (i + 1, r) if descends else (i, r)
        checks.append(_clause("pop", (i2, r2) == want, f"got {(i2, r2)}"))
        try:
            expected = _descent_m(ops, up, i + 1) if descends else up
        except ValueError as exc:
            if move[0] == "m":
                raise
            checks.append(("nabla", "skip", str(exc)))
            return AuditReport(ops.name, case, checks)
        checks.append(_clause("nabla", nabla_moved == expected))
    return AuditReport(ops.name, case, checks)


def _triple_agreement(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    for pi in symmetric_group(n):
        s = atlas.schubert(pi)
        for model in MODELS:
            total = SparsePolynomial.zero()
            for d in atlas.diagrams(model, pi):
                total = total + d.weight()
            if total != s:
                return False, f"disagreement at {pi}"
    return True, f"all {len(list(symmetric_group(n)))} permutations agree"


def _monk_poly(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    count = 0
    for pi in symmetric_group(n):
        for alpha in range(1, n + 2):
            if not atlas.monk_identity(pi, alpha):
                return False, f"failure at {pi}, alpha={alpha}"
            count += 1
    return True, f"{count} instances hold"


def _stability(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    for pi in symmetric_group(n):
        if atlas.schubert(pi, n + 2) != atlas.schubert(pi):
            return False, f"ambient change alters the polynomial at {pi}"
    return True, "polynomials independent of the ambient size"


def _poly_ring(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    rng = random.Random(seed if seed is not None else 0)

    def rand_poly():
        p = SparsePolynomial.zero()
        for _ in range(rng.randrange(4)):
            exps = [rng.randrange(3) for _ in range(rng.randrange(3))]
            p = p + SparsePolynomial.monomial(exps, rng.randrange(-3, 4))
        return p

    for _ in range(50):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        if (a + b) * c != a * c + b * c:
            return False, "distributivity failed"
        if a * b != b * a or a + b != b + a:
            return False, "commutativity failed"
        if (a * b) * c != a * (b * c):
            return False, "associativity failed"
        if a - a != SparsePolynomial.zero():
            return False, "subtraction failed"
    return True, "ring axioms hold on random samples"


def _bijection(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    pairs = 0
    for pi in symmetric_group(n):
        bpds = atlas.diagrams("bpd", pi)
        pds = atlas.diagrams("pd", pi)
        image = {}
        for b in bpds:
            d = atlas.image(b).pipe_dream()
            if d in image:
                return False, f"phi not injective at {pi}"
            if d.weight() != b.weight():
                return False, f"phi changes a weight at {pi}"
            image[d] = b
        if set(image) != pds:
            return False, f"phi image misses diagrams at {pi}"
        for d in pds:
            if phi(phi_inverse(d)).pipe_dream() != d:
                return False, f"phi_inverse not inverse at {pi}"
        pairs += len(bpds)
    return True, f"bijective on {pairs} diagrams"


def _compatible(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    count = 0
    for pi in symmetric_group(n):
        for b in atlas.diagrams("bpd", pi):
            seq = atlas.image(b).sequence
            try:
                seq.validate()
            except InvalidSequenceError as exc:
                return False, f"invalid sequence at {pi}: {exc}"
            if seq.permutation() != pi:
                return False, f"sequence permutation mismatch at {pi}"
            count += 1
    return True, f"{count} sequences valid"


def _roundtrip(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    count = 0
    for pi in symmetric_group(n):
        if pi.is_identity():
            continue
        for b in atlas.diagrams("bpd", pi):
            res = bpd_pop(b)
            back = bpd_insert(res.result, res.a, res.r)
            if back != b:
                return False, f"insert does not undo pop at {pi}"
            count += 1
    return True, f"{count} pop/insert round trips"


def _commutation(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    runs = 0
    for pi, base, move, label in _moves(n):
        if not atlas.commutes(base, move):
            return False, f"{move[0]} move disagreement at {pi}, {label}"
        runs += 1
    return True, f"{runs} move families commute with phi"


def _partition(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    for pi in symmetric_group(n):
        for alpha in range(1, n + 1):
            for model in MODELS:
                if not atlas.partitions(pi, alpha, model):
                    return (
                        False,
                        f"partition fails at {pi}, alpha={alpha}, {model}",
                    )
    return True, "images partition the upper cover diagrams"


def _lemmas(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    audited = 0
    skipped = 0
    for pi, base, move, label in _moves(n):
        if move[0] == "x" and pi.is_identity():
            continue
        for model in MODELS:
            for d in atlas.diagrams(model, base):
                report = lemma_case_audit(d, move)
                if not report.passed():
                    return False, f"{report!r} at {pi}"
                audited += 1
                skipped += sum(
                    1 for c in report.checks if c[1] == "skip"
                )
    return True, f"{audited} audits pass ({skipped} clauses skipped)"


def _footprints(n: int, seed, atlas: Atlas) -> tuple[bool, str]:
    runs = 0
    for pi, base, move, label in _moves(n):
        for d in atlas.diagrams("pd", base):
            if not footprints_audit(MODELS["pd"].apply(d, move)[1]):
                return False, f"repeated footprint at {pi}, {label}"
            runs += 1
    return True, f"{runs} moves leave distinct footprints"


CHECK_GROUPS = {
    "poly": ("triple_agreement", "monk_poly", "stability", "poly_ring"),
    "diagrams": ("bijection", "compatible", "roundtrip", "commutation", "partition"),
    "lemmas": ("lemmas",),
    "footprints": ("footprints",),
}


def run_checks(n: int, which: str = "all", seed=None) -> dict:
    """Run the named check group over the symmetric group of size n.

    The check called name in CHECK_GROUPS is _name(n, seed, atlas).
    Returns {check_name: (ok, detail)}.  A check that raises fails with the
    detail "raised <exception type>: <message>", and the others still run.
    """
    if which == "all":
        names = [name for group in CHECK_GROUPS.values() for name in group]
    elif which in CHECK_GROUPS:
        names = list(CHECK_GROUPS[which])
    else:
        raise ValueError(f"unknown check group {which!r}")
    atlas = Atlas()
    results = {}
    for name in names:
        try:
            results[name] = globals()["_" + name](n, seed, atlas)
        except Exception as exc:
            results[name] = (False, f"raised {type(exc).__name__}: {exc}")
    return results
