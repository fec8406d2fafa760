"""Exhaustive consistency checks over a full symmetric group.

run_checks runs the named check groups used by the command line tool and
gives each check's (ok, detail).  Everything here is exact and
deterministic except the ring axiom spot checks, which draw random small
polynomials from a seeded generator.
"""

from __future__ import annotations

import random
from collections import Counter
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
from .pipedream import CompatibleSequence, PipeDream, enumerate_pipe_dreams
from .poly import SparsePolynomial, schubert_polynomial


class Model(NamedTuple):
    """One diagram model and the operations the harness applies to it.

    cls supplies from_json, to_json, perm and weight; enumerate(pi) gives
    every diagram of pi, and order(d) the key they are listed by: a grid's
    rows, or a pipe dream's crosses in reading order, as to_json gives
    them; pop(d) returns a PopResult; x(d, alpha) and m(d, s, beta) return
    the moved diagram with its MonkTrace.
    """

    name: str
    cls: type
    enumerate: Callable
    order: Callable
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
        lambda d: d.sorted_crosses(),
        _pd_pop,
        lambda d, alpha: pd_x_insert(d, alpha),
        lambda d, s, beta: pd_m_move(d, s, beta),
    ),
    "bpd": Model(
        "bpd",
        BumplessPipeDream,
        lambda pi: enumerate_bpds(pi),
        lambda b: b.rows,
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


def _key(diagram):
    """A diagram's exact content: a bumpless grid's rows, or a pipe dream's
    crosses."""
    return diagram.rows if isinstance(diagram, BumplessPipeDream) else diagram.crosses


def _reach(key) -> tuple[int, int]:
    """The Coxeter length of a permutation, or of the diagram of a key, and
    the least n with it in S_n.  A pipe dream has one cross per inversion,
    the cross (r, c) being the letter r + c - 1; a bumpless grid one blank
    per inversion, and the library builds it trimmed, on n x n tiles."""
    if isinstance(key, Permutation):
        return key.length(), key.size
    if isinstance(key, frozenset):
        return len(key), max((r + c for r, c in key), default=1)
    return "".join(key).count("."), len(key)


class Atlas:
    """One call's memo, a table per kind, each entry filled on first use:
    diagrams(model, pi) under the model's name, schubert(pi), and the
    library's image(b) (phi), pop(d) and each move of one diagram, keyed by
    its exact rows or crosses, with a table per move.  An entry keeps only
    what the checks read: a pop's letter, row and result, a move's output
    and, for a pipe dream, whether its complete footprints are distinct,
    and phi's compatible sequence.  The "held" table gives the one object
    the atlas returns per diagram.  One forgetting rule, forget(l, n),
    drops what no check at a longer permutation of S_n reads.  The memo
    calls this module's names, which profilers and tests may rebind."""

    def __init__(self):
        self._memo = {}  # kind -> {input: value}; no value is None

    def _get(self, kind, key, make):
        table = self._memo.setdefault(kind, {})
        value = table.get(key)
        if value is None:
            value = table[key] = make()
        return value

    def _hold(self, diagram):
        return self._get("held", _key(diagram), lambda: diagram)

    def diagrams(self, model: str, pi: Permutation) -> tuple:
        """The diagrams of pi in the model's order, the order enum lists,
        so that every process visits them in one order."""

        def make():
            ops = MODELS[model]
            return tuple(sorted(map(self._hold, ops.enumerate(pi)), key=ops.order))

        return self._get(model, pi, make)

    def schubert(self, pi: Permutation) -> SparsePolynomial:
        return self._get("schubert", pi, lambda: schubert_polynomial(pi))

    def image(self, b: BumplessPipeDream) -> CompatibleSequence:
        """The compatible sequence of phi(b)."""
        return self._get("image", b.rows, lambda: phi(b).sequence)

    def pop(self, diagram) -> tuple:
        """(a, r, result) of the model's pop of diagram."""

        def make():
            res = model_of(diagram).pop(diagram)
            return res.a, res.r, self._hold(res.result)

        return self._get("pop", _key(diagram), make)

    def move(self, diagram, move) -> tuple:
        """The output of the model's move on diagram, and whether its
        complete footprints are distinct (None on a bumpless grid)."""

        def make():
            ops = model_of(diagram)
            out, trace = ops.apply(diagram, move)
            distinct = footprints_audit(trace) if ops.name == "pd" else None
            return self._hold(out), distinct

        return self._get(move, _key(diagram), make)

    def forget(self, level: int, n: int) -> None:
        """Keep only what a check at a longer permutation of S_n reads: the
        entries of permutations of S_n longer than level, the m moves of
        every diagram longer than level, and the x moves and held diagrams
        of S_n of length level.  A lemma audit pops the diagrams it moves,
        then moves what it popped."""

        def kept(kind, key):
            length, size = _reach(key)
            if kind == "held" or kind[:1] == ("x",):
                return length >= level and size <= n
            return length > level and size <= (n + 1 if kind[:1] == ("m",) else n)

        self._memo = {
            kind: {k: v for k, v in table.items() if kept(kind, k)}
            for kind, table in self._memo.items()
        }

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
            via_bpd = self.image(self.move(b, move)[0]).to_pipe_dream()
            via_pd = self.move(self._hold(self.image(b).to_pipe_dream()), move)[0]
            if via_bpd != via_pd:
                return False
        return True

    def partitions(self, pi: Permutation, alpha: int, model: str) -> bool:
        left, right = monk_covers(pi, alpha)
        produced: Counter = Counter()
        for d in self.diagrams(model, pi):
            produced[self.move(d, ("x", alpha))[0]] += 1
        for s in left:
            for d in self.diagrams(model, pi.right_t(s, alpha)):
                produced[self.move(d, ("m", s, alpha))[0]] += 1
        expected: Counter = Counter()
        for l in right:
            for d in self.diagrams(model, pi.right_t(alpha, l)):
                expected[d] += 1
        return produced == expected

    def audit(self, diagram, move) -> "AuditReport":
        """lemma_case_audit(diagram, move) through this atlas: the case, then
        a pop and a nabla clause, each "pass" or "fail"."""
        name = model_of(diagram).name
        kind, *args = move
        # The pop rejects an identity diagram, and the m move a non-cover.
        i, r, nabla = self.pop(diagram)
        moved = self.move(diagram, move)[0]
        i2, r2, nabla_moved = self.pop(moved)
        # An m move's base is perm(diagram) t_{s,beta}.
        if kind == "m" and set(args) == set(
            map(diagram.perm().right_t(*args).inverse(), (i, i + 1))
        ):
            case, want = "m-special", (i + 1, r)
            expected = self._descent_m(nabla, i + 1)
        elif kind == "x" and args[0] < r:
            case, want, expected = "x-low", (args[0], args[0]), diagram
        else:
            case = kind + "-generic"
            up = self.move(nabla, move)[0]
            if i in up.perm().left_descents():
                want, expected = (i + 1, r), self._descent_m(up, i + 1)
            else:
                want, expected = (i, r), up
        return AuditReport(name, case, [
            _clause("pop", (i2, r2) == want, f"got {(i2, r2)}"),
            _clause("nabla", nabla_moved == expected),
        ])

    def _descent_m(self, d, k: int):
        """The m move at rho^-1(k+1), rho^-1(k) on d, where rho is the
        permutation of d, when k is a left descent of rho; else d itself."""
        rho = d.perm()
        if k not in rho.left_descents():
            return d
        inv = rho.inverse()
        return self.move(d, ("m", inv(k + 1), inv(k)))[0]


def _moves_at(pi: Permutation, n: int):
    """(base, move, label) for each Monk move the checks make at pi of S_n."""
    for alpha in range(1, n + 1):
        yield pi, ("x", alpha), f"alpha={alpha}"
    for s, beta in bruhat_covers(pi, n + 1):
        yield pi.right_t(s, beta), ("m", s, beta), f"({s},{beta})"


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
    pairs = ((s, b) for b in range(2, bound + 1) for s in range(1, b))
    return [(s, b) for s, b in pairs if is_bruhat_cover(pi, s, b)]


def verify_partition(pi: Permutation, alpha: int, model: str) -> bool:
    """The move images partition the diagrams of the upper covers exactly."""
    if model not in MODELS:
        raise ValueError(f"unknown model {model!r}")
    return Atlas().partitions(pi, alpha, model)


class AuditReport(NamedTuple):
    """Outcome of one case audit: a case label and named clauses, each
    (name, "pass" or "fail", detail)."""

    model: str
    case: str
    checks: list[tuple[str, str, str]]

    def passed(self) -> bool:
        return all(status != "fail" for _, status, _ in self.checks)

    def __repr__(self) -> str:
        return f"AuditReport({self.model}, {self.case}, {self.checks!r})"


def _clause(name, ok, detail=""):
    return (name, "pass" if ok else "fail", detail)


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

    A move or pop that raises, the m move on the popped diagram included,
    propagates: the lemma says each of them applies.  A move that is not a
    tuple ("x", int) or ("m", int, int) raises ValueError.
    """
    if not (
        isinstance(move, tuple)
        and len(move) == {("x",): 2, ("m",): 3}.get(move[:1])
        and all(type(a) is int for a in move[1:])  # a bool is an int too
    ):
        raise ValueError(f"unknown move {move!r}")
    return Atlas().audit(diagram, move)


# A check is _name(n, seed, atlas, pi): its cases at one permutation pi of
# S_n.  It returns the detail of its first failing case, or the count its
# cases add to the {} of the pass detail CHECKS[name][1], 0 if it has none.


def _triple_agreement(n: int, seed, atlas: Atlas, pi: Permutation):
    s = atlas.schubert(pi)
    for model in MODELS:
        total: Counter = Counter()
        for d in atlas.diagrams(model, pi):
            total.update(d.weight().terms)
        if SparsePolynomial(total) != s:
            return f"disagreement at {pi}"
    return 1


def _monk_poly(n: int, seed, atlas: Atlas, pi: Permutation):
    for alpha in range(1, n + 2):
        if not atlas.monk_identity(pi, alpha):
            return f"failure at {pi}, alpha={alpha}"
    return n + 1


def _stability(n: int, seed, atlas: Atlas, pi: Permutation):
    if schubert_polynomial(pi, n + 2) != atlas.schubert(pi):
        return f"ambient change alters the polynomial at {pi}"
    return 0


def _poly_ring(n: int, seed, atlas: Atlas, pi: Permutation):
    if not pi.is_identity():  # the samples are drawn once, at the identity
        return 0
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
            return "distributivity failed"
        if a * b != b * a or a + b != b + a:
            return "commutativity failed"
        if (a * b) * c != a * (b * c):
            return "associativity failed"
        if a - a != SparsePolynomial.zero():
            return "subtraction failed"
    return 0


def _bijection(n: int, seed, atlas: Atlas, pi: Permutation):
    bpds = atlas.diagrams("bpd", pi)
    pds = atlas.diagrams("pd", pi)
    image = {}
    for b in bpds:
        d = atlas.image(b).to_pipe_dream()
        if d in image:
            return f"phi not injective at {pi}"
        if d.weight() != b.weight():
            return f"phi changes a weight at {pi}"
        image[d] = b
    if set(image) != set(pds):
        return f"phi image misses diagrams at {pi}"
    for d in pds:
        if phi(phi_inverse(d)).pipe_dream() != d:
            return f"phi_inverse not inverse at {pi}"
    return len(bpds)


def _compatible(n: int, seed, atlas: Atlas, pi: Permutation):
    bpds = atlas.diagrams("bpd", pi)
    for b in bpds:
        seq = atlas.image(b)
        try:
            seq.validate()
        except InvalidSequenceError as exc:
            return f"invalid sequence at {pi}: {exc}"
        if seq.permutation() != pi:
            return f"sequence permutation mismatch at {pi}"
    return len(bpds)


def _roundtrip(n: int, seed, atlas: Atlas, pi: Permutation):
    if pi.is_identity():
        return 0
    bpds = atlas.diagrams("bpd", pi)
    for b in bpds:
        res = bpd_pop(b)
        back = bpd_insert(res.result, res.a, res.r)
        if back != b:
            return f"insert does not undo pop at {pi}"
    return len(bpds)


def _commutation(n: int, seed, atlas: Atlas, pi: Permutation):
    runs = 0
    for base, move, label in _moves_at(pi, n):
        if not atlas.commutes(base, move):
            return f"{move[0]} move disagreement at {pi}, {label}"
        runs += 1
    return runs


def _partition(n: int, seed, atlas: Atlas, pi: Permutation):
    for alpha in range(1, n + 1):
        for model in MODELS:
            if not atlas.partitions(pi, alpha, model):
                return f"partition fails at {pi}, alpha={alpha}, {model}"
    return 0


def _lemmas(n: int, seed, atlas: Atlas, pi: Permutation):
    audited = 0
    for base, move, label in _moves_at(pi, n):
        if move[0] == "x" and pi.is_identity():
            continue
        for model in MODELS:
            for d in atlas.diagrams(model, base):
                report = atlas.audit(d, move)
                if not report.passed():
                    return f"{report!r} at {pi}"
                audited += 1
    return audited


def _footprints(n: int, seed, atlas: Atlas, pi: Permutation):
    runs = 0
    for base, move, label in _moves_at(pi, n):
        for d in atlas.diagrams("pd", base):
            if not atlas.move(d, move)[1]:
                return f"repeated footprint at {pi}, {label}"
            runs += 1
    return runs


# name -> (check, pass detail formatted with the count summed over S_n)
CHECKS = {
    "triple_agreement": (_triple_agreement, "all {} permutations agree"),
    "monk_poly": (_monk_poly, "{} instances hold"),
    "stability": (_stability, "polynomials independent of the ambient size"),
    "poly_ring": (_poly_ring, "ring axioms hold on random samples"),
    "bijection": (_bijection, "bijective on {} diagrams"),
    "compatible": (_compatible, "{} sequences valid"),
    "roundtrip": (_roundtrip, "{} pop/insert round trips"),
    "commutation": (_commutation, "{} move families commute with phi"),
    "partition": (_partition, "images partition the upper cover diagrams"),
    "lemmas": (_lemmas, "{} audits pass (0 clauses skipped)"),
    "footprints": (_footprints, "{} moves leave distinct footprints"),
}

CHECK_GROUPS = {
    "poly": ("triple_agreement", "monk_poly", "stability", "poly_ring"),
    "diagrams": ("bijection", "compatible", "roundtrip", "commutation", "partition"),
    "lemmas": ("lemmas",),
    "footprints": ("footprints",),
}


def run_checks(n: int, which: str = "all", seed=None) -> dict:
    """Run the named check group over the symmetric group of size n.

    Returns {check_name: (ok, detail)}.  The checks of the group run
    together, one Coxeter length at a time: every check at each
    permutation of length 0, then of length 1, and so on, through one
    Atlas that forgets each length once it is done.  A check fails with
    the detail of its first failure in symmetric_group order; a check that
    raises there fails with the detail "raised <exception type>:
    <message>", and the other checks still run.
    """
    if n < 1:
        raise ValueError("group size must be positive")
    if which == "all":
        names = [name for group in CHECK_GROUPS.values() for name in group]
    elif which in CHECK_GROUPS:
        names = list(CHECK_GROUPS[which])
    else:
        raise ValueError(f"unknown check group {which!r}")
    levels = {}  # length -> [(position in symmetric_group, pi)]
    for position, pi in enumerate(symmetric_group(n)):
        levels.setdefault(pi.length(), []).append((position, pi))
    atlas = Atlas()
    failed = {}  # name -> (position, detail) of its first failure so far
    counts = dict.fromkeys(names, 0)
    for level in sorted(levels):
        for name in names:
            check = CHECKS[name][0]
            for position, pi in levels[level]:
                if name in failed and position > failed[name][0]:
                    break
                try:
                    out = check(n, seed, atlas, pi)
                except Exception as exc:
                    out = f"raised {type(exc).__name__}: {exc}"
                if isinstance(out, str):
                    failed[name] = (position, out)
                    break
                counts[name] += out
        atlas.forget(level, n)
    return {
        name: (False, failed[name][1])
        if name in failed
        else (True, CHECKS[name][1].format(counts[name]))
        for name in names
    }
