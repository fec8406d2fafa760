"""Seeded inputs, timed operations and correctness checks per workload.

Each workload has two halves.  ``setup_<name>(rng, sizes, lib)`` runs in a
set-up process: it draws the inputs from the seed, may enumerate diagrams
with the library, and returns plain JSON data (permutation words, diagram
payloads, cross lists).  ``<Name>(data, lib, tracer, caches)`` runs in the
measuring process and turns that data into *groups*: each group is a list of
operations plus a check that runs after them, outside the timed spans.

Inputs are selected by their properties (n, Coxeter length, reduced word
count, diagram count), never by how long they take.  Word and diagram counts
come from the recursions below, which are independent of the package.
"""

from __future__ import annotations

import gc
import itertools
import operator
from collections import Counter
from functools import lru_cache, reduce

ANCHOR_SMALL = (2, 1, 5, 3, 7, 4, 6)  # 2153746: 75 diagrams, length 5
ANCHOR_LARGE = (2, 1, 7, 8, 6, 5, 3, 4)  # 21786534: 1315 diagrams, 120120 words

# A permutation is word-bound when it has at least this many reduced words
# per diagram.  Pipe dream enumeration costs about one unit per reduced word
# and bumpless enumeration about 60 units per diagram on S8, so the regime
# says which enumerator carries the work.
WORD_BOUND_RATIO = 64

SIZES = {
    "full": {
        "enumerate": {
            "anchors": [ANCHOR_SMALL, ANCHOR_LARGE],
            # (n, Coxeter length, regime): each regime at the lengths where
            # S7 and S8 have at least 50 members in its band.
            "strata": [
                (7, 10, "word"), (7, 11, "word"), (8, 11, "word"),
                (7, 9, "diagram"), (7, 10, "diagram"), (8, 10, "diagram"),
            ],
            "word_band": (500, 1000),
            "diagram_band": (8, 16),
            "quota": 27,  # per stratum
        },
        "bijection": {
            "all_of": ANCHOR_SMALL,
            "prefix_of": ANCHOR_LARGE,
            "prefix": 120,
            # 2153746's 75 diagrams are three quarters of a pass, so the
            # median op lies well inside that fixed set, not at its edge, and
            # does not move with the seed.  A pass of 102 ops keeps p90.
            "from_prefix": 15,
            "strata": [(7, 10), (8, 12)],
            "diagram_band": (10, 40),
            "quota": 2,  # permutations per stratum
            "per_perm": 3,
        },
        # (n, length, moves per model, permutations).  A pass stays under
        # 1000 ops, so the tail is p95: the top 1% of moves came from too few
        # inputs to be steady.  The S7 stratum is all 7 members of its band,
        # since its slowest moves set the tail; the seed picks the S6 pair.
        "monk": {"strata": [(6, 6, (70, 90), 2), (7, 5, (100, 130), 7)]},
        "verify": {"n": 3, "passes": 40},
    },
    "smoke": {
        "enumerate": {
            "anchors": [],
            "strata": [(5, 8, "word"), (5, 8, "diagram")],
            "word_band": (1, 10**6),
            "diagram_band": (1, 10**6),
            "quota": 2,
        },
        "bijection": {
            "all_of": (2, 1, 4, 3),
            "prefix_of": (1, 4, 3, 2),
            "prefix": 4,
            "from_prefix": 2,
            "strata": [(4, 3)],
            "diagram_band": (1, 10),
            "quota": 2,
            "per_perm": 2,
        },
        "monk": {"strata": [(4, 2, (1, 100), 2)]},
        "verify": {"n": 2, "passes": 20},
    },
}


# ---------------------------------------------------------------------------
# Permutation properties, independent of the package


def trim(w) -> tuple[int, ...]:
    w = tuple(w)
    while w and w[-1] == len(w):
        w = w[:-1]
    return w


def length(w) -> int:
    return sum(1 for i, j in itertools.combinations(range(len(w)), 2) if w[i] > w[j])


def _swap(w, i, j) -> tuple[int, ...]:
    u = list(w)
    u[i - 1], u[j - 1] = u[j - 1], u[i - 1]
    return trim(u)


@lru_cache(maxsize=None)
def count_words(w: tuple[int, ...]) -> int:
    """Number of reduced words, by peeling right descents."""
    if not w:
        return 1
    return sum(
        count_words(_swap(w, i, i + 1)) for i in range(1, len(w)) if w[i - 1] > w[i]
    )


@lru_cache(maxsize=None)
def count_diagrams(w: tuple[int, ...]) -> int:
    """Number of pipe dreams, the Schubert polynomial at x = (1, 1, ...).

    Lascoux-Schutzenberger transition: with r the last descent of w, s the
    last position after r holding a smaller value and v = w t_{rs},
    S_w = x_r S_v + sum of S_{v t_{qr}} over q < r with l(v t_{qr}) = l(w).
    """
    if not w:
        return 1
    n = len(w)
    r = max(i for i in range(1, n) if w[i - 1] > w[i])
    s = max(j for j in range(r + 1, n + 1) if w[j - 1] < w[r - 1])
    v = list(w)
    v[r - 1], v[s - 1] = v[s - 1], v[r - 1]
    total = count_diagrams(trim(v))
    for q in range(1, r):
        lo, hi = v[q - 1], v[r - 1]
        if lo < hi and not any(lo < v[k - 1] < hi for k in range(q + 1, r)):
            total += count_diagrams(_swap(v, q, r))
    return total


def properties(w) -> dict:
    w = trim(w)
    words, diagrams = count_words(w), count_diagrams(w)
    return {
        "word": list(w),
        "n": len(w),
        "length": length(w),
        "words": words,
        "diagrams": diagrams,
        "regime": "word" if words >= WORD_BOUND_RATIO * diagrams else "diagram",
    }


def of_length(n: int, ell: int) -> list[dict]:
    """Properties of every permutation of S_n moving n, with Coxeter length ell."""

    def codes(i, left):
        if i == n:
            if left == 0:
                yield ()
            return
        for c in range(min(n - 1 - i, left) + 1):
            for rest in codes(i + 1, left - c):
                yield (c,) + rest

    out = []
    for code in codes(0, ell):
        avail = list(range(1, n + 1))
        w = tuple(avail.pop(c) for c in code)
        if w[-1] != n:
            out.append(properties(w))
    return out


def stratified(rng, pool, key, k) -> list[dict]:
    """One member from each of k equal blocks of the pool sorted by key.

    Each seed then draws the same spread of the key, so the cost of a pass
    varies far less between seeds than with k independent draws.
    """
    if len(pool) < k:
        raise ValueError(f"only {len(pool)} candidates for {k} draws")
    pool = sorted(pool, key=lambda p: (key(p), p["word"]))
    cuts = [round(i * len(pool) / k) for i in range(k + 1)]
    return [rng.choice(pool[cuts[i]:cuts[i + 1]]) for i in range(k)]


def _in(band, value) -> bool:
    return band[0] <= value <= band[1]


def cold_start(caches) -> None:
    """Empty the package's caches, and collect garbage so that one op's
    leftovers (21786534 leaves about 100 MB) are not charged to the next."""
    for cache in caches:
        cache.cache_clear()
    gc.collect()


def _poly_sum(polys, zero):
    return reduce(operator.add, polys, zero)


# ---------------------------------------------------------------------------
# enumerate: one op is one permutation query with cold caches.


def setup_enumerate(rng, sz, lib) -> dict:
    inputs = [dict(properties(a), source="anchor") for a in sz["anchors"]]
    for n, ell, regime in sz["strata"]:
        key, band = regime + "s", sz[regime + "_band"]
        fits = [p for p in of_length(n, ell) if p["regime"] == regime and _in(band, p[key])]
        for p in stratified(rng, fits, lambda p: p[key], sz["quota"]):
            inputs.append(dict(p, source="sample"))
    rng.shuffle(inputs)
    return {"inputs": inputs}


class Enumerate:
    """schubert_polynomial, enumerate_pipe_dreams and enumerate_bpds per input."""

    def __init__(self, data, lib, tracer, caches):
        self.inputs = data["inputs"]
        self.lib, self.caches = lib, caches

    def groups(self, counters):
        lib = self.lib
        for inp in self.inputs:

            def op(word=inp["word"]):
                pi = lib.Permutation(word)
                return (
                    lib.schubert_polynomial(pi),
                    lib.enumerate_pipe_dreams(pi),
                    lib.enumerate_bpds(pi),
                )

            def check(results, inp=inp):
                poly, pds, bpds = results[0]
                zero = lib.SparsePolynomial.zero()
                words = len(lib.reduced_words(lib.Permutation(inp["word"])))
                counters["words"] += words
                counters["distinct_words"] += len({d.word() for d in pds})
                return (
                    poly == _poly_sum((d.weight() for d in pds), zero)
                    == _poly_sum((d.weight() for d in bpds), zero)
                    and len(pds) == len(bpds) == inp["diagrams"]
                    and words == inp["words"]
                )

            yield inp["regime"], [op], check, lambda: cold_start(self.caches)


# ---------------------------------------------------------------------------
# bijection: one op is one diagram round trip through phi and phi_inverse.


def setup_bijection(rng, sz, lib) -> dict:
    def diagrams_of(w, source, keep):
        pi = lib.Permutation(w)
        bpds = sorted(lib.enumerate_bpds(pi), key=lambda b: b.rows)
        pds = sorted(sorted(d.crosses) for d in lib.enumerate_pipe_dreams(pi))
        chosen = bpds if keep is None else rng.sample(bpds, min(keep, len(bpds)))
        return {
            "props": dict(properties(w), source=source),
            "payloads": [b.to_json() for b in chosen],
            "pd_set": pds,
        }

    perms = [diagrams_of(sz["all_of"], "all_of", None)]
    gen = lib.iter_bpds(lib.Permutation(sz["prefix_of"]))
    prefix = sorted(itertools.islice(gen, sz["prefix"]), key=lambda b: b.rows)
    perms.append({
        "props": dict(properties(sz["prefix_of"]), source="prefix_of"),
        "payloads": [b.to_json() for b in rng.sample(prefix, sz["from_prefix"])],
        "pd_set": None,
    })
    for n, ell in sz["strata"]:
        fits = [p for p in of_length(n, ell) if _in(sz["diagram_band"], p["diagrams"])]
        for p in stratified(rng, fits, lambda p: p["diagrams"], sz["quota"]):
            perms.append(diagrams_of(p["word"], "sample", sz["per_perm"]))
    return {"perms": perms}


class Bijection:
    """from_json, phi, pipe_dream and phi_inverse on one diagram payload."""

    def __init__(self, data, lib, tracer, caches):
        self.perms = data["perms"]
        self.inputs = [p["props"] for p in self.perms]
        self.pd_sets = [
            None if p["pd_set"] is None else {tuple(map(tuple, c)) for c in p["pd_set"]}
            for p in self.perms
        ]
        self.lib = lib

    def groups(self, counters):
        lib = self.lib
        for perm, pd_set in zip(self.perms, self.pd_sets):
            word = tuple(perm["props"]["word"])
            for payload in perm["payloads"]:

                def op(payload=payload):
                    b = lib.BumplessPipeDream.from_json(payload)
                    res = lib.phi(b)
                    d = res.pipe_dream()
                    return b, res, d, lib.phi_inverse(d)

                def check(results, pd_set=pd_set, word=word):
                    b, res, d, back = results[0]
                    res.sequence.validate()
                    return (
                        back == b
                        and d.weight() == b.weight()
                        and res.sequence.permutation().word == word
                        and (pd_set is None or tuple(sorted(d.crosses)) in pd_set)
                    )

                yield perm["props"]["source"], [op], check, None


# ---------------------------------------------------------------------------
# monk: one op is one x or m move on a pipe dream and a bumpless diagram,
# grouped per (pi, alpha).


def _pd_key(crosses) -> tuple:
    return tuple(sorted(tuple(c) for c in crosses))


def lower_covers(w, alpha) -> list[int]:
    """The s < alpha with w t_{s,alpha} covering w in Bruhat order."""
    ell = length(w)
    w = list(w) + list(range(len(w) + 1, alpha + 1))
    return [s for s in range(1, alpha) if length(_swap(w, s, alpha)) == ell + 1]


def monk_ops(p) -> int:
    """Moves per model on p: an x move per (alpha, diagram of p) and an m move
    per (lower cover (s, alpha), diagram of the cover), over alpha <= n."""
    w = tuple(p["word"])
    return sum(
        p["diagrams"] + sum(count_diagrams(_swap(w, s, alpha)) for s in lower_covers(w, alpha))
        for alpha in range(1, p["n"] + 1)
    )


def setup_monk(rng, sz, lib) -> dict:
    diagrams: dict[str, dict] = {}

    def enumerated(pi) -> str:
        name = str(pi)
        if name not in diagrams:
            bpds = sorted(lib.enumerate_bpds(pi), key=lambda b: b.rows)
            diagrams[name] = {
                "pd": sorted(sorted(d.crosses) for d in lib.enumerate_pipe_dreams(pi)),
                "bpd": [b.to_json() for b in bpds],
                "bpd_keys": [list(b.trim().rows) for b in bpds],
            }
        return name

    inputs, cases = [], []
    for n, ell, band, quota in sz["strata"]:
        fits = [p for p in of_length(n, ell) if _in(band, monk_ops(p))]
        for p in stratified(rng, fits, monk_ops, quota):
            inputs.append(dict(p, moves_per_model=monk_ops(p)))
            pi = lib.Permutation(p["word"])
            for alpha in range(1, n + 1):
                left, right = lib.monk_covers(pi, alpha)
                cases.append({
                    "n": n,
                    "alpha": alpha,
                    "x": enumerated(pi),
                    "m": [[s, enumerated(pi.right_t(s, alpha))] for s in left],
                    "expected": [enumerated(pi.right_t(alpha, l)) for l in right],
                })
    return {"inputs": inputs, "cases": cases, "diagrams": diagrams}


class Monk:
    """Monk moves on diagram payloads, one move in both models per op.

    A permutation has as many pipe dreams as bumpless pipe dreams, so each
    op pairs the i-th pipe dream with the i-th bumpless diagram (in set-up
    order) and applies the same move to both: pd_x_insert and bpd_x_insert,
    or pd_m_move and bpd_m_move.  One op per move pair keeps the latency
    distribution unimodal, where one op per move would split it into a fast
    pipe dream half and a slow bumpless half with the median between them.
    """

    def __init__(self, data, lib, tracer, caches):
        self.inputs, self.cases, self.diagrams = data["inputs"], data["cases"], data["diagrams"]
        self.lib = lib

    def groups(self, counters):
        lib = self.lib
        for case in self.cases:
            ops = []
            for s, name in [(None, case["x"])] + case["m"]:
                ds = self.diagrams[name]
                for crosses, payload in zip(ds["pd"], ds["bpd"], strict=True):

                    def op(c=crosses, p=payload, s=s, a=case["alpha"]):
                        d = lib.PipeDream(map(tuple, c))
                        b = lib.BumplessPipeDream.from_json(p)
                        if s is None:
                            return lib.pd_x_insert(d, a), lib.bpd_x_insert(b, a)
                        return lib.pd_m_move(d, s, a), lib.bpd_m_move(b, s, a)

                    ops.append(op)
            expected = [self.diagrams[name] for name in case["expected"]]

            def check(results, expected=expected):
                pds = [pd for pd, _ in results]
                bpds = [bpd for _, bpd in results]
                counters["pd_steps"] += sum(len(tr.steps) for _, tr in pds)
                counters["bpd_steps"] += sum(len(tr.steps) for _, tr in bpds)
                return Counter(tuple(sorted(out.crosses)) for out, _ in pds) == Counter(
                    _pd_key(c) for ds in expected for c in ds["pd"]
                ) and Counter(out.trim().rows for out, _ in bpds) == Counter(
                    tuple(k) for ds in expected for k in ds["bpd_keys"]
                )

            yield f"S{case['n']}", ops, check, None


# ---------------------------------------------------------------------------
# verify: one op is one cold pass of run_checks over every check group.


def setup_verify(rng, sz, lib) -> dict:
    return {"n": sz["n"], "seeds": [rng.randrange(2**31) for _ in range(sz["passes"])]}


class Verify:
    """run_checks(n, group) for each group in order, caches cleared first.

    A pass over the inputs is one verification per seed; the seed feeds the
    randomised ring axiom checks.
    """

    def __init__(self, data, lib, tracer, caches):
        self.n, self.seeds = data["n"], data["seeds"]
        self.inputs = [{"n": self.n, "groups": list(lib.verify.CHECK_GROUPS),
                        "seeds": len(self.seeds)}]
        self.lib, self.tracer, self.caches = lib, tracer, caches

    def groups(self, counters):
        lib, tracer = self.lib, self.tracer

        def check(results):
            return all(ok for ok, _ in results[0].values())

        for seed in self.seeds:

            def op(seed=seed):
                results = {}
                for group in lib.verify.CHECK_GROUPS:
                    with tracer.span("verify." + group):
                        results.update(lib.run_checks(self.n, group, seed=seed))
                return results

            yield "pass", [op], check, lambda: cold_start(self.caches)


WORKLOADS = {
    "enumerate": (setup_enumerate, Enumerate),
    "bijection": (setup_bijection, Bijection),
    "monk": (setup_monk, Monk),
    "verify": (setup_verify, Verify),
}
