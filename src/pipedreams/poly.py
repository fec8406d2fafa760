"""Sparse integer polynomials in x1, x2, ... and Schubert polynomials.

Terms are kept in a normal form, a dict mapping exponent tuples without a
trailing 0 to nonzero integer coefficients: ``x1`` is ``{(1,): 1}`` and 0 is
``{}``.  The constructor brings any dict to it; the ring ops keep it, via _of.
Schubert polynomials come from one climb: ascent swaps take pi up in right
weak order to a dominant permutation u, whose Schubert polynomial is the
monomial x^code(u) (Macdonald, Notes on Schubert Polynomials, (4.7)), and
one divided difference per swap, in reverse order, comes back down to pi.
"""

from __future__ import annotations

from operator import add
from typing import Iterable, Mapping

from .errors import InvariantError
from .perm import Permutation


def _trim(exp: tuple[int, ...]) -> tuple[int, ...]:
    while exp and exp[-1] == 0:
        exp = exp[:-1]
    return exp


class SparsePolynomial:
    """A polynomial with integer coefficients in countably many variables.

    >>> x1 = SparsePolynomial.variable(1)
    >>> x2 = SparsePolynomial.variable(2)
    >>> str(x1 * x1 * x2 + x1 * x2)
    'x1^2*x2 + x1*x2'
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[int, ...], int] = ()):
        # Keys that trim to one exponent tuple add up; a zero sum is dropped.
        clean: dict[tuple[int, ...], int] = {}
        for exp, coef in dict(terms).items():
            exp = _trim(tuple(exp))
            coef += clean.pop(exp, 0)
            if coef:
                clean[exp] = coef
        self.terms = clean

    @classmethod
    def _of(cls, terms: dict[tuple[int, ...], int]) -> "SparsePolynomial":
        """The polynomial of terms, a dict already in normal form, unchecked."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls) -> "SparsePolynomial":
        return cls()

    @classmethod
    def variable(cls, i: int) -> "SparsePolynomial":
        if i < 1:
            raise ValueError("variables are numbered from 1")
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exponents: Iterable[int], coef: int = 1) -> "SparsePolynomial":
        return cls({tuple(exponents): coef})

    def __eq__(self, other) -> bool:
        return isinstance(other, SparsePolynomial) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        out = dict(self.terms)
        for exp, coef in other.terms.items():
            out[exp] = out.get(exp, 0) + coef
        return SparsePolynomial._of({e: c for e, c in out.items() if c})

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial._of({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + -other

    def __mul__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                # The pairwise sum, then the tail of the longer tuple.
                e = tuple(map(add, e1, e2)) + e1[len(e2):] + e2[len(e1):]
                if e and not e[-1]:  # negative exponents can cancel
                    e = _trim(e)
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePolynomial._of({e: c for e, c in out.items() if c})

    def swap_vars(self, i: int) -> "SparsePolynomial":
        """Exchange the variables x_i and x_{i+1} in every term."""
        if i < 1:
            raise ValueError("variables are numbered from 1")
        out: dict[tuple[int, ...], int] = {}
        for exp, coef in self.terms.items():
            if len(exp) <= i:
                exp += (0,) * (i + 1 - len(exp))
            e = exp[: i - 1] + (exp[i], exp[i - 1]) + exp[i + 1 :]
            out[e if e[-1] else _trim(e)] = coef
        return SparsePolynomial._of(out)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in sorted(self.terms.items(), reverse=True):
            factors = []
            for i, e in enumerate(exp, start=1):
                if e == 1:
                    factors.append(f"x{i}")
                elif e > 1:
                    factors.append(f"x{i}^{e}")
            mono = "*".join(factors)
            if not mono:
                parts.append(str(coef))
            elif coef == 1:
                parts.append(mono)
            elif coef == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coef}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.terms!r})"

    def to_json(self) -> dict:
        return {
            "terms": [
                {"exponents": list(exp), "coefficient": coef}
                for exp, coef in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "SparsePolynomial":
        terms = data.get("terms")
        if not isinstance(terms, list):
            raise ValueError("the field 'terms' must be a list of terms")
        out: dict[tuple[int, ...], int] = {}
        for term in terms:
            if not isinstance(term, dict):
                raise ValueError(f"each entry of 'terms' must be an object: {term!r}")
            for field in ("exponents", "coefficient"):
                if field not in term:
                    raise ValueError(f"a term has no field {field!r}: {term!r}")
            exp, coef = term["exponents"], term["coefficient"]
            # type() rather than isinstance: a bool is an int too.
            if not isinstance(exp, list) or not all(type(e) is int and e >= 0 for e in exp):
                raise ValueError(f"exponents must be non-negative integers: {term!r}")
            if type(coef) is not int:
                raise ValueError(f"a coefficient must be an integer: {term!r}")
            out[tuple(exp)] = out.get(tuple(exp), 0) + coef
        return cls(out)


def divided_difference(f: SparsePolynomial, i: int) -> SparsePolynomial:
    """The operator (f - swap_i f) / (x_i - x_{i+1}).

    The quotient is exact for every polynomial; each term of f is divided
    against its swapped partner via the telescoping identity
    x^a y^b - x^b y^a = (x - y) * sum over the staircase between a and b.
    The quotient is checked against swap_vars, coefficient by coefficient:
    f - swap_i f minus the quotient times x_i - x_{i+1} must tally to zero.
    """
    if i < 1:
        raise ValueError("variables are numbered from 1")
    out: dict[tuple[int, ...], int] = {}
    for exp, coef in f.terms.items():
        if len(exp) <= i:
            exp += (0,) * (i + 1 - len(exp))
        a, b = exp[i - 1], exp[i]
        if a == b:
            continue
        if a < b:
            a, b, coef = b, a, -coef
        head, tail = exp[: i - 1], exp[i + 1 :]
        # x^a y^b - x^b y^a = (x-y) * x^b y^b * (x^{a-b-1} + ... + y^{a-b-1})
        for d in range(a - b):
            key = head + (b + d, a - 1 - d) + tail
            if not key[-1]:
                key = _trim(key)
            out[key] = out.get(key, 0) + coef
    quotient = {e: c for e, c in out.items() if c}
    tally = dict(f.terms)
    for exp, coef in f.swap_vars(i).terms.items():
        tally[exp] = tally.get(exp, 0) - coef
    for exp, coef in quotient.items():
        if len(exp) <= i:
            exp += (0,) * (i + 1 - len(exp))
        head, a, b, tail = exp[: i - 1], exp[i - 1], exp[i], exp[i + 1 :]
        raised = (head + (a + 1, b) + tail, -coef), (head + (a, b + 1) + tail, coef)
        for key, c in raised:
            if not key[-1]:
                key = _trim(key)
            tally[key] = tally.get(key, 0) + c
    if any(tally.values()):
        raise InvariantError("divided difference not exact")
    return SparsePolynomial._of(quotient)


def staircase_monomial(n: int) -> SparsePolynomial:
    """x1^{n-1} x2^{n-2} ... x_{n-1}, the top Schubert polynomial of S_n."""
    if n < 1:
        raise ValueError("need n >= 1")
    return SparsePolynomial.monomial(tuple(range(n - 1, 0, -1)))


def _climb(pi: Permutation, n: int | None) -> tuple[list[int], list[int]]:
    """The Lehmer code of u and the swaps i1, ..., ik with pi s_i1 ... s_ik = u.

    Where code[i] <= code[i+1], pi(i) < pi(i+1), and swapping positions i,
    i+1 adds one to the length and makes the pair (code[i+1] + 1, code[i]).
    The climb steps back one position after each swap.  Without n it swaps
    only where code[i] < code[i+1], so u is dominant: its code weakly
    decreases.  With n it pads pi's word to length n and swaps every ascent,
    so u is the longest element of S_n, whose code is the staircase.
    """
    w = list(pi.word)
    if n is not None:
        w += range(len(w) + 1, n + 1)
    code = [sum(v < w[i] for v in w[i + 1:]) for i in range(len(w))]
    swaps: list[int] = []
    i = 0
    while i + 1 < len(code):
        if code[i] < code[i + 1] or (n is not None and code[i] == code[i + 1]):
            code[i], code[i + 1] = code[i + 1] + 1, code[i]
            swaps.append(i + 1)
            i = max(i - 1, 0)
        else:
            i += 1
    return code, swaps


def schubert_polynomial(pi: Permutation, ambient: int | None = None) -> SparsePolynomial:
    """The Schubert polynomial of pi via divided differences.

    The route climbs from pi by ascent swaps to a dominant permutation u,
    whose Schubert polynomial is x^code(u), and comes back down along the
    same swaps, one divided difference each.  ``ambient`` instead climbs
    inside the symmetric group S_n to its longest element, whose polynomial
    is the staircase monomial; any n at least the support size gives the
    same polynomial (stability).

    >>> str(schubert_polynomial(Permutation([3, 1, 2])))
    'x1^2'
    >>> str(schubert_polynomial(Permutation([1, 3, 2])))
    'x1 + x2'
    """
    if ambient is not None and ambient < pi.size:
        raise ValueError(f"ambient S_{ambient} too small for support {pi.size}")
    if ambient is not None and ambient < 1:
        raise ValueError("need n >= 1")
    code, swaps = _climb(pi, ambient)
    f = SparsePolynomial.monomial(code)
    for i in reversed(swaps):
        f = divided_difference(f, i)
    return f
