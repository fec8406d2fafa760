"""The weight-preserving bijection between the two diagram models.

Iterating bpd_pop on a bumpless diagram until the identity remains produces
a sequence of (letter, row) pairs; reading them off in order gives a
compatible sequence, hence an ordinary pipe dream of the same permutation
with the same weight.  The inverse rebuilds the bumpless diagram by feeding
the pairs to bpd_insert in reverse order, starting from the identity grid.
"""

from __future__ import annotations

from typing import NamedTuple

from .bumpless import BumplessPipeDream, bpd_insert, bpd_pop
from .errors import InvariantError
from .perm import Permutation
from .pipedream import CompatibleSequence, PipeDream


class PhiResult(NamedTuple):
    """A compatible sequence plus the trail that produced it."""

    sequence: CompatibleSequence
    pops: tuple[tuple[int, int], ...]

    def pipe_dream(self) -> PipeDream:
        return self.sequence.to_pipe_dream()

    def __repr__(self) -> str:
        return f"PhiResult({self.sequence!r})"


def phi(diagram: BumplessPipeDream) -> PhiResult:
    """Map a bumpless diagram to its compatible sequence.

    >>> rothe = BumplessPipeDream.rothe(Permutation([3, 2, 1]))
    >>> phi(rothe).sequence
    CompatibleSequence((2, 1, 2), (1, 1, 2))
    """
    cur = diagram
    pops = []
    while not cur.perm().is_identity():
        step = bpd_pop(cur)
        pops.append((step.a, step.r))
        cur = step.result
    sequence = CompatibleSequence(
        (a for a, _ in pops), (r for _, r in pops)
    )
    return PhiResult(sequence, tuple(pops))


def phi_inverse(diagram: PipeDream) -> BumplessPipeDream:
    """Map a reduced pipe dream back to its bumpless diagram.

    >>> phi_inverse(PipeDream([(1, 1)])).rows
    ('.r', 'r+')
    """
    seq = diagram.to_compatible()
    cur = BumplessPipeDream.identity(1)
    for a, r in reversed(list(zip(seq.a, seq.r))):
        nxt = bpd_insert(cur, a, r)
        if nxt is None:
            raise InvariantError(
                f"insertion of ({a}, {r}) failed; no preimage exists"
            )
        cur = nxt
    return cur
