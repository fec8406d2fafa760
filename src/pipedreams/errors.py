"""Exception types shared across the diagram models."""


class InvalidDiagramError(ValueError):
    """A pipe dream or bumpless pipe dream fails its structural rules."""


class InvalidSequenceError(ValueError):
    """A compatible sequence pair fails one of its defining conditions."""


class EmptyDiagramError(ValueError):
    """An operation needing at least one cross or blank got none."""


class MoveError(ValueError):
    """A move (droop, insertion, Monk step) is not applicable where asked."""


class InvariantError(AssertionError):
    """An internal invariant failed; raised explicitly, so python -O keeps it."""
