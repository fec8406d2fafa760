"""Schubert polynomials and the combinatorics of pipe dreams.

Two diagram models compute Schubert polynomials as weight generating
functions: ordinary pipe dreams (sets of crossings in the positive
quadrant) and bumpless pipe dreams (tile grids).  A canonical bijection
links them, built by repeatedly popping the first blank of a bumpless
diagram; insertion moves realize the Monk rule multiplication on both
models, compatibly with that bijection.
"""

from .bijection import PhiResult, phi, phi_inverse
from .bumpless import (
    BumplessPipeDream,
    PopResult,
    bpd_insert,
    bpd_pop,
    enumerate_bpds,
    iter_bpds,
)
from .errors import (
    EmptyDiagramError,
    InvalidDiagramError,
    InvalidSequenceError,
    InvariantError,
    MoveError,
)
from .monk import (
    MonkTrace,
    bpd_m_move,
    bpd_min_droop,
    bpd_x_insert,
    footprints_audit,
    pd_m_move,
    pd_x_insert,
)
from .perm import (
    Permutation,
    is_bruhat_cover,
    monk_covers,
    one_reduced_word,
    reduced_words,
    symmetric_group,
)
from .pipedream import (
    CompatibleSequence,
    PipeDream,
    enumerate_pipe_dreams,
    iter_pipe_dreams,
    trace_pipes,
)
from .poly import (
    SparsePolynomial,
    divided_difference,
    schubert_polynomial,
    staircase_monomial,
)
from .render import render
from .verify import (
    AuditReport,
    bruhat_covers,
    lemma_case_audit,
    run_checks,
    verify_monk_commutation,
    verify_monk_commutation_m,
    verify_monk_poly,
    verify_partition,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "BumplessPipeDream",
    "CompatibleSequence",
    "EmptyDiagramError",
    "InvalidDiagramError",
    "InvalidSequenceError",
    "InvariantError",
    "MonkTrace",
    "MoveError",
    "Permutation",
    "PhiResult",
    "PipeDream",
    "PopResult",
    "SparsePolynomial",
    "bpd_insert",
    "bpd_m_move",
    "bpd_min_droop",
    "bpd_pop",
    "bpd_x_insert",
    "bruhat_covers",
    "divided_difference",
    "staircase_monomial",
    "enumerate_bpds",
    "enumerate_pipe_dreams",
    "footprints_audit",
    "is_bruhat_cover",
    "iter_bpds",
    "iter_pipe_dreams",
    "lemma_case_audit",
    "monk_covers",
    "one_reduced_word",
    "pd_m_move",
    "pd_x_insert",
    "phi",
    "phi_inverse",
    "reduced_words",
    "render",
    "run_checks",
    "schubert_polynomial",
    "symmetric_group",
    "trace_pipes",
    "verify_monk_commutation",
    "verify_monk_commutation_m",
    "verify_monk_poly",
    "verify_partition",
]
