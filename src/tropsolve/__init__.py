"""Exact linear algebra over idempotent semifields and direct solvers for
the catalog of tropical optimization problems, with brute-force oracles.

Quick start::

    >>> from tropsolve import MAX_PLUS, Matrix, vector, solve
    >>> a = Matrix.from_rows(MAX_PLUS, [[1, 2], [3, 4]])
    >>> report = solve("rayleigh", A=a)
    >>> report.optimum
    Scalar(4, max-plus)
"""

from .errors import (
    CarrierDomainError,
    DegenerateInputError,
    DocumentError,
    GridOverflowError,
    InvariantError,
    PreconditionError,
    ShapeError,
    TagMismatchError,
    TropsolveError,
    ZeroInversionError,
)
from .semifield import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    SEMIFIELDS,
    Scalar,
    Semifield,
)
from .linalg import (
    Matrix,
    StarClosure,
    format_matrix,
    has_cycle,
    is_regular_vector,
    kleene_star,
    parse_matrix,
    spectral_radius,
    tr_functional,
    vector,
)
from .systems import (
    INFEASIBLE_BOX,
    NO_REGULAR_SOLUTION,
    BoxSolutionSet,
    ComponentwiseFamily,
    EmptySolutionSet,
    GeneratedSolutionSet,
    RaySolution,
    principal_solution_leq,
    solve_sub_fixpoint,
)
from .solvers import (
    INFEASIBLE,
    OPTIMAL,
    OptimumReport,
    solve,
    solve_cheb_box,
    solve_cheb_image_lower,
    solve_span_max,
    solve_span_max_constrained,
    solve_span_max_norm,
    solve_span_min,
    solve_span_min_constrained,
    solve_span_min_special,
)
from .problems import PROBLEM_KINDS, ProblemKind

#: The oracle's names, loaded with it on first use: solving never needs it.
_ORACLE = frozenset((
    "DEFAULT_WINDOW",
    "NO_FEASIBLE_POINT",
    "GridResult",
    "GridSpec",
    "VerificationReport",
    "anchor_member",
    "cycle_mean_radius",
    "default_grid",
    "default_step",
    "grid_search",
    "sample_solution_set",
    "verify_report",
))


def __getattr__(name: str):
    if name in _ORACLE:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

# what ``from tropsolve import *`` gave when the oracle loaded eagerly
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | _ORACLE | {"oracle"})
