"""Complete solution sets for the two basic linear inequalities.

``principal_solution_leq`` describes all regular solutions of ``A x <= d``
as the set below a single principal (maximal) vector.  ``solve_sub_fixpoint``
describes all regular solutions of ``A x + b <= x`` as the image of a box
under the star of A, or reports that none exist.  Infeasible sets are
first-class values carrying a machine-readable reason, not exceptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError, ShapeError
from .linalg import Matrix, is_regular_vector, kleene_star

NO_REGULAR_SOLUTION = "NO_REGULAR_SOLUTION"
INFEASIBLE_BOX = "INFEASIBLE_BOX"


@dataclass(frozen=True)
class BoxSolutionSet:
    """Regular vectors between two optional bounds: {x : lower <= x <= upper}."""

    lower: Matrix | None
    upper: Matrix | None

    @property
    def is_empty(self) -> bool:
        if self.lower is None or self.upper is None:
            return False
        return not self.lower <= self.upper

    def contains(self, x: Matrix) -> bool:
        if not is_regular_vector(x):
            return False
        if self.lower is not None and not self.lower <= x:
            return False
        if self.upper is not None and not x <= self.upper:
            return False
        return True


@dataclass(frozen=True)
class GeneratedSolutionSet:
    """Image of a box under a generator: {G u : u regular, lower <= u <= upper}.

    A missing lower (upper) bound leaves u unconstrained on that side;
    u must still be regular.
    """

    generator: Matrix
    lower: Matrix | None
    upper: Matrix | None

    @property
    def is_empty(self) -> bool:
        if self.lower is None or self.upper is None:
            return False
        return not self.lower <= self.upper


@dataclass(frozen=True)
class EmptySolutionSet:
    """No solutions, with the reason the emptiness was detected."""

    reason: str

    @property
    def is_empty(self) -> bool:
        return True


def principal_solution_leq(a: Matrix, d: Matrix) -> BoxSolutionSet:
    """All regular solutions of ``A x <= d``: the set below ``(d- A)-``.

    The bound itself is feasible, so it is the maximal solution.
    Requires a column-regular A and a regular d.
    """
    if d.cols != 1 or d.rows != a.rows:
        raise ShapeError(
            f"d must be a column vector of dim {a.rows}, got shape {d.shape}")
    if not a.is_col_regular():
        raise PreconditionError("A must be column-regular")
    if not is_regular_vector(d):
        raise PreconditionError("d must be regular")
    upper = (d.conj() @ a).conj()
    return BoxSolutionSet(lower=None, upper=upper)


def solve_sub_fixpoint(a: Matrix, b: Matrix) -> GeneratedSolutionSet | EmptySolutionSet:
    """All regular solutions of ``A x + b <= x``, or an empty set.

    Regular solutions exist iff every cycle weight of A is at most one
    (``tr_functional(A) <= one``, read off the star's closure flag); they
    are exactly ``x = star(A) u`` over regular ``u >= b``.
    """
    a._require_square("solve_sub_fixpoint")
    if b.cols != 1 or b.rows != a.rows:
        raise ShapeError(
            f"b must be a column vector of dim {a.rows}, got shape {b.shape}")
    closure = kleene_star(a)
    if not closure.closure_valid:
        return EmptySolutionSet(NO_REGULAR_SOLUTION)
    return GeneratedSolutionSet(generator=closure.matrix, lower=b, upper=None)
