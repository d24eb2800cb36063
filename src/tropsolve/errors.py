"""Exception hierarchy shared across the package."""


class TropsolveError(Exception):
    """Base class for all errors raised by this package."""


class TagMismatchError(TropsolveError):
    """Operands belong to different semifields."""


class ZeroInversionError(TropsolveError):
    """Inversion (or a nonpositive power) of the semifield zero."""


class CarrierDomainError(TropsolveError):
    """A carrier value outside the semifield's domain (e.g. a nonpositive
    number for a multiplicative carrier)."""


class ShapeError(TropsolveError):
    """Matrix/vector dimensions do not conform."""


class DegenerateInputError(TropsolveError):
    """An input that makes the operation meaningless (e.g. conjugate
    transposition of an all-zero matrix)."""


class PreconditionError(TropsolveError):
    """A solver precondition that marks the problem instance as malformed
    rather than infeasible (regularity, positivity of the spectral radius)."""


class InvariantError(TropsolveError):
    """A result broke an invariant that its closed form guarantees: a defect
    in the solver, never a property of the input."""


class GridOverflowError(TropsolveError):
    """A search grid, or the number of solution-set members to sample,
    exceeds the configured point cap."""


class DocumentError(TropsolveError):
    """A problem document failed to parse or validate.

    Carries the offending field path when known.
    """

    def __init__(self, message: str, field: str | None = None):
        self.field = field
        super().__init__(message if field is None else f"{field}: {message}")
