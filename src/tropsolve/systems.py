"""Solution sets: the five solution types and the two basic linear inequalities.

Every solver reports its minimizers as one of five solution types, and each
type answers the same protocol, so no caller branches on the type:

* ``is_empty``: whether the set has no member;
* ``anchor()``: one exact, regular, optimum-attaining member;
* ``sample(count, seed, window)``: deterministic members, boundary vectors
  first, unbounded directions explored within ``window`` carrier units; all
  are points of a box, scaled for a ray or a family, mapped by any generator;
* ``to_dict()``: the ``solution`` object of a JSON report;
* ``describe()``: the lines ``tropsolve solve`` prints for the set.

``principal_solution_leq`` describes all regular solutions of ``A x <= d``
as the set below a single principal (maximal) vector.  ``solve_sub_fixpoint``
describes all regular solutions of ``A x + b <= x`` as the image of a box
under the star of A, or reports that none exist.  Infeasible sets are
first-class values carrying a machine-readable reason, not exceptions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateInputError, PreconditionError, ShapeError
from .linalg import (
    Matrix,
    encode_matrix,
    encode_scalar,
    encode_vector,
    format_matrix,
    is_regular_vector,
    kleene_star,
)
from .semifield import Scalar, Semifield

NO_REGULAR_SOLUTION = "NO_REGULAR_SOLUTION"
INFEASIBLE_BOX = "INFEASIBLE_BOX"

_SAMPLE_DENOM = 16  # denominator of the random interpolation parameters


# ----------------------------------------------------------------------
# sampling and text helpers shared by the solution types

def _coordinate(lo: Scalar | None, hi: Scalar | None, w: Scalar, sf: Semifield):
    """A random coordinate between two optional bounds, as a function of
    ``t``, which draws its parameter in [0, 1]: within w^t of a lone bound,
    and within w^(2t - 1) of one when there is none."""
    if lo is not None and hi is not None:
        ratio = lo.inv() * hi
        return lambda t: lo * ratio ** t()
    if hi is not None:
        return lambda t: hi * (w ** t()).inv()
    if lo is not None:
        return lambda t: lo * w ** t()
    return lambda t: sf.one * w ** (2 * t() - 1)


def _box_is_empty(lower: Matrix | None, upper: Matrix | None) -> bool:
    return lower is not None and upper is not None and not lower <= upper


def _sample_box(sf: Semifield, n: int, lower: Matrix | None, upper: Matrix | None,
                count: int, seed: int, window, cone: bool = False) -> list[Matrix]:
    """Regular bounds of the box first, then random points between them, their
    coordinates drawn in turn with exact rational parameters, so additive
    carriers stay rational; w is ``window`` or its inverse, at least one.

    A coordinate the box fixes is its bound and draws no t.  A ``cone`` is
    every positive multiple of its box: each random point is scaled by
    ``one * w^(2t - 1)``, t drawn last, and the point box {d} is listed
    once, then scaled.  A negative ``count`` raises
    :class:`DegenerateInputError`.
    """
    if count < 0:
        raise DegenerateInputError(f"sample count must not be negative, got {count}")
    if _box_is_empty(lower, upper):
        raise DegenerateInputError("cannot sample an empty solution set")
    rng = random.Random(seed)
    w = sf.scalar(window)
    if not sf.one <= w:  # a window below one inverts to one above it
        w = w.inv()
    lows, highs = ([None] * n if b is None else
                   [None if u is None else sf.wrap(u) for (u,) in b.p]
                   for b in (lower, upper))  # a zero entry bounds nothing
    coords = [(lambda t, lo=lo: lo) if lo is not None and lo == hi
              else _coordinate(lo, hi, w, sf) for lo, hi in zip(lows, highs)]
    scale = _coordinate(None, None, w, sf)
    point = cone and lower == upper
    out = [b for b in ((lower,) if point else (lower, upper))
           if b is not None and is_regular_vector(b)][:count]

    def t():
        return Fraction(rng.randint(0, _SAMPLE_DENOM), _SAMPLE_DENOM)

    while len(out) < count:
        x = lower if point else Matrix._raw(sf, tuple([(c(t).v,) for c in coords]))
        out.append(scale(t) * x if cone else x)
    return out


def _vector_line(label: str, v: Matrix | None) -> str:
    if v is None:
        return f"  {label}: (none)"
    return f"  {label}: " + " ".join(v[i].literal(".") for i in range(v.dim))


# ----------------------------------------------------------------------
# the five solution types

@dataclass(frozen=True)
class BoxSolutionSet:
    """Regular vectors between two optional bounds: {x : lower <= x <= upper}."""

    lower: Matrix | None
    upper: Matrix | None

    @property
    def is_empty(self) -> bool:
        return _box_is_empty(self.lower, self.upper)

    def contains(self, x: Matrix) -> bool:
        if not is_regular_vector(x):
            return False
        if self.lower is not None and not self.lower <= x:
            return False
        if self.upper is not None and not x <= self.upper:
            return False
        return True

    def anchor(self) -> Matrix:
        for bound in (self.lower, self.upper):
            if bound is not None and is_regular_vector(bound):
                return bound
        raise DegenerateInputError("box has no regular bound to anchor on")

    def sample(self, count: int, seed: int, window) -> list[Matrix]:
        bound = self.lower if self.lower is not None else self.upper
        return _sample_box(bound.sf, bound.dim, self.lower, self.upper,
                           count, seed, window)

    def to_dict(self) -> dict:
        return {"type": "box",
                "lower": encode_vector(self.lower),
                "upper": encode_vector(self.upper)}

    def describe(self) -> list[str]:
        return ["solution: box of vectors",
                _vector_line("lower", self.lower),
                _vector_line("upper", self.upper)]


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
        return _box_is_empty(self.lower, self.upper)

    def anchor(self) -> Matrix:
        if self.upper is not None and is_regular_vector(self.upper):
            u = self.upper
        else:
            ones = Matrix.ones(self.generator.sf, self.generator.cols, 1)
            u = ones if self.lower is None else self.lower + ones
        return self.generator @ u

    def sample(self, count: int, seed: int, window) -> list[Matrix]:
        g = self.generator
        return [g @ u for u in _sample_box(g.sf, g.cols, self.lower, self.upper,
                                           count, seed, window)]

    def to_dict(self) -> dict:
        return {"type": "generated",
                "generator": encode_matrix(self.generator),
                "lower": encode_vector(self.lower),
                "upper": encode_vector(self.upper)}

    def describe(self) -> list[str]:
        return ["solution: x = G u over a box of u", "  G:",
                *("    " + line
                  for line in format_matrix(self.generator).splitlines()),
                _vector_line("u lower", self.lower),
                _vector_line("u upper", self.upper)]


@dataclass(frozen=True)
class RaySolution:
    """All positive multiples of one regular direction vector."""

    direction: Matrix

    is_empty = False

    def anchor(self) -> Matrix:
        return self.direction

    def sample(self, count: int, seed: int, window) -> list[Matrix]:
        d = self.direction
        return _sample_box(d.sf, d.rows, d, d, count, seed, window, cone=True)

    def to_dict(self) -> dict:
        return {"type": "ray", "direction": encode_vector(self.direction)}

    def describe(self) -> list[str]:
        return ["solution: x = alpha d for any alpha > zero",
                _vector_line("d", self.direction)]


@dataclass(frozen=True)
class ComponentwiseFamily:
    """Solutions with one pinned coordinate and per-coordinate caps.

    Members are ``x`` with ``x[k] = alpha * pinned_value`` and
    ``x[j] <= alpha * upper_bounds[j]`` for ``j != k``, over all scales
    ``alpha > zero``.  ``tied_pinned_indices`` lists every index achieving
    the pin criterion (the family is reported for the first; completeness
    under ties is not claimed).  When ``generator`` is present the family
    lives in an auxiliary variable ``u`` and members are ``x = generator @ u``.
    """

    pinned_index: int
    pinned_value: Scalar
    upper_bounds: tuple[Scalar | None, ...]
    support_index: int
    tied_pinned_indices: tuple[int, ...]
    generator: Matrix | None = None

    is_empty = False

    def _box(self) -> tuple[Matrix, Matrix]:
        """The box of u that the family scales: ``u[k]`` is the pinned value,
        and every other coordinate lies below its cap."""
        k, pinned = self.pinned_index, self.pinned_value
        if any(b is None for j, b in enumerate(self.upper_bounds) if j != k):
            raise DegenerateInputError("family has unbounded coordinates")
        return (Matrix(pinned.sf, tuple((pinned if j == k else None,)
                                        for j in range(len(self.upper_bounds)))),
                Matrix(pinned.sf, tuple((pinned if j == k else b,)
                                        for j, b in enumerate(self.upper_bounds))))

    def anchor(self) -> Matrix:
        u = self._box()[1]
        return u if self.generator is None else self.generator @ u

    def sample(self, count: int, seed: int, window) -> list[Matrix]:
        lower, upper = self._box()
        us = _sample_box(upper.sf, upper.rows, lower, upper, count, seed, window, cone=True)
        return us if self.generator is None else [self.generator @ u for u in us]

    def to_dict(self) -> dict:
        return {"type": "componentwise",
                "pinned_index": self.pinned_index,
                "pinned_value": encode_scalar(self.pinned_value),
                "upper_bounds": [encode_scalar(b) for b in self.upper_bounds],
                "support_index": self.support_index,
                "tied_pinned_indices": list(self.tied_pinned_indices),
                "generator": encode_matrix(self.generator)}

    def describe(self) -> list[str]:
        bounds = " ".join("-" if b is None else b.literal()
                          for b in self.upper_bounds)
        lines = ["solution: componentwise family",
                 f"  pinned index: {self.pinned_index}"
                 f" (ties: {list(self.tied_pinned_indices)})",
                 f"  pinned value: {self.pinned_value.literal()}",
                 f"  upper bounds: {bounds}"]
        if self.generator is not None:
            lines.append("  mapped through generator G (x = G u)")
        return lines


@dataclass(frozen=True)
class EmptySolutionSet:
    """No solutions, with the reason the emptiness was detected."""

    reason: str

    is_empty = True

    def anchor(self) -> Matrix:
        raise DegenerateInputError("an empty solution set has no members")

    def sample(self, count: int, seed: int, window) -> list[Matrix]:
        raise DegenerateInputError("cannot sample an empty solution set")

    def to_dict(self) -> dict:
        return {"type": "empty", "reason": self.reason}

    def describe(self) -> list[str]:
        return [f"solution: empty ({self.reason})"]


# ----------------------------------------------------------------------
# the two basic linear inequalities

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
