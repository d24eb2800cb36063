"""Solution sets: the five solution types and the two basic linear inequalities.

Every solver reports its minimizers as one of five solution types, and each
type answers the same protocol, so no caller branches on the type:

* ``is_empty``: whether the set has no member;
* ``anchor()``: one exact, regular, optimum-attaining member;
* ``sample(count, seed, window)``: deterministic members, boundary vectors
  first, unbounded directions explored within ``window`` carrier units;
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

def _sampler(sf: Semifield, seed: int, window):
    """Random interpolation parameters in [0, 1] with denominator 16, and
    the window as a scalar at least one."""
    rng = random.Random(seed)
    w = sf.scalar(window)
    if not sf.one <= w:
        w = w.inv()
    if not sf.one <= w:
        w = sf.one
    return (lambda: Fraction(rng.randint(0, _SAMPLE_DENOM), _SAMPLE_DENOM)), w


def _coord_sample(lo: Scalar | None, hi: Scalar | None, t: Fraction,
                  w: Scalar, sf: Semifield) -> Scalar:
    lo_ok = lo is not None and not lo.is_zero
    hi_ok = hi is not None and not hi.is_zero
    if lo_ok and hi_ok:
        return lo * (lo.inv() * hi) ** t
    if hi_ok:
        return hi * (w ** t).inv()
    if lo_ok:
        return lo * w ** t
    return sf.one * w ** (2 * t - 1)


def _box_is_empty(lower: Matrix | None, upper: Matrix | None) -> bool:
    return lower is not None and upper is not None and not lower <= upper


def _sample_box(sf: Semifield, n: int, lower: Matrix | None,
                upper: Matrix | None, count: int, seed: int, window) -> list[Matrix]:
    """Regular bounds of the box first, then random points between them
    (exact rational parameters, so additive carriers stay rational)."""
    if _box_is_empty(lower, upper):
        raise DegenerateInputError("cannot sample an empty solution set")
    t_rand, w = _sampler(sf, seed, window)
    out = []
    for bound in (lower, upper):
        if bound is not None and is_regular_vector(bound) and len(out) < count:
            out.append(bound)
    while len(out) < count:
        out.append(Matrix(sf, tuple(
            (_coord_sample(None if lower is None else lower[i],
                           None if upper is None else upper[i],
                           t_rand(), w, sf),)
            for i in range(n))))
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
        sf = self.direction.sf
        t_rand, w = _sampler(sf, seed, window)
        alphas = [sf.one]
        while len(alphas) < count:
            alphas.append(sf.one * w ** (2 * t_rand() - 1))
        return [alpha * self.direction for alpha in alphas]

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

    def _member(self, u: Matrix) -> Matrix:
        return u if self.generator is None else self.generator @ u

    def _require_bounded(self) -> None:
        if any(b is None for j, b in enumerate(self.upper_bounds)
               if j != self.pinned_index):
            raise DegenerateInputError("family has unbounded coordinates")

    def anchor(self) -> Matrix:
        self._require_bounded()
        k, sf = self.pinned_index, self.pinned_value.sf
        return self._member(Matrix(sf, tuple(
            (self.pinned_value if j == k else b,)
            for j, b in enumerate(self.upper_bounds))))

    def sample(self, count: int, seed: int, window) -> list[Matrix]:
        self._require_bounded()
        sf, k = self.pinned_value.sf, self.pinned_index
        t_rand, w = _sampler(sf, seed, window)
        out = []
        first = True
        while len(out) < count:
            alpha = sf.one if first else sf.one * w ** (2 * t_rand() - 1)
            entries = []
            for j, b in enumerate(self.upper_bounds):
                if j == k:
                    entries.append(alpha * self.pinned_value)
                else:
                    cap = alpha * b
                    entries.append(cap if first else cap * (w ** t_rand()).inv())
            first = False
            out.append(self._member(Matrix(sf, tuple((e,) for e in entries))))
        return out

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
