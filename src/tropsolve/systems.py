"""Solution sets: the five solution types and the two basic linear inequalities.

Every solver reports its minimizers as one of five solution types, and each
type answers the same protocol, so no caller branches on the type:

* ``is_empty``: whether the set has no member;
* ``anchor()``: one exact, regular, optimum-attaining member;
* ``draw(count, seed, window)``: ``(sf, points, L)``, deterministic
  members as lists of payloads lifted by ``L``, boundary vectors first,
  unbounded directions explored within ``window`` carrier units; all are
  points of a box, scaled for a ray or a family, mapped by any generator;
* ``sample(count, seed, window)``: the same members as Matrices, each
  payload divided by ``L`` once, the one place that unlifts them;
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

from .errors import DegenerateInputError, PreconditionError, ShapeError, TagMismatchError
from .linalg import (
    Matrix,
    dot,
    encode_matrix,
    encode_scalar,
    encode_vector,
    format_matrix,
    is_regular_vector,
    kleene_star,
    lift,
    unlift,
)
from .semifield import Scalar, Semifield, checked_float

NO_REGULAR_SOLUTION = "NO_REGULAR_SOLUTION"
INFEASIBLE_BOX = "INFEASIBLE_BOX"

_SAMPLE_DENOM = 16  # denominator of the random interpolation parameters


# ----------------------------------------------------------------------
# sampling and text helpers shared by the solution types

def _box_is_empty(lower: Matrix | None, upper: Matrix | None) -> bool:
    return lower is not None and upper is not None and not lower <= upper


def _draws(sf: Semifield, lo, hi, w) -> list:
    """The payloads of a coordinate between the optional bounds ``lo`` and
    ``hi`` for the draws k = 0 .. 16, with t = k / 16: ``lo (lo^-1 hi)^t``
    between two bounds, within ``w^t`` of a lone bound, and within
    ``w^(2t - 1)`` of one when there is none.  Additive bounds and ``w``
    come lifted by ``L``, and the payloads go out lifted by ``16 L``, as
    ints; multiplicative ones are the float operations of the Scalar rules,
    in their order."""
    ks = range(_SAMPLE_DENOM + 1)
    if sf.additive:
        if lo is not None and hi is not None:
            return [_SAMPLE_DENOM * lo + k * (hi - lo) for k in ks]
        if hi is not None:
            return [_SAMPLE_DENOM * hi - k * w for k in ks]
        if lo is not None:
            return [_SAMPLE_DENOM * lo + k * w for k in ks]
        return [(2 * k - _SAMPLE_DENOM) * w for k in ks]
    ts = [k / _SAMPLE_DENOM for k in ks]  # exactly float(Fraction(k, 16))
    if lo is not None and hi is not None:
        ratio = checked_float(sf.inv_payload(lo) * hi)
        return [lo * ratio ** t for t in ts]
    if hi is not None:
        return [hi * sf.inv_payload(w ** t) for t in ts]
    if lo is not None:
        return [lo * w ** t for t in ts]
    return [1.0 * w ** (2 * t - 1) for t in ts]


def _draw_box(sf: Semifield, n: int, lower: Matrix | None, upper: Matrix | None,
              count: int, seed: int, window, cone: bool = False,
              generator: Matrix | None = None) -> tuple[Semifield, list[list], int]:
    """``(sf, points, L)``: regular bounds of the box first, then random
    points between them, each a list of payloads lifted by ``L``.  Each
    coordinate is drawn in turn as k = ``randint(0, 16)``, by its exact
    rejection loop over ``getrandbits(5)``, the exact rational parameter
    t = k / 16 of :func:`_draws`; w is ``window`` or its inverse, at least
    one.  With a ``generator`` G every member u is mapped to G u.

    A coordinate the box fixes is its bound and draws no t.  A ``cone`` is
    every positive multiple of its box: each random point is scaled by
    ``one * w^(2t - 1)``, t drawn last, and the point box {d} is listed
    once, then scaled.  On max-plus and min-plus the bounds, w and G are
    lifted once by ``L = 16 L'`` (:func:`lift`), so the draws, the scaling
    and the map (:func:`dot`) run on ints, and the points stay lifted; on
    max-times and min-times they are checked floats, with ``L = 1``.  A
    multiplicative member that leaves the positive floats raises
    :class:`CarrierDomainError`, a negative ``count``
    :class:`DegenerateInputError`, and a bound or a generator of another
    semifield or dimension :class:`TagMismatchError` or :class:`ShapeError`.
    """
    if count < 0:
        raise DegenerateInputError(f"sample count must not be negative, got {count}")
    if _box_is_empty(lower, upper):
        raise DegenerateInputError("cannot sample an empty solution set")
    if any(b is not None and b.sf is not sf for b in (lower, upper, generator)):
        raise TagMismatchError(f"bounds or a generator of another semifield than {sf.tag}")
    if (any(b is not None and b.shape != (n, 1) for b in (lower, upper))
            or generator is not None and generator.cols != n):
        raise ShapeError(f"the bounds must be column vectors of dim {n}, "
                         f"and a generator must have {n} columns")
    w = sf.payload(window)
    if not sf.le_payload(sf.one.v, w):  # a window below one inverts to one above it
        w = sf.inv_payload(w)
    point = cone and lower == upper
    bounds = [b for b in ((lower,) if point else (lower, upper))
              if b is not None and is_regular_vector(b)][:count]
    lows, highs = ([None] * n if b is None else [u for (u,) in b.p]
                   for b in (lower, upper))  # a zero entry bounds nothing
    g = () if generator is None else generator.p
    additive = sf.additive
    unit = _SAMPLE_DENOM if additive else 1
    (lows, highs, (w,), *g), scale = lift(sf, [lows, highs, [w], *g])
    scale *= unit
    g = [[None if v is None else unit * v for v in r] for r in g]
    coords = [(None if lo is None else unit * lo, None)
              if point or lo is not None and sf.eq_payload(lo, hi)
              else (None, _draws(sf, lo, hi, w)) for lo, hi in zip(lows, highs)]
    scales = _draws(sf, None, None, w) if cone else None
    getrandbits, top = random.Random(seed).getrandbits, _SAMPLE_DENOM
    us = [[unit * v for v in (lows if b is lower else highs)] for b in bounds]
    for _ in range(count - len(us)):
        u = []
        for v, draws in coords:
            if draws is not None:
                k = getrandbits(5)
                while k > top:
                    k = getrandbits(5)
                v = draws[k]
            u.append(v)
        if cone:
            k = getrandbits(5)
            while k > top:
                k = getrandbits(5)
            s = scales[k]
            u = ([v if v is None else s + v for v in u] if additive
                 else [v if v is None else s * v for v in u])
        us.append(u)
    if generator is not None:
        us = [[dot(sf, row, u) for row in g] for u in us]
    if not additive:
        us = [[v if v is None else checked_float(v) for v in u] for u in us]
    return sf, us, scale


class _Drawn:
    """The protocol's ``sample``: the members of ``draw``, unlifted."""

    def sample(self, count: int, seed: int, window) -> list[Matrix]:
        sf, points, scale = self.draw(count, seed, window)
        return [Matrix._raw(sf, tuple([(unlift(v, scale),) for v in u])) for u in points]


def _vector_line(label: str, v: Matrix | None) -> str:
    if v is None:
        return f"  {label}: (none)"
    return f"  {label}: " + " ".join(v[i].literal(".") for i in range(v.dim))


# ----------------------------------------------------------------------
# the five solution types

@dataclass(frozen=True)
class BoxSolutionSet(_Drawn):
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

    def draw(self, count: int, seed: int, window) -> tuple[Semifield, list[list], int]:
        bound = self.lower if self.lower is not None else self.upper
        if bound is None:
            raise DegenerateInputError("box has no bound to sample around")
        return _draw_box(bound.sf, bound.dim, self.lower, self.upper,
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
class GeneratedSolutionSet(_Drawn):
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

    def draw(self, count: int, seed: int, window) -> tuple[Semifield, list[list], int]:
        g = self.generator
        return _draw_box(g.sf, g.cols, self.lower, self.upper, count, seed, window,
                         generator=g)

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
class RaySolution(_Drawn):
    """All positive multiples of one regular direction vector."""

    direction: Matrix

    is_empty = False

    def anchor(self) -> Matrix:
        return self.direction

    def draw(self, count: int, seed: int, window) -> tuple[Semifield, list[list], int]:
        d = self.direction
        return _draw_box(d.sf, d.rows, d, d, count, seed, window, cone=True)

    def to_dict(self) -> dict:
        return {"type": "ray", "direction": encode_vector(self.direction)}

    def describe(self) -> list[str]:
        return ["solution: x = alpha d for any alpha > zero",
                _vector_line("d", self.direction)]


@dataclass(frozen=True)
class ComponentwiseFamily(_Drawn):
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

    def draw(self, count: int, seed: int, window) -> tuple[Semifield, list[list], int]:
        lower, upper = self._box()
        return _draw_box(upper.sf, upper.rows, lower, upper, count, seed, window,
                         cone=True, generator=self.generator)

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
class EmptySolutionSet(_Drawn):
    """No solutions, with the reason the emptiness was detected."""

    reason: str

    is_empty = True

    def anchor(self) -> Matrix:
        raise DegenerateInputError("an empty solution set has no members")

    def draw(self, count: int, seed: int, window) -> tuple[Semifield, list[list], int]:
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
