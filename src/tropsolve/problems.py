"""Problem-kind registry: the one table of per-kind facts.

Each :class:`ProblemKind` names its inputs with their declared shapes, its
closed-form solver, and the problem's semantics, stated once over batches of
points and independently of the closed forms: ``value(sf, d, X)`` is the
objective and ``admits(sf, d, X)`` the feasibility over a batch ``X``.  The
solvers, the document reader and writer and the oracle all go through this
table; the oracle evaluates the semantics on the grid and on sampled
solution-set members, so a bug in a solver formula cannot hide behind
itself.  The seven spectral kinds are rows of one general problem, built by
:func:`_bordered`; ``cheb_kleene`` and ``cheb_kleene_box`` are solved as
rows of it too, without A.

A batch ``X`` is a tuple of n coordinates over points that share one zero
pattern (a regular point has none).  At such points the zero pattern of
every intermediate (``A x``, ``x-``, ``B x + g``, ...) depends only on the
data, so an entry of the batch algebra below is one of three forms: ``None``,
the zero at every point; a payload, the same at every point; or a list over
the points.  Each operation dispatches on the forms once and maps the
carrier rule over the lists.  A row-times-column product takes the first
strictly best product, as :func:`linalg.dot` does.  On max-plus and
min-plus, whose payloads are lifted to ints first
(:meth:`ProblemKind.payloads`), the other rules are ``max`` / ``min``, ``+``
and ``-``; on max-times and min-times they are the rules of
:class:`Semifield`, so the ``REL_TOL`` tie rule and the underflow errors are
those of one point.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import repeat
from typing import Callable, Sequence

from . import solvers
from .errors import DegenerateInputError, ShapeError, TagMismatchError
from .linalg import Matrix, lift, unlift
from .semifield import Scalar, Semifield


@dataclass(frozen=True)
class ProblemKind:
    """One problem kind.

    ``shapes`` maps each input name to its dimension letters: two letters
    for a matrix (rows, columns), one for a column vector, none for a
    scalar.  Equal letters must bind to equal sizes, and ``n`` is the
    dimension of the unknown x.  The solver takes each input as the keyword
    argument of the same name in lower case.  ``value`` returns an entry of
    the batch algebra and ``admits`` one of flags (``True``, ``False`` or a
    list of them); :meth:`evaluate` runs both on Matrix members.
    ``objective(data, x)`` and ``feasible(data, x)`` are a batch of one
    member, with Matrix and Scalar data, possibly only the inputs the
    semantics reads; they are fields so that a ``dataclasses.replace`` copy
    can wrap them.
    """

    kind: str
    sense: str  # "min" | "max"
    shapes: dict[str, str]
    solver: Callable[..., solvers.OptimumReport]
    value: Callable[[Semifield, dict, tuple], object]
    admits: Callable[[Semifield, dict, tuple], object]
    objective: Callable[[dict, Matrix], Scalar] = field(
        default=None, repr=False, compare=False)
    feasible: Callable[[dict, Matrix], bool] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.objective is None:
            object.__setattr__(self, "objective", self._objective)
        if self.feasible is None:
            object.__setattr__(self, "feasible", self._feasible)

    def dim(self, data: dict, xs: Sequence[Matrix] | None = None) -> int:
        """Check every input against its declared shape and return ``n``.

        Each letter takes its size from the first input that has it; a
        :class:`ShapeError` names the first input that disagrees, and the
        input that set the size.  Given members ``xs`` of the unknown, it
        checks each as the column vector ``n`` too (``x[i]`` in a message),
        and only the inputs ``data`` has.
        """
        shapes = self.shapes
        if xs is not None:
            members = {f"x[{i}]": x for i, x in enumerate(xs)}
            shapes = {**{k: v for k, v in shapes.items() if k in data},
                      **dict.fromkeys(members, "n")}
            data = {**data, **members}
        sizes: dict[str, tuple[int, str]] = {}  # letter -> (size, set by)
        for name, letters in shapes.items():
            if not letters:
                continue
            shape = data[name].shape
            if len(letters) == 1 and shape[1] != 1:
                raise ShapeError(f"{name} must be a column vector, got shape {shape}")
            for letter, size in zip(letters, shape):
                bound, source = sizes.setdefault(letter, (size, name))
                if size != bound:
                    raise ShapeError(f"{name} has shape {shape}, which does not "
                                     f"fit {letter} = {bound} (set by {source})")
        return sizes["n"][0]

    def rows(self, data: dict) -> dict[str, tuple]:
        """The payload rows of each input in ``data`` by its declared role: a
        matrix as its rows, a vector as its column, a scalar as one 1x1
        row."""
        shapes = self.shapes
        return {name: value.p if len(shapes[name]) == 2
                else (_column(value),) if shapes[name] else ((value.v,),)
                for name, value in data.items()}

    def payloads(self, data: dict, sf: Semifield, rows=()) -> tuple[dict, tuple, int]:
        """``(d, rows, L)``: the inputs in ``data`` as ``value`` and
        ``admits`` take them (a matrix as its payload rows, a vector as a
        payload tuple, a scalar as its payload) and the payload ``rows``
        (the start and step of each grid axis, or points), as tuples, all
        through one :func:`linalg.lift`: on max-plus and min-plus lifted to
        ints by the lcm ``L`` of their denominators, which scales the
        semantics by ``L`` and keeps every comparison and tie; as they are,
        with ``L = 1``, on the other carriers.  Data of another semifield
        raises :class:`TagMismatchError`."""
        if any(value.sf is not sf for value in data.values()):
            raise TagMismatchError(f"{self.kind} data of another semifield than {sf.tag}")
        blocks = [rows, *self.rows(data).values()]
        lifted, scale = lift(sf, [r for block in blocks for r in block])
        lifted = map(tuple, lifted)
        rows, *inputs = [tuple(next(lifted) for _ in block) for block in blocks]
        shapes = self.shapes
        return ({name: m if len(shapes[name]) == 2 else m[0] if shapes[name] else m[0][0]
                 for name, m in zip(data, inputs)}, rows, scale)

    def evaluate(self, data: dict, xs: Sequence[Matrix]) -> tuple[list[bool], list]:
        """``(flags, values)`` at the members ``xs``: whether each is
        feasible, and its objective as a canonical payload (an ``int`` when
        integral).  The shapes are checked and the data and the members
        turned into payloads once, and the members with one zero pattern
        are one batch; an empty ``xs`` gives two empty lists."""
        if not xs:
            return [], []
        sf, d, points, scale = self._batch(data, xs)
        flags, values = [None] * len(xs), [None] * len(xs)
        groups: dict[tuple, list[int]] = {}
        for i, point in enumerate(points):
            groups.setdefault(tuple(v is None for v in point), []).append(i)
        for group in groups.values():
            batch = _transpose([points[i] for i in group])
            for i, ok, val in zip(group, _as_list(self.admits(sf, d, batch), len(group)),
                                  _as_list(self.value(sf, d, batch), len(group))):
                flags[i], values[i] = ok, unlift(val, scale)
        return flags, values

    def _batch(self, data: dict, xs: Sequence[Matrix]) -> tuple:
        """``(sf, d, points, L)`` by :meth:`payloads`, a point a member's
        payload tuple, the shapes checked first, since the batch forms would
        zip a mismatch away."""
        self.dim(data, xs)
        sf = xs[0].sf
        if any(x.sf is not sf for x in xs):
            raise TagMismatchError(f"{self.kind} members of more than one semifield")
        return (sf, *self.payloads(data, sf, [_column(x) for x in xs]))

    def _objective(self, data: dict, x: Matrix) -> Scalar:
        sf, d, points, scale = self._batch(data, (x,))
        (val,) = _as_list(self.value(sf, d, _transpose(points)), 1)
        return sf.wrap(unlift(val, scale))

    def _feasible(self, data: dict, x: Matrix) -> bool:
        sf, d, points, _ = self._batch(data, (x,))
        (ok,) = _as_list(self.admits(sf, d, _transpose(points)), 1)
        return ok


def _column(v: Matrix) -> tuple:
    return tuple(r[0] for r in v.p)


def _transpose(points: list[tuple]) -> tuple:
    """The batch of payload tuples with one zero pattern: per coordinate
    ``None`` or the list of its payloads."""
    return tuple([None if c[0] is None else list(c) for c in zip(*points)])


def _as_list(entry, count: int) -> list:
    """An entry (or flags) of a batch of ``count`` points as a list."""
    return entry if entry.__class__ is list else [entry] * count


# ----------------------------------------------------------------------
# the batch algebra: entries None, a payload, or a list over the batch

def _map(op, u, v):
    """``op`` over two present entries: a list when either is one."""
    if u.__class__ is list:
        return list(map(op, u, v if v.__class__ is list else repeat(v)))
    if v.__class__ is list:
        return list(map(op, repeat(u), v))
    return op(u, v)


def _mul(sf: Semifield, u, v):
    """``u v``."""
    if u is None or v is None:
        return None
    return _map(operator.add if sf.additive else operator.mul, u, v)


def _add(sf: Semifield, u, v):
    """``u + v``; on max-times and min-times a tie within ``REL_TOL``
    keeps ``v``, as :meth:`Semifield.add_payload` does."""
    if u is None:
        return v
    if v is None:
        return u
    if not sf.additive:
        return _map(sf.add_payload, u, v)
    return _map(max if sf.maximizing else min, u, v)


def _dot(sf: Semifield, u, v):
    """A row ``u`` times a column ``v``: at each point the first strictly
    best present product, as :func:`linalg.dot`; ``None`` when no product
    is present."""
    terms = [_mul(sf, a, b) for a, b in zip(u, v) if a is not None and b is not None]
    if len(terms) < 2:
        return terms[0] if terms else None
    best = max if sf.maximizing else min
    if all(t.__class__ is not list for t in terms):
        return best(terms)
    return list(map(best, *[t if t.__class__ is list else repeat(t) for t in terms]))


def _apply(sf: Semifield, a, x) -> tuple:
    """``A x`` for payload rows ``a``."""
    return tuple([_dot(sf, row, x) for row in a])


def _conj(sf: Semifield, y) -> tuple:
    """``y-``: every present entry inverted; undefined on an all-zero y, as
    in :meth:`Matrix.conj`."""
    if all(v is None for v in y):
        raise DegenerateInputError("conjugate transposition of an all-zero matrix")
    inv = operator.neg if sf.additive else sf.inv_payload
    return tuple([None if v is None else list(map(inv, v)) if v.__class__ is list
                  else inv(v) for v in y])


def _below(sf: Semifield, u, v):
    """``u <= v`` entrywise, at each point."""
    le = (operator.le if sf.maximizing else operator.ge) if sf.additive else sf.le_payload
    flags = True
    for a, b in zip(u, v):
        if a is None:  # the zero is the least element
            continue
        if b is None:
            return False
        flags = _both(flags, _map(le, a, b))
    return flags


def _both(f, g):
    """The flags of ``f and g``."""
    if f is True or g is False:
        return g
    if g is True or f is False:
        return f
    return list(map(operator.and_, f, g))


def _spread(sf: Semifield, upper, lower=None):
    """``norm(upper) norm(lower-)``, a norm the sum of the entries; without
    ``lower``, the span seminorm of ``upper``."""
    lower = upper if lower is None else lower
    add = partial(_add, sf)
    return _mul(sf, reduce(add, upper, None), reduce(add, _conj(sf, lower), None))


# ----------------------------------------------------------------------
# the semantics

def _distance(sf: Semifield, d: dict, y):
    """``q- y + y- p``."""
    return _add(sf, _dot(sf, _conj(sf, d["q"]), y), _dot(sf, _conj(sf, y), d["p"]))


def _span_ratio(sf: Semifield, d: dict, x):
    """``(q- B x) ((A x)- p)``."""
    return _mul(sf, _dot(sf, _conj(sf, d["q"]), _apply(sf, d["B"], x)),
                _dot(sf, _conj(sf, _apply(sf, d["A"], x)), d["p"]))


def _recursion_cap(key: str):
    """Feasibility of ``M x <= x`` for the matrix input ``key``."""
    def admits(sf: Semifield, d: dict, x):
        return _below(sf, _apply(sf, d[key], x), x)
    return admits


def _bounds(inputs):
    """Feasibility of ``B x + g <= x`` (``g <= x`` without B) and ``C x <=
    h`` (``x <= h`` without C), each bound checked only when ``inputs``
    names it: ``_bounds(())`` admits every x."""
    def admits(sf: Semifield, d: dict, x):
        flags = True
        if "g" in inputs:
            lower = d["g"]
            if "B" in inputs:
                lower = tuple(map(partial(_add, sf), _apply(sf, d["B"], x), lower))
            flags = _below(sf, lower, x)
        if "h" in inputs:
            flags = _both(flags, _below(
                sf, _apply(sf, d["C"], x) if "C" in inputs else x, d["h"]))
        return flags
    return admits


def _bordered(kind: str, shapes: dict[str, str],
              flag: str | None = None) -> ProblemKind:
    """The row with the inputs in ``shapes`` of ``min x- A x + x- p + q- x +
    r`` subject to ``B x + g <= x`` and ``C x <= h``.  The objective adds
    the present terms in that order, which matters on the multiplicative
    carriers, whose ``+`` picks an operand within ``REL_TOL``."""
    def value(sf: Semifield, d: dict, x):
        xc = _conj(sf, x)
        val = _dot(sf, xc, _apply(sf, d["A"], x))
        if "p" in shapes:
            val = _add(sf, val, _dot(sf, xc, d["p"]))
        if "q" in shapes:
            val = _add(sf, val, _dot(sf, _conj(sf, d["q"]), x))
        if "r" in shapes:
            val = _add(sf, val, d["r"])
        return val

    return ProblemKind(kind, "min", shapes,
                       partial(solvers.bordered_optimum, kind, flag=flag),
                       value, _bounds(shapes))


PROBLEM_KINDS: dict[str, ProblemKind] = {pk.kind: pk for pk in (
    ProblemKind(
        "cheb_box", "min", {"p": "n", "q": "n", "g": "n", "h": "n"},
        solvers.solve_cheb_box, _distance, _bounds(("g", "h"))),
    ProblemKind(
        "cheb_image_lower", "min", {"A": "mn", "p": "m", "q": "m", "g": "n"},
        solvers.solve_cheb_image_lower,
        lambda sf, d, x: _distance(sf, d, _apply(sf, d["A"], x)),
        _bounds(("g",))),
    ProblemKind(
        "cheb_kleene_box", "min", {"B": "nn", "p": "n", "q": "n", "g": "n", "h": "n"},
        partial(solvers.bordered_optimum, "cheb_kleene_box"), _distance,
        _bounds(("B", "g", "h"))),
    ProblemKind(
        "cheb_kleene", "min", {"B": "nn", "p": "n", "q": "n"},
        partial(solvers.bordered_optimum, "cheb_kleene"), _distance,
        _recursion_cap("B")),
    ProblemKind(
        "span_min", "min", {"A": "mn", "B": "mn", "p": "m", "q": "m"},
        solvers.solve_span_min, _span_ratio, _bounds(())),
    ProblemKind(
        "span_min_special", "min", {"A": "mn"}, solvers.solve_span_min_special,
        lambda sf, d, x: _spread(sf, _apply(sf, d["A"], x)),
        _bounds(())),
    ProblemKind(
        "span_min_constrained", "min", {"C": "mn", "D": "nn"},
        solvers.solve_span_min_constrained,
        lambda sf, d, x: _spread(sf, _apply(sf, d["C"], x)),
        _recursion_cap("D")),
    ProblemKind(
        "span_max", "max", {"A": "mn", "B": "kn", "p": "m", "q": "k"},
        solvers.solve_span_max, _span_ratio, _bounds(())),
    ProblemKind(
        "span_max_norm", "max", {"A": "mn", "B": "kn"},
        solvers.solve_span_max_norm,
        lambda sf, d, x: _spread(sf, _apply(sf, d["B"], x), _apply(sf, d["A"], x)),
        _bounds(())),
    ProblemKind(
        "span_max_constrained", "max",
        {"A": "mn", "B": "kn", "C": "nn", "p": "m", "q": "k"},
        solvers.solve_span_max_constrained, _span_ratio, _recursion_cap("C")),
    _bordered("rayleigh", {"A": "nn"}),
    _bordered("rayleigh_affine", {"A": "nn", "p": "n", "q": "n", "r": ""}),
    _bordered("rayleigh_two_constraints",
              {"A": "nn", "B": "nn", "C": "kn", "g": "n", "h": "k"},
              flag="Tr(theta^-1 A + B) <= one"),
    _bordered("rayleigh_lower", {"A": "nn", "B": "nn", "g": "n"}),
    _bordered("rayleigh_box", {"A": "nn", "g": "n", "h": "n"}),
    _bordered("rayleigh_p_lower", {"A": "nn", "B": "nn", "p": "n", "g": "n"}),
    _bordered("new_boxed_spectral",
              {"A": "nn", "p": "n", "q": "n", "g": "n", "h": "n", "r": ""},
              flag="Tr(mu^-1 A) <= one"),
)}
