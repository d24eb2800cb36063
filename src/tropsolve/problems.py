"""Problem-kind registry: the one table of per-kind facts.

Each :class:`ProblemKind` names its inputs with their declared shapes, its
closed-form solver, and the problem's semantics, stated once over payloads
and independently of the closed forms: ``value(sf, d, x)`` is the objective
and ``admits(sf, d, x)`` the feasibility at a payload tuple ``x``.  They
reduce through :func:`linalg.dot` and :func:`linalg.below`, as ``Matrix @``
and ``<=`` do.  The solvers, the document reader and writer and the oracle
all go through this table; the oracle evaluates the semantics on the grid
and on sampled solution-set members, so a bug in a solver formula cannot
hide behind itself.  The seven spectral kinds are rows of one general
problem, built by :func:`_bordered`; ``cheb_kleene`` and ``cheb_kleene_box``
are solved as rows of it too, without A.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial, reduce
from typing import Callable

from . import solvers
from .errors import DegenerateInputError, ShapeError, TagMismatchError
from .linalg import Matrix, below, dot
from .semifield import Scalar, Semifield


@dataclass(frozen=True)
class ProblemKind:
    """One problem kind.

    ``shapes`` maps each input name to its dimension letters: two letters
    for a matrix (rows, columns), one for a column vector, none for a
    scalar.  Equal letters must bind to equal sizes, and ``n`` is the
    dimension of the unknown x.  The solver takes each input as the keyword
    argument of the same name in lower case.  ``objective(data, x)`` and
    ``feasible(data, x)`` take Matrix and Scalar data, possibly only the
    inputs the semantics reads, unwrap it once and call ``value`` /
    ``admits``; they are fields so that a ``dataclasses.replace`` copy can
    wrap them.
    """

    kind: str
    sense: str  # "min" | "max"
    shapes: dict[str, str]
    solver: Callable[..., solvers.OptimumReport]
    value: Callable[[Semifield, dict, tuple], object]
    admits: Callable[[Semifield, dict, tuple], bool]
    objective: Callable[[dict, Matrix], Scalar] = field(
        default=None, repr=False, compare=False)
    feasible: Callable[[dict, Matrix], bool] = field(
        default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.objective is None:
            object.__setattr__(self, "objective", self._objective)
        if self.feasible is None:
            object.__setattr__(self, "feasible", self._feasible)

    def dim(self, data: dict, x: Matrix | None = None) -> int:
        """Check every input against its declared shape and return ``n``.

        Each letter takes its size from the first input that has it; a
        :class:`ShapeError` names the first input that disagrees, and the
        input that set the size.  Given the unknown ``x``, it checks ``x``
        as the column vector ``n`` too, and only the inputs ``data`` has.
        """
        shapes = self.shapes
        if x is not None:
            shapes = {**{k: v for k, v in shapes.items() if k in data}, "x": "n"}
            data = {**data, "x": x}
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

    def payloads(self, data: dict, sf: Semifield) -> dict:
        """The inputs in ``data`` as ``value`` and ``admits`` take them: a
        matrix as its payload rows, a vector as a payload tuple, a scalar
        as its payload; data of another semifield raises
        :class:`TagMismatchError`."""
        if any(value.sf is not sf for value in data.values()):
            raise TagMismatchError(f"{self.kind} data of another semifield than {sf.tag}")
        unwrap = (lambda s: s.v, _column, lambda m: m.p)  # by the number of letters
        return {name: unwrap[len(self.shapes[name])](value)
                for name, value in data.items()}

    def _arguments(self, data: dict, x: Matrix) -> tuple:
        """``(sf, d, x)`` for ``value`` and ``admits``, the shapes checked
        first, since the payload forms would zip a mismatch away."""
        self.dim(data, x)
        return x.sf, self.payloads(data, x.sf), _column(x)

    def _objective(self, data: dict, x: Matrix) -> Scalar:
        sf, d, column = self._arguments(data, x)
        return sf.wrap(self.value(sf, d, column))

    def _feasible(self, data: dict, x: Matrix) -> bool:
        return self.admits(*self._arguments(data, x))


def _column(v: Matrix) -> tuple:
    return tuple(r[0] for r in v.p)


# ----------------------------------------------------------------------
# payload forms of the other Matrix operations the semantics use

def _apply(sf: Semifield, a, x) -> tuple:
    """``A x`` for payload rows ``a``."""
    return tuple([dot(sf, row, x) for row in a])


def _conj(sf: Semifield, y) -> tuple:
    """``y-``: every present entry inverted; undefined on an all-zero y, as
    in :meth:`Matrix.conj`."""
    if y.count(None) == len(y):
        raise DegenerateInputError("conjugate transposition of an all-zero matrix")
    inv = sf.inv_payload
    return tuple([None if v is None else inv(v) for v in y])


def _spread(sf: Semifield, upper, lower=None):
    """``norm(upper) norm(lower-)``, a norm the sum of the entries; without
    ``lower``, the span seminorm of ``upper``."""
    lower = upper if lower is None else lower
    return sf.mul_payload(reduce(sf.add_payload, upper, None),
                          reduce(sf.add_payload, _conj(sf, lower), None))


# ----------------------------------------------------------------------
# the semantics

def _distance(sf: Semifield, d: dict, y):
    """``q- y + y- p``."""
    return sf.add_payload(dot(sf, _conj(sf, d["q"]), y),
                          dot(sf, _conj(sf, y), d["p"]))


def _span_ratio(sf: Semifield, d: dict, x):
    """``(q- B x) ((A x)- p)``."""
    return sf.mul_payload(dot(sf, _conj(sf, d["q"]), _apply(sf, d["B"], x)),
                          dot(sf, _conj(sf, _apply(sf, d["A"], x)), d["p"]))


def _recursion_cap(key: str):
    """Feasibility of ``M x <= x`` for the matrix input ``key``."""
    def admits(sf: Semifield, d: dict, x) -> bool:
        return below(sf, _apply(sf, d[key], x), x)
    return admits


def _bounds(inputs):
    """Feasibility of ``B x + g <= x`` (``g <= x`` without B) and ``C x <=
    h`` (``x <= h`` without C), each bound checked only when ``inputs``
    names it: ``_bounds(())`` admits every x."""
    def admits(sf: Semifield, d: dict, x) -> bool:
        if "g" in inputs:
            lower = d["g"]
            if "B" in inputs:
                lower = map(sf.add_payload, _apply(sf, d["B"], x), lower)
            if not below(sf, lower, x):
                return False
        if "h" not in inputs:
            return True
        return below(sf, _apply(sf, d["C"], x) if "C" in inputs else x, d["h"])
    return admits


def _bordered(kind: str, shapes: dict[str, str],
              flag: str | None = None) -> ProblemKind:
    """The row with the inputs in ``shapes`` of ``min x- A x + x- p + q- x +
    r`` subject to ``B x + g <= x`` and ``C x <= h``.  The objective adds
    the present terms in that order, which matters on the multiplicative
    carriers, whose ``+`` picks an operand within ``REL_TOL``."""
    def value(sf: Semifield, d: dict, x):
        xc = _conj(sf, x)
        val = dot(sf, xc, _apply(sf, d["A"], x))
        if "p" in shapes:
            val = sf.add_payload(val, dot(sf, xc, d["p"]))
        if "q" in shapes:
            val = sf.add_payload(val, dot(sf, _conj(sf, d["q"]), x))
        if "r" in shapes:
            val = sf.add_payload(val, d["r"])
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
