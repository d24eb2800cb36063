"""Problem-kind registry: the one table of per-kind facts.

Each :class:`ProblemKind` names its inputs with their declared shapes, its
closed-form solver, and the objective and feasibility semantics of the
problem, stated independently of the closed forms.  :func:`solvers.solve`
checks shapes and dispatches through this table, the document reader and
writer walk its shapes, and the oracle evaluates the semantics pointwise
during grid search and when re-checking sampled solution-set members, so a
bug in a solver formula cannot hide behind itself.

The seven spectral kinds are rows of one general problem: a row lists the
inputs it has, and :func:`_bordered` builds its solver and semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from . import solvers
from .errors import ShapeError
from .linalg import Matrix
from .semifield import Scalar


@dataclass(frozen=True)
class ProblemKind:
    """One problem kind.

    ``shapes`` maps each input name to its dimension letters: two letters
    for a matrix (rows, columns), one for a column vector, none for a
    scalar.  Equal letters must bind to equal sizes, and ``n`` is the
    dimension of the unknown x.  The solver takes each input as the keyword
    argument of the same name in lower case.
    """

    kind: str
    sense: str  # "min" | "max"
    shapes: dict[str, str]
    solver: Callable[..., solvers.OptimumReport]
    objective: Callable[[dict, Matrix], Scalar]
    feasible: Callable[[dict, Matrix], bool]

    def dim(self, data: dict) -> int:
        """Check every input against its declared shape and return ``n``.

        Each letter takes its size from the first input that has it; a
        :class:`ShapeError` names the first input that disagrees, and the
        input that set the size.
        """
        sizes: dict[str, tuple[int, str]] = {}  # letter -> (size, set by)
        for name, letters in self.shapes.items():
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


def _unconstrained(data: dict, x: Matrix) -> bool:
    return True


def _cheb_objective(data, x):
    return (data["q"].conj() @ x).item() + (x.conj() @ data["p"]).item()


def _cheb_image_objective(data, x):
    ax = data["A"] @ x
    return (data["q"].conj() @ ax).item() + (ax.conj() @ data["p"]).item()


def _span_objective(data, x):
    return ((data["q"].conj() @ (data["B"] @ x)).item()
            * ((data["A"] @ x).conj() @ data["p"]).item())


def _span_of(y: Matrix) -> Scalar:
    return y.norm() * y.conj().norm()


def _box_feasible(data, x):
    return data["g"] <= x and x <= data["h"]


def _recursion_cap_feasible(key_matrix: str):
    def check(data, x):
        return (data[key_matrix] @ x) <= x
    return check


def _bordered(kind: str, shapes: dict[str, str],
              flag: str | None = None) -> ProblemKind:
    """The row with the inputs in ``shapes`` of ``min x- A x + x- p + q- x +
    r`` subject to ``B x + g <= x`` (``g <= x`` without B) and ``C x <= h``
    (``x <= h`` without C).  The objective adds the present terms in that
    order, which matters on the multiplicative carriers, whose ``+`` picks
    an operand within ``REL_TOL``."""
    def objective(d: dict, x: Matrix) -> Scalar:
        xc = x.conj()
        val = (xc @ (d["A"] @ x)).item()
        if "p" in shapes:
            val = val + (xc @ d["p"]).item()
        if "q" in shapes:
            val = val + (d["q"].conj() @ x).item()
        if "r" in shapes:
            val = val + d["r"]
        return val

    def feasible(d: dict, x: Matrix) -> bool:
        if "g" in shapes:
            lower = (d["B"] @ x) + d["g"] if "B" in shapes else d["g"]
            if not lower <= x:
                return False
        return "h" not in shapes or (d["C"] @ x if "C" in shapes else x) <= d["h"]

    return ProblemKind(kind, "min", shapes,
                       partial(solvers.bordered_optimum, kind, flag=flag),
                       objective, feasible)


PROBLEM_KINDS: dict[str, ProblemKind] = {pk.kind: pk for pk in (
    ProblemKind(
        "cheb_box", "min", {"p": "n", "q": "n", "g": "n", "h": "n"},
        solvers.solve_cheb_box,
        objective=_cheb_objective,
        feasible=_box_feasible),
    ProblemKind(
        "cheb_image_lower", "min", {"A": "mn", "p": "m", "q": "m", "g": "n"},
        solvers.solve_cheb_image_lower,
        objective=_cheb_image_objective,
        feasible=lambda d, x: d["g"] <= x),
    ProblemKind(
        "cheb_kleene_box", "min", {"B": "nn", "p": "n", "q": "n", "g": "n", "h": "n"},
        solvers.solve_cheb_kleene_box,
        objective=_cheb_objective,
        feasible=lambda d, x: (d["B"] @ x) + d["g"] <= x and x <= d["h"]),
    ProblemKind(
        "cheb_kleene", "min", {"B": "nn", "p": "n", "q": "n"},
        solvers.solve_cheb_kleene,
        objective=_cheb_objective,
        feasible=_recursion_cap_feasible("B")),
    ProblemKind(
        "span_min", "min", {"A": "mn", "B": "mn", "p": "m", "q": "m"},
        solvers.solve_span_min,
        objective=_span_objective,
        feasible=_unconstrained),
    ProblemKind(
        "span_min_special", "min", {"A": "mn"}, solvers.solve_span_min_special,
        objective=lambda d, x: _span_of(d["A"] @ x),
        feasible=_unconstrained),
    ProblemKind(
        "span_min_constrained", "min", {"C": "nn", "D": "nn"},
        solvers.solve_span_min_constrained,
        objective=lambda d, x: _span_of(d["C"] @ x),
        feasible=_recursion_cap_feasible("D")),
    ProblemKind(
        "span_max", "max", {"A": "mn", "B": "kn", "p": "m", "q": "k"},
        solvers.solve_span_max,
        objective=_span_objective,
        feasible=_unconstrained),
    ProblemKind(
        "span_max_norm", "max", {"A": "mn", "B": "kn"},
        solvers.solve_span_max_norm,
        objective=lambda d, x: (d["B"] @ x).norm() * (d["A"] @ x).conj().norm(),
        feasible=_unconstrained),
    ProblemKind(
        "span_max_constrained", "max",
        {"A": "mn", "B": "kn", "C": "nn", "p": "m", "q": "k"},
        solvers.solve_span_max_constrained,
        objective=_span_objective,
        feasible=_recursion_cap_feasible("C")),
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
