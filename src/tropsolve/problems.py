"""Problem-kind registry: the one table of per-kind facts.

Each :class:`ProblemKind` names its inputs with their declared shapes, its
closed-form solver, and the objective and feasibility semantics of the
problem, stated independently of the closed forms.  :func:`solvers.solve`
checks shapes and dispatches through this table, the document reader and
writer walk its shapes, and the oracle evaluates the semantics pointwise
during grid search and when re-checking sampled solution-set members, so a
bug in a solver formula cannot hide behind itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import solvers
from .errors import ShapeError
from .linalg import Matrix
from .semifield import Scalar


@dataclass(frozen=True)
class ProblemKind:
    """One problem kind.

    ``shapes`` maps each input name, in the solver's argument order, to its
    dimension letters: two letters for a matrix (rows, columns), one for a
    column vector, none for a scalar.  Equal letters must bind to equal
    sizes, and ``n`` is the dimension of the unknown x.
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


def _rayleigh_objective(data, x):
    return (x.conj() @ (data["A"] @ x)).item()


def _rayleigh_affine_objective(data, x):
    return (_rayleigh_objective(data, x)
            + (x.conj() @ data["p"]).item()
            + (data["q"].conj() @ x).item()
            + data["r"])


def _rayleigh_p_objective(data, x):
    return _rayleigh_objective(data, x) + (x.conj() @ data["p"]).item()


def _box_feasible(data, x):
    return data["g"] <= x and x <= data["h"]


def _sub_fixpoint_feasible(key_matrix: str):
    def check(data, x):
        return (data[key_matrix] @ x) + data["g"] <= x
    return check


def _recursion_cap_feasible(key_matrix: str):
    def check(data, x):
        return (data[key_matrix] @ x) <= x
    return check


def _two_constraints_feasible(data, x):
    return ((data["B"] @ x) + data["g"] <= x
            and (data["C"] @ x) <= data["h"])


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
    ProblemKind(
        "rayleigh", "min", {"A": "nn"}, solvers.solve_rayleigh,
        objective=_rayleigh_objective,
        feasible=_unconstrained),
    ProblemKind(
        "rayleigh_affine", "min", {"A": "nn", "p": "n", "q": "n", "r": ""},
        solvers.solve_rayleigh_affine,
        objective=_rayleigh_affine_objective,
        feasible=_unconstrained),
    ProblemKind(
        "rayleigh_two_constraints", "min",
        {"A": "nn", "B": "nn", "C": "kn", "g": "n", "h": "k"},
        solvers.solve_rayleigh_two_constraints,
        objective=_rayleigh_objective,
        feasible=_two_constraints_feasible),
    ProblemKind(
        "rayleigh_lower", "min", {"A": "nn", "B": "nn", "g": "n"},
        solvers.solve_rayleigh_lower,
        objective=_rayleigh_objective,
        feasible=_sub_fixpoint_feasible("B")),
    ProblemKind(
        "rayleigh_box", "min", {"A": "nn", "g": "n", "h": "n"},
        solvers.solve_rayleigh_box,
        objective=_rayleigh_objective,
        feasible=_box_feasible),
    ProblemKind(
        "rayleigh_p_lower", "min", {"A": "nn", "B": "nn", "p": "n", "g": "n"},
        solvers.solve_rayleigh_p_lower,
        objective=_rayleigh_p_objective,
        feasible=_sub_fixpoint_feasible("B")),
    ProblemKind(
        "new_boxed_spectral", "min", 
        {"A": "nn", "p": "n", "q": "n", "g": "n", "h": "n", "r": ""},
        solvers.solve_new_boxed_spectral,
        objective=_rayleigh_affine_objective,
        feasible=_box_feasible),
)}
