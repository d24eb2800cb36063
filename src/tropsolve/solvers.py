"""Direct closed-form solvers for the catalog of tropical optimization problems.

Every solver validates its stated preconditions eagerly.  Structural defects
(wrong regularity of the data, a zero spectral radius) raise
:class:`PreconditionError`; data-dependent emptiness (a cycle weight above
one, incompatible bounds) produces an infeasible report with a
machine-readable reason.  A result that breaks an invariant of its own
closed form raises :class:`InvariantError`.  An optimal report carries the
exact optimum and one of the solution types of :mod:`tropsolve.systems`,
describing the complete solution set, except where a solver is documented
to return a single attaining point.

Solvers are addressed by stable kind identifiers through :func:`solve`,
which checks every input against the shapes declared in
:data:`tropsolve.problems.PROBLEM_KINDS` before it calls the solver; the
solvers themselves assume conforming shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import InvariantError, PreconditionError
from .linalg import (
    Matrix,
    is_regular_vector,
    kleene_star,
    ones_vector,
    spectral_radius,
)
from .semifield import Scalar
from .systems import (
    INFEASIBLE_BOX,
    NO_REGULAR_SOLUTION,
    BoxSolutionSet,
    ComponentwiseFamily,
    GeneratedSolutionSet,
    RaySolution,
)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class OptimumReport:
    kind: str
    status: str
    optimum: Scalar | None
    solution: object | None
    reason: str | None
    diagnostics: tuple[tuple[str, bool], ...]


# ----------------------------------------------------------------------
# shared plumbing

def _val(m: Matrix) -> Scalar:
    return m.item()


def _require(cond: bool, name: str, diags: list) -> None:
    diags.append((name, bool(cond)))
    if not cond:
        raise PreconditionError(name)


def _gate(cond: bool, name: str, diags: list) -> bool:
    diags.append((name, bool(cond)))
    return bool(cond)


def _optimal(kind: str, optimum: Scalar, solution, diags: list) -> OptimumReport:
    # an explicit check, not an assert: ``python -O`` strips asserts
    if solution.is_empty:
        raise InvariantError(f"{kind}: empty solution set at the optimum")
    return OptimumReport(kind, OPTIMAL, optimum, solution, None, tuple(diags))


def _infeasible(kind: str, reason: str, diags: list) -> OptimumReport:
    return OptimumReport(kind, INFEASIBLE, None, None, reason, tuple(diags))


def _argbest(values: list[Scalar]) -> tuple[int, tuple[int, ...]]:
    """First index attaining the idempotent sum of `values`, plus all ties."""
    best = values[0].sf.sum(values)
    ties = tuple(i for i, v in enumerate(values) if v == best)
    return ties[0], ties


# ----------------------------------------------------------------------
# Chebyshev-like approximation under boundary and recursion constraints

def solve_cheb_box(p: Matrix, q: Matrix, g: Matrix, h: Matrix) -> OptimumReport:
    """Minimize ``q- x + x- p`` over the box ``g <= x <= h``.

    The optimum is ``(q- p)^(1/2) + q- g + h- p`` and the solutions fill
    a box whose bounds are returned exactly.
    """
    kind = "cheb_box"
    diags: list = []
    _require(is_regular_vector(p), "p regular", diags)
    _require(is_regular_vector(q), "q regular", diags)
    _require(is_regular_vector(h), "h regular", diags)
    if not _gate(g <= h, "g <= h", diags):
        return _infeasible(kind, INFEASIBLE_BOX, diags)
    mu = (_val(q.conj() @ p) ** _HALF) + _val(q.conj() @ g) + _val(h.conj() @ p)
    lower = (mu.inv() * p) + g
    upper = ((mu.inv() * q.conj()) + h.conj()).conj()
    return _optimal(kind, mu, BoxSolutionSet(lower, upper), diags)


def solve_cheb_image_lower(a: Matrix, p: Matrix, q: Matrix, g: Matrix) -> OptimumReport:
    """Minimize ``q- A x + (A x)- p`` subject to ``x >= g``.

    Returns one attaining point (as a degenerate box); the full minimizer
    set may be larger, which the diagnostics flag.
    """
    kind = "cheb_image_lower"
    diags: list = []
    _require(a.is_regular(), "A regular", diags)
    _require(is_regular_vector(p), "p regular", diags)
    _require(is_regular_vector(q), "q regular", diags)
    wc = (q.conj() @ a).conj()
    mu = (_val((a @ wc).conj() @ p) ** _HALF) + _val(q.conj() @ (a @ g))
    x = mu * wc
    diags.append(("solution reported as single point; set may be larger", True))
    return _optimal(kind, mu, BoxSolutionSet(x, x), diags)


def solve_cheb_kleene_box(b: Matrix, p: Matrix, q: Matrix,
                          g: Matrix, h: Matrix) -> OptimumReport:
    """Minimize ``x- p + q- x`` subject to ``B x + g <= x`` and ``x <= h``."""
    kind = "cheb_kleene_box"
    diags: list = []
    _require(not p.is_zero, "p nonzero", diags)
    _require(is_regular_vector(q), "q regular", diags)
    _require(is_regular_vector(h), "h regular", diags)
    closure = kleene_star(b)
    if not _gate(closure.closure_valid, "Tr(B) <= one", diags):
        return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
    bs = closure.matrix
    if not _gate(_val(h.conj() @ (bs @ g)) <= b.sf.one, "h- B* g <= one", diags):
        return _infeasible(kind, INFEASIBLE_BOX, diags)
    theta = ((_val(q.conj() @ (bs @ p)) ** _HALF)
             + _val(h.conj() @ (bs @ p))
             + _val(q.conj() @ (bs @ g)))
    lower = g + theta.inv() * p
    upper = ((h.conj() + theta.inv() * q.conj()) @ bs).conj()
    sol = GeneratedSolutionSet(bs, lower, upper)
    return _optimal(kind, theta, sol, diags)


def solve_cheb_kleene(b: Matrix, p: Matrix, q: Matrix) -> OptimumReport:
    """Minimize ``x- p + q- x`` subject to ``B x <= x``."""
    kind = "cheb_kleene"
    diags: list = []
    _require(not p.is_zero, "p nonzero", diags)
    _require(is_regular_vector(q), "q regular", diags)
    closure = kleene_star(b)
    if not _gate(closure.closure_valid, "Tr(B) <= one", diags):
        return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
    bs = closure.matrix
    theta = _val(q.conj() @ (bs @ p)) ** _HALF
    lower = theta.inv() * p
    upper = theta * (q.conj() @ bs).conj()
    sol = GeneratedSolutionSet(bs, lower, upper)
    return _optimal(kind, theta, sol, diags)


# ----------------------------------------------------------------------
# span-seminorm problems

def solve_span_min(a: Matrix, b: Matrix, p: Matrix, q: Matrix) -> OptimumReport:
    """Minimize ``q- B x (A x)- p``; the minimizers form a single ray."""
    kind = "span_min"
    diags: list = []
    _require(a.is_row_regular(), "A row-regular", diags)
    _require(b.is_col_regular(), "B column-regular", diags)
    _require(not p.is_zero, "p nonzero", diags)
    _require(is_regular_vector(q), "q regular", diags)
    d = (q.conj() @ b).conj()
    delta = _val((a @ d).conj() @ p)
    return _optimal(kind, delta, RaySolution(d), diags)


def solve_span_min_special(a: Matrix) -> OptimumReport:
    """Minimize the span of ``A x`` (largest component over smallest)."""
    diags: list = []
    _require(a.is_regular(), "A regular", diags)
    ones = ones_vector(a.sf, a.rows)
    inner = solve_span_min(a, a, ones, ones)
    return replace(inner, kind="span_min_special",
                   diagnostics=tuple(diags) + inner.diagnostics)


def solve_span_min_constrained(c: Matrix, d: Matrix) -> OptimumReport:
    """Minimize the span of ``C x`` subject to ``D x <= x``."""
    kind = "span_min_constrained"
    diags: list = []
    _require(c.is_regular(), "C regular", diags)
    closure = kleene_star(d)
    if not _gate(closure.closure_valid, "Tr(D) <= one", diags):
        return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
    ds = closure.matrix
    m = c @ ds
    w = (Matrix.ones(c.sf, 1, c.rows) @ m).conj()
    delta = _val((m @ w).conj() @ ones_vector(c.sf, c.rows))
    return _optimal(kind, delta, RaySolution(ds @ w), diags)


def solve_span_max(a: Matrix, b: Matrix, p: Matrix, q: Matrix) -> OptimumReport:
    """Maximize ``q- B x (A x)- p``.

    Requires every column of A to be regular, i.e. A free of zeros;
    with zero entries in A the objective is unbounded above and the
    closed form does not apply.
    """
    kind = "span_max"
    m, n = a.shape
    diags: list = []
    _require(a.has_regular_columns(), "A has regular columns", diags)
    _require(b.is_col_regular(), "B column-regular", diags)
    _require(is_regular_vector(p), "p regular", diags)
    _require(is_regular_vector(q), "q regular", diags)
    qc = q.conj()
    col_scores = [_val(qc @ b.column(i)) * _val(a.column(i).conj() @ p)
                  for i in range(n)]
    k, ties = _argbest(col_scores)
    delta = _val(qc @ b @ a.conj() @ p)
    if delta != col_scores[k]:
        raise InvariantError(
            f"{kind}: best column score {col_scores[k]!r} is not the optimum {delta!r}")
    s, _ = _argbest([a[i, k].inv() * p[i] for i in range(m)])
    pinned = _val(a.column(k).conj() @ p)
    bounds = tuple(None if j == k else a[s, j].inv() * p[s] for j in range(n))
    family = ComponentwiseFamily(k, pinned, bounds, s, ties)
    return _optimal(kind, delta, family, diags)


def solve_span_max_norm(a: Matrix, b: Matrix) -> OptimumReport:
    """Maximize ``norm(B x) * norm((A x)-)``; the optimum is ``norm(B A-)``."""
    inner = solve_span_max(a, b, ones_vector(a.sf, a.rows),
                           ones_vector(b.sf, b.rows))
    return replace(inner, kind="span_max_norm")


def solve_span_max_constrained(a: Matrix, b: Matrix, c: Matrix,
                               p: Matrix, q: Matrix) -> OptimumReport:
    """Maximize ``q- B x (A x)- p`` subject to ``C x <= x``.

    Substitutes the complete constraint solution ``x = star(C) u`` and
    solves the unconstrained problem in ``u``; the family is reported in
    ``u`` together with the generator mapping back to ``x``.
    """
    kind = "span_max_constrained"
    diags: list = []
    closure = kleene_star(c)
    if not _gate(closure.closure_valid, "Tr(C) <= one", diags):
        return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
    cs = closure.matrix
    inner = solve_span_max(a @ cs, b @ cs, p, q)
    family = replace(inner.solution, generator=cs)
    return OptimumReport(kind, OPTIMAL, inner.optimum, family, None,
                         tuple(diags) + inner.diagnostics)


# ----------------------------------------------------------------------
# quadratic-form problems built on the spectral radius

def solve_rayleigh(a: Matrix) -> OptimumReport:
    """Minimize ``x- A x`` over regular x; the optimum is the spectral radius."""
    kind = "rayleigh"
    diags: list = []
    lam = spectral_radius(a)
    _require(not lam.is_zero, "spectral radius > zero", diags)
    gen = (lam.inv() * a).star()
    return _optimal(kind, lam, GeneratedSolutionSet(gen, None, None), diags)


def solve_rayleigh_affine(a: Matrix, p: Matrix, q: Matrix, r: Scalar) -> OptimumReport:
    """Minimize ``x- A x + x- p + q- x + r`` over regular x."""
    kind = "rayleigh_affine"
    diags: list = []
    lam = spectral_radius(a)
    _require(not lam.is_zero, "spectral radius > zero", diags)
    _require(is_regular_vector(q), "q regular", diags)
    mu = lam + r
    qc = q.conj()
    v = p  # A^(m-1) p
    for m in range(1, a.rows + 1):
        if m > 1:
            v = a @ v
        mu = mu + _val(qc @ v) ** Fraction(1, m + 1)
    gen = (mu.inv() * a).star()
    lower = mu.inv() * p
    upper = mu * (qc @ gen).conj()
    sol = GeneratedSolutionSet(gen, lower, upper)
    return _optimal(kind, mu, sol, diags)


def _theta_lower(a: Matrix, b: Matrix, diags: list) -> Scalar | None:
    """Optimum of ``x- A x`` under ``B x + g <= x``, or None when a cycle of
    B weighs more than one.

    The optimum is ``lambda(B* A)``: the largest ratio of weight to number
    of A-edges over the cycles of the digraph of ``A + B``.
    """
    lam = spectral_radius(a)
    _require(not lam.is_zero, "spectral radius > zero", diags)
    closure = kleene_star(b)
    if not _gate(closure.closure_valid, "Tr(B) <= one", diags):
        return None
    return spectral_radius(closure.matrix @ a)


def solve_rayleigh_two_constraints(a: Matrix, b: Matrix, c: Matrix,
                                   g: Matrix, h: Matrix) -> OptimumReport:
    """Minimize ``x- A x`` subject to ``B x + g <= x`` and ``C x <= h``.

    The optimum is ``lambda(B* A) + sum_k (h- C (B* A)^k B* g)^(1/k)`` over
    k = 1..n: the largest weight-to-A-edge ratio over the cycles of the
    digraph of ``A + B`` with one extra node joined by ``g`` and ``h- C``.
    An all-zero C (vacuous cap) is accepted and drops the upper bound.
    """
    kind = "rayleigh_two_constraints"
    diags: list = []
    lam = spectral_radius(a)
    _require(not lam.is_zero, "spectral radius > zero", diags)
    c_vacuous = c.is_zero
    if not c_vacuous:
        _require(c.is_col_regular(), "C column-regular", diags)
    _require(is_regular_vector(h), "h regular", diags)
    closure = kleene_star(b)
    if not _gate(closure.closure_valid, "Tr(B) <= one", diags):
        return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
    bs = closure.matrix
    v = bs @ g  # (B* A)^k B* g
    if not _gate(_val(h.conj() @ (c @ v)) <= a.sf.one, "h- C B* g <= one", diags):
        return _infeasible(kind, INFEASIBLE_BOX, diags)
    hc, bsa = h.conj() @ c, bs @ a
    theta = spectral_radius(bsa)
    for k in range(1, a.rows + 1):
        v = bsa @ v
        theta = theta + _val(hc @ v) ** Fraction(1, k)
    closure = kleene_star((theta.inv() * a) + b)
    gen = closure.matrix
    diags.append(("Tr(theta^-1 A + B) <= one", closure.closure_valid))
    upper = None if c_vacuous else (hc @ gen).conj()
    sol = GeneratedSolutionSet(gen, g, upper)
    return _optimal(kind, theta, sol, diags)


def solve_rayleigh_lower(a: Matrix, b: Matrix, g: Matrix) -> OptimumReport:
    """Minimize ``x- A x`` subject to ``B x + g <= x``; the optimum is
    ``lambda(B* A)``."""
    kind = "rayleigh_lower"
    diags: list = []
    theta = _theta_lower(a, b, diags)
    if theta is None:
        return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
    gen = ((theta.inv() * a) + b).star()
    return _optimal(kind, theta, GeneratedSolutionSet(gen, g, None), diags)


def solve_rayleigh_box(a: Matrix, g: Matrix, h: Matrix) -> OptimumReport:
    """Minimize ``x- A x`` over the box ``g <= x <= h``."""
    kind = "rayleigh_box"
    diags: list = []
    lam = spectral_radius(a)
    _require(not lam.is_zero, "spectral radius > zero", diags)
    _require(is_regular_vector(h), "h regular", diags)
    if not _gate(_val(h.conj() @ g) <= a.sf.one, "h- g <= one", diags):
        return _infeasible(kind, INFEASIBLE_BOX, diags)
    theta = lam
    hc, v = h.conj(), g  # A^k g
    for k in range(1, a.rows + 1):
        v = a @ v
        theta = theta + _val(hc @ v) ** Fraction(1, k)
    gen = (theta.inv() * a).star()
    upper = (h.conj() @ gen).conj()
    sol = GeneratedSolutionSet(gen, g, upper)
    return _optimal(kind, theta, sol, diags)


def solve_rayleigh_p_lower(a: Matrix, b: Matrix, p: Matrix, g: Matrix) -> OptimumReport:
    """Minimize ``x- A x + x- p`` subject to ``B x + g <= x``; the optimum
    is ``lambda(B* A)``."""
    kind = "rayleigh_p_lower"
    diags: list = []
    theta = _theta_lower(a, b, diags)
    if theta is None:
        return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
    gen = ((theta.inv() * a) + b).star()
    lower = (theta.inv() * p) + g
    return _optimal(kind, theta, GeneratedSolutionSet(gen, lower, None), diags)


def solve_new_boxed_spectral(a: Matrix, p: Matrix, q: Matrix, g: Matrix,
                             h: Matrix, r: Scalar) -> OptimumReport:
    """Minimize ``x- A x + x- p + q- x + r`` over the box ``g <= x <= h``."""
    kind = "new_boxed_spectral"
    diags: list = []
    lam = spectral_radius(a)
    _require(not lam.is_zero, "spectral radius > zero", diags)
    _require(is_regular_vector(q), "q regular", diags)
    _require(is_regular_vector(h), "h regular", diags)
    if not _gate(_val(h.conj() @ g) <= a.sf.one, "h- g <= one", diags):
        return _infeasible(kind, INFEASIBLE_BOX, diags)
    qc, hc = q.conj(), h.conj()
    ap, ag = p, g  # A^m p and A^m g
    mu = lam + r
    for m in range(a.rows):
        if m >= 1:
            ap, ag = a @ ap, a @ ag
        mu = mu + _val(qc @ ap) ** Fraction(1, m + 2)
        mu = mu + (_val(qc @ ag) + _val(hc @ ap)) ** Fraction(1, m + 1)
        if m >= 1:
            mu = mu + _val(hc @ ag) ** Fraction(1, m)
    closure = kleene_star(mu.inv() * a)
    gen = closure.matrix
    diags.append(("Tr(mu^-1 A) <= one", closure.closure_valid))
    lower = (mu.inv() * p) + g
    upper = (((mu.inv() * qc) + hc) @ gen).conj()
    sol = GeneratedSolutionSet(gen, lower, upper)
    return _optimal(kind, mu, sol, diags)


# ----------------------------------------------------------------------
# dispatch by stable kind identifier

def solve(kind: str, **data) -> OptimumReport:
    """Check the inputs against the kind's declared shapes, then call its
    solver."""
    from .problems import PROBLEM_KINDS  # the registry imports this module
    if kind not in PROBLEM_KINDS:
        raise KeyError(f"unknown problem kind {kind!r}")
    pk = PROBLEM_KINDS[kind]
    missing = [f for f in pk.shapes if f not in data]
    if missing:
        raise TypeError(f"{kind} needs fields {missing}")
    pk.dim(data)
    return pk.solver(*(data[f] for f in pk.shapes))
