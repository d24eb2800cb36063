"""Direct closed-form solvers for the catalog of tropical optimization problems.

Every solver validates its stated preconditions eagerly.  Structural defects
(wrong regularity of the data, a zero spectral radius) raise
:class:`PreconditionError`; data-dependent emptiness (a cycle weight above
one, incompatible bounds) produces an infeasible report with a
machine-readable reason.  A result that breaks an invariant of its own
closed form raises :class:`InvariantError`.  An optimal report carries the
exact optimum and one of the solution types of :mod:`tropsolve.systems`,
describing the complete solution set, with three exceptions:
``cheb_image_lower`` reports one attaining point, the three ``span_min*``
kinds report one ray of minimizers, and ``span_max`` / ``span_max_norm`` /
``span_max_constrained`` report the family of the first pinned index when
several tie.

The seven kinds with a form ``x- A x``, ``cheb_kleene`` and
``cheb_kleene_box`` are rows of one general problem, ``min x- A x + x- p +
q- x + r`` subject to ``B x + g <= x`` and ``C x <= h``: each row of
:data:`tropsolve.problems.PROBLEM_KINDS` declares which of those inputs it
has, and its solver is :func:`bordered_optimum` with the kind bound.
Without A the optimum has a closed form.  ``cheb_box``, the case without A
and B, is written out, since it reports a box with its own checks.

Solvers are addressed by stable kind identifiers through :func:`solve`,
which checks every input against the shapes declared in
:data:`tropsolve.problems.PROBLEM_KINDS` before it calls the solver with
each input by keyword (``A`` as ``a``); the solvers themselves assume
conforming shapes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from operator import add

from .errors import InvariantError, PreconditionError
from .linalg import (
    Matrix,
    has_cycle,
    is_regular_vector,
    kleene_star,
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
    best = reduce(add, values)
    ties = tuple(i for i, v in enumerate(values) if v == best)
    return ties[0], ties


# ----------------------------------------------------------------------
# Chebyshev-like approximation under boundary and recursion constraints

def solve_cheb_box(p: Matrix, q: Matrix, g: Matrix, h: Matrix) -> OptimumReport:
    """Minimize ``q- x + x- p`` over the box ``g <= x <= h``.

    The optimum is ``(q- p)^(1/2) + q- g + h- p`` (the bordered optimum at
    ``A = B = 0``) and the solutions fill a box whose bounds are exact.
    """
    kind = "cheb_box"
    diags: list = []
    _require(is_regular_vector(p), "p regular", diags)
    _require(is_regular_vector(q), "q regular", diags)
    _require(is_regular_vector(h), "h regular", diags)
    if not _gate(g <= h, "g <= h", diags):
        return _infeasible(kind, INFEASIBLE_BOX, diags)
    mu = (((q.conj() @ p).item() ** _HALF) + (q.conj() @ g).item()
          + (h.conj() @ p).item())
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
    mu = (((a @ wc).conj() @ p).item() ** _HALF) + (q.conj() @ (a @ g)).item()
    x = mu * wc
    diags.append(("solution reported as single point; set may be larger", True))
    return _optimal(kind, mu, BoxSolutionSet(x, x), diags)


# ----------------------------------------------------------------------
# span-seminorm problems

def solve_span_min(a: Matrix, b: Matrix, p: Matrix, q: Matrix) -> OptimumReport:
    """Minimize ``q- B x (A x)- p``; reports one ray of minimizers, and
    the minimizer set may be larger."""
    kind = "span_min"
    diags: list = []
    _require(a.is_row_regular(), "A row-regular", diags)
    _require(b.is_col_regular(), "B column-regular", diags)
    _require(not p.is_zero, "p nonzero", diags)
    _require(is_regular_vector(q), "q regular", diags)
    d = (q.conj() @ b).conj()
    delta = ((a @ d).conj() @ p).item()
    return _optimal(kind, delta, RaySolution(d), diags)


def solve_span_min_special(a: Matrix) -> OptimumReport:
    """Minimize the span of ``A x`` (largest component over smallest)."""
    diags: list = []
    _require(a.is_regular(), "A regular", diags)
    ones = Matrix.ones(a.sf, a.rows, 1)
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
    delta = ((m @ w).conj() @ Matrix.ones(c.sf, c.rows, 1)).item()
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
    _require(is_regular_vector(a), "A has regular columns", diags)
    _require(b.is_col_regular(), "B column-regular", diags)
    _require(is_regular_vector(p), "p regular", diags)
    _require(is_regular_vector(q), "q regular", diags)
    qc = q.conj()
    col_scores = [(qc @ b.column(i)).item() * (a.column(i).conj() @ p).item()
                  for i in range(n)]
    k, ties = _argbest(col_scores)
    delta = (qc @ b @ a.conj() @ p).item()
    if delta != col_scores[k]:
        raise InvariantError(
            f"{kind}: best column score {col_scores[k]!r} is not the optimum {delta!r}")
    s, _ = _argbest([a[i, k].inv() * p[i] for i in range(m)])
    pinned = (a.column(k).conj() @ p).item()
    bounds = tuple(None if j == k else a[s, j].inv() * p[s] for j in range(n))
    family = ComponentwiseFamily(k, pinned, bounds, s, ties)
    return _optimal(kind, delta, family, diags)


def solve_span_max_norm(a: Matrix, b: Matrix) -> OptimumReport:
    """Maximize ``norm(B x) * norm((A x)-)``; the optimum is ``norm(B A-)``."""
    inner = solve_span_max(a, b, Matrix.ones(a.sf, a.rows, 1),
                           Matrix.ones(b.sf, b.rows, 1))
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

def bordered_optimum(kind: str, a: Matrix | None = None, *,
                     b: Matrix | None = None, c: Matrix | None = None,
                     p: Matrix | None = None, q: Matrix | None = None,
                     r: Scalar | None = None, g: Matrix | None = None,
                     h: Matrix | None = None,
                     flag: str | None = None) -> OptimumReport:
    """Report on ``min x- A x + x- p + q- x + r`` subject to ``B x + g <= x``
    and ``C x <= h`` (a box when C is absent), absent inputs being zero;
    without A, B, p and q must be present.

    The gates run in one order, each only when its input is present:
    ``spectral radius > zero`` (``p nonzero`` without A), ``C
    column-regular`` (an all-zero C is a vacuous cap), ``q regular``, ``h
    regular``, ``Tr(B) <= one``, and the cap gate ``v w <= one`` for ``w =
    B* g``, ``v = cap B*``, ``cap = h- C``, named after the inputs it reads:
    ``h- C B* g <= one``, ``h- B* g <= one`` or ``h- g <= one``.

    ``theta = lambda(Z* U)`` on n + 1 nodes, for ``U = [[A, p], [q-, r]]``
    and ``Z = [[B, g], [cap, zero]]``: the largest ratio of weight to
    U-edges over the cycles of ``U + Z``.  Past the gates ``Z*`` is the block
    closure ``[[B* + w v, w], [v, one]]``.  The minimizers are ``G u`` for
    ``G = (theta^-1 A + B)*``, ``theta^-1 p + g <= u`` and
    ``u <= ((theta^-1 q- + cap) G)-``; a bound with no input stays None.
    ``flag`` names the diagnostic that records whether G is a closure.

    With A alone ``theta`` is the spectral radius ``lambda(A)``.  Under
    ``B x + g <= x`` without a cap it is ``lambda(B* A)``, the largest ratio
    of weight to number of A-edges over the cycles of the digraph of
    ``A + B``, with or without p, since no cycle runs through p.  Under both
    constraints it is ``lambda(B* A + B* g h- C B* A)``.  Without A a cycle
    carries at most two U-edges, ``q-`` and p, so ``theta`` is the closed
    form ``(q- B* p)^(1/2) + (cap B* p + r) + q- B* g`` and ``G = B*``, with
    no spectral radius taken.
    """
    diags: list = []
    if a is None:
        _require(not p.is_zero, "p nonzero", diags)
        sf, n = p.sf, p.rows
    else:
        _require(has_cycle(a), "spectral radius > zero", diags)
        sf, n = a.sf, a.rows
    if c is not None and not c.is_zero:
        _require(c.is_col_regular(), "C column-regular", diags)
    if q is not None:
        _require(is_regular_vector(q), "q regular", diags)
    cap = None
    if h is not None:
        _require(is_regular_vector(h), "h regular", diags)
        cap = h.conj() if c is None else None if c.is_zero else h.conj() @ c
    zero_col = Matrix.zeros(sf, n, 1)
    pz = zero_col if p is None else p
    w = zero_col if g is None else g
    v = Matrix.zeros(sf, 1, n) if cap is None else cap
    if b is not None:
        closure = kleene_star(b)
        if not _gate(closure.closure_valid, "Tr(B) <= one", diags):
            return _infeasible(kind, NO_REGULAR_SOLUTION, diags)
        bs = closure.matrix
        if g is not None:
            w = bs @ w
        if cap is not None:
            v = v @ bs
    cap_gate = "h-" + " C" * (c is not None) + " B*" * (b is not None) + " g <= one"
    if h is not None and not _gate((v @ w).item() <= sf.one, cap_gate, diags):
        return _infeasible(kind, INFEASIBLE_BOX, diags)
    qc = None if q is None else q.conj()
    s = (v @ pz).item() + (sf.zero if r is None else r)
    if a is None:
        gen = bs
        qb = qc @ bs
        theta = ((qb @ p).item() ** _HALF) + s + (qc @ w).item()
        t_inv = theta.inv()
        upper = ((t_inv * qb) + v).conj()  # the n^2 product q- B* ran without theta
    else:
        top, right = (a, pz) if b is None else (bs @ a, bs @ pz)
        # Z* U = [[B* A + w y, B* p + w s], [y, s]], where w is zero without g
        y = v @ a if qc is None else (v @ a) + qc
        if g is not None:
            top, right = top + (w @ y), right + (s * w)
        if s.is_zero and (y.is_zero or right.is_zero):
            theta = spectral_radius(top)  # the border node is on no cycle
        else:
            rows = tuple(t + e for t, e in zip(top.p, right.p)) + (y.p[0] + (s.v,),)
            theta = spectral_radius(Matrix._raw(sf, rows))
        t_inv = theta.inv()
        scaled = t_inv * a if b is None else (t_inv * a) + b
        if flag is None:
            gen = scaled.star()  # the method, whose calls perfbench traces
        else:
            closure = kleene_star(scaled)
            diags.append((flag, closure.closure_valid))
            gen = closure.matrix
        row = cap if qc is None else (t_inv * qc if cap is None else (t_inv * qc) + cap)
        upper = None if row is None else (row @ gen).conj()
    lower = g if p is None else (t_inv * p if g is None else (t_inv * p) + g)
    return _optimal(kind, theta, GeneratedSolutionSet(gen, lower, upper), diags)


# ----------------------------------------------------------------------
# dispatch by stable kind identifier

def solve(kind: str, **data) -> OptimumReport:
    """Check the inputs against the kind's declared shapes, then call its
    solver with each input by keyword, its name in lower case."""
    from .problems import PROBLEM_KINDS  # the registry imports this module
    if kind not in PROBLEM_KINDS:
        raise KeyError(f"unknown problem kind {kind!r}")
    pk = PROBLEM_KINDS[kind]
    missing = [f for f in pk.shapes if f not in data]
    if missing:
        raise TypeError(f"{kind} needs fields {missing}")
    pk.dim(data)
    return pk.solver(**{f.lower(): data[f] for f in pk.shapes})
