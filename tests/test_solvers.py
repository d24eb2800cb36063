"""Closed-form solvers: frozen spec examples, reductions between kinds,
and targeted oracle cross-checks (the acceptance suite sweeps more widely)."""

import inspect
import pathlib
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from tropsolve import (
    INFEASIBLE,
    INFEASIBLE_BOX,
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    NO_REGULAR_SOLUTION,
    OPTIMAL,
    PROBLEM_KINDS,
    ComponentwiseFamily,
    InvariantError,
    Matrix,
    PreconditionError,
    RaySolution,
    ShapeError,
    sample_solution_set,
    solve,
    spectral_radius,
    tr_functional,
    vector,
    verify_report,
)
from tropsolve import solvers
from tropsolve.gen import generate
from tropsolve.systems import BoxSolutionSet


def mp(rows):
    return Matrix.from_rows(MAX_PLUS, rows)


def vec(*entries):
    return vector(MAX_PLUS, entries)


def _attained(kind, data, report, samples=12, seed=0):
    pk = PROBLEM_KINDS[kind]
    for x in sample_solution_set(report.solution, samples, seed):
        assert pk.feasible(data, x)
        assert pk.objective(data, x) == report.optimum


# ----------------------------------------------------------------------
# Chebyshev-like kinds

def test_cheb_box_examples():
    rep = solve("cheb_box", p=vec(4), q=vec(0), g=vec(1), h=vec(3))
    assert rep.optimum.v == 2
    assert rep.solution.lower.to_payloads() == [[2]]
    assert rep.solution.upper.to_payloads() == [[2]]

    rep = solve("cheb_box", p=vec(0), q=vec(0), g=vec(0), h=vec(0))
    assert rep.optimum.v == 0
    assert rep.solution.lower == rep.solution.upper == vec(0)


def test_cheb_box_pinned_box_equals_objective_at_g():
    rng = random.Random(31)
    pk = PROBLEM_KINDS["cheb_box"]
    for _ in range(50):
        n = rng.randint(1, 4)
        g = vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(n)])
        data = {"p": vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(n)]),
                "q": vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(n)]),
                "g": g, "h": g}
        rep = solve("cheb_box", **data)
        assert rep.solution.lower == g and rep.solution.upper == g
        assert rep.optimum == pk.objective(data, g)


def test_cheb_box_infeasible_when_bounds_cross():
    rep = solve("cheb_box", p=vec(0), q=vec(0), g=vec(3), h=vec(1))
    assert rep.status == INFEASIBLE and rep.reason == INFEASIBLE_BOX


def test_cheb_image_lower_examples():
    rep = solve("cheb_image_lower", A=mp([[0]]), p=vec(4), q=vec(0), g=vec(0))
    assert rep.optimum.v == 2
    assert rep.solution.lower.to_payloads() == [[2]]

    eye = Matrix.identity(MAX_PLUS, 2)
    rep = solve("cheb_image_lower", A=eye, p=vec(0, 0), q=vec(0, 0), g=vec(0, 0))
    assert rep.optimum.v == 0 and rep.solution.lower == vec(0, 0)


def test_cheb_image_lower_reduces_to_unconstrained():
    # a very low floor makes the problem unconstrained; with A = I the
    # optimum coincides with the loose-box variant
    rng = random.Random(32)
    for _ in range(30):
        n = rng.randint(1, 4)
        eye = Matrix.identity(MAX_PLUS, n)
        p = vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(n)])
        q = vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(n)])
        low = vector(MAX_PLUS, [-100] * n)
        high = vector(MAX_PLUS, [100] * n)
        a = solve("cheb_image_lower", A=eye, p=p, q=q, g=low)
        b = solve("cheb_box", p=p, q=q, g=low, h=high)
        assert a.optimum == b.optimum


def test_cheb_kleene_box_examples():
    zero1 = Matrix.zeros(MAX_PLUS, 1, 1)
    same = solve("cheb_kleene_box", B=zero1, p=vec(4), q=vec(0), g=vec(1), h=vec(3))
    box = solve("cheb_box", p=vec(4), q=vec(0), g=vec(1), h=vec(3))
    assert same.optimum == box.optimum

    rep = solve("cheb_kleene_box", B=mp([[-1]]), p=vec(4), q=vec(0),
                g=vec(1), h=vec(3))
    assert rep.optimum.v == 2

    hot = solve("cheb_kleene_box", B=mp([[1]]), p=vec(4), q=vec(0),
                g=vec(1), h=vec(3))
    assert hot.status == INFEASIBLE and hot.reason == NO_REGULAR_SOLUTION


def test_cheb_kleene_examples():
    zero2 = Matrix.zeros(MAX_PLUS, 2, 2)
    rep = solve("cheb_kleene", B=zero2, p=vec(0, 0), q=vec(0, 0))
    assert rep.optimum.v == 0
    assert rep.solution.lower == vec(0, 0) and rep.solution.upper == vec(0, 0)

    rep = solve("cheb_kleene", B=mp([[-1]]), p=vec(4), q=vec(0))
    assert rep.optimum.v == 2
    assert rep.solution.lower == vec(2) and rep.solution.upper == vec(2)


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_kleene_chebyshev_kinds_take_no_spectral_radius(sf, monkeypatch):
    # without A a cycle carries at most two objective edges, q- and p, so
    # the optimum is a closed form: no Karp, as in the written-out solvers
    def karp(a):
        raise AssertionError("spectral_radius called")

    monkeypatch.setattr(solvers, "spectral_radius", karp)
    for kind in ("cheb_kleene", "cheb_kleene_box"):
        for n in (1, 3, 5):
            data = generate(kind, n, seed=n, sf=sf)
            rep = solve(kind, **data)
            assert rep.status == OPTIMAL
            _attained(kind, data, rep, samples=4)


def test_cheb_kleene_agrees_with_loose_box():
    rng = random.Random(33)
    for trial in range(40):
        n = rng.randint(1, 3)
        data = generate("cheb_kleene", n, seed=500 + trial)
        zero_g = vector(MAX_PLUS, [None] * n)
        huge_h = vector(MAX_PLUS, [200] * n)
        a = solve("cheb_kleene", **data)
        b = solve("cheb_kleene_box", B=data["B"], p=data["p"], q=data["q"],
                  g=zero_g, h=huge_h)
        assert a.optimum == b.optimum


# ----------------------------------------------------------------------
# span-seminorm kinds

def test_span_min_paper_value():
    eye = Matrix.identity(MAX_PLUS, 2)
    ones = Matrix.ones(MAX_PLUS, 2, 1)
    rep = solve("span_min", A=eye, B=eye, p=ones, q=ones)
    assert rep.optimum == MAX_PLUS.one
    assert isinstance(rep.solution, RaySolution)
    assert rep.solution.direction == ones


def test_span_min_scale_invariance():
    data = generate("span_min", 3, seed=77)
    rep = solve("span_min", **data)
    pk = PROBLEM_KINDS["span_min"]
    x = rep.solution.direction
    for alpha in (-7, 2, 13):
        assert pk.objective(data, MAX_PLUS.scalar(alpha) * x) == rep.optimum


def test_span_min_grid():
    a = mp([[0, 1], [2, 0]])
    data = {"A": a, "B": a, "p": vec(0, 0), "q": vec(0, 0)}
    rep = solve("span_min", **data)
    assert verify_report("span_min", data, rep, seed=3).passed


def test_span_min_special_delegates():
    rng = random.Random(34)
    for trial in range(30):
        data = generate("span_min_special", rng.randint(1, 3), seed=600 + trial)
        rep = solve("span_min_special", **data)
        ones = Matrix.ones(MAX_PLUS, data["A"].rows, 1)
        direct = solve("span_min", A=data["A"], B=data["A"], p=ones, q=ones)
        assert rep.optimum == direct.optimum
    eye = Matrix.identity(MAX_PLUS, 3)
    rep = solve("span_min_special", A=eye)
    assert rep.optimum == MAX_PLUS.one


def test_span_min_special_grid():
    data = {"A": mp([[0, 1], [2, 0]])}
    rep = solve("span_min_special", **data)
    assert verify_report("span_min_special", data, rep, seed=4).passed


def test_span_min_constrained():
    c = mp([[0, 1], [2, 0]])
    d = mp([[-1, -3], [-2, -1]])
    data = {"C": c, "D": d}
    rep = solve("span_min_constrained", **data)
    assert verify_report("span_min_constrained", data, rep, seed=5).passed
    _attained("span_min_constrained", data, rep)

    # a vacuous recursion cap leaves the unconstrained special case
    zero2 = Matrix.zeros(MAX_PLUS, 2, 2)
    rep0 = solve("span_min_constrained", C=c, D=zero2)
    assert rep0.optimum == solve("span_min_special", A=c).optimum

    hot = solve("span_min_constrained", C=c, D=mp([[1, None], [None, None]]))
    assert hot.status == INFEASIBLE and hot.reason == NO_REGULAR_SOLUTION


@pytest.mark.parametrize("sf", (MAX_PLUS, MIN_PLUS), ids=lambda sf: sf.tag)
def test_span_min_constrained_non_square_c(sf):
    # C maps x to an image of another dimension: m x n, with D n x n
    sign = 1 if sf is MAX_PLUS else -1
    d = Matrix.from_rows(sf, [[None, -3 * sign, None], [-2 * sign, None, -1 * sign],
                              [None, 0, -4 * sign]])
    for rows in ([[0, 1, None], [2, 0, -1]], [[0, 3], [1, None], [-2, 0]]):
        c = Matrix.from_rows(sf, rows)
        n = c.cols
        data = {"C": c, "D": Matrix.from_rows(sf, [r[:n] for r in d.to_payloads()[:n]])}
        rep = solve("span_min_constrained", **data)
        assert rep.status == OPTIMAL and rep.solution.direction.rows == n
        assert verify_report("span_min_constrained", data, rep, seed=5).passed
        _attained("span_min_constrained", data, rep)


def test_span_max_requires_zero_free_columns():
    # with zeros in A the objective is unbounded and the closed form
    # does not apply; the identity matrix is rejected
    eye = Matrix.identity(MAX_PLUS, 2)
    with pytest.raises(PreconditionError):
        solve("span_max", A=eye, B=eye, p=vec(0, 0), q=vec(0, 0))
    with pytest.raises(PreconditionError):
        solve("span_max_norm", A=eye, B=eye)
    # and indeed a feasible point beats the formula value on identity data
    pk = PROBLEM_KINDS["span_max"]
    data = {"A": eye, "B": eye, "p": vec(0, 0), "q": vec(0, 0)}
    stretched = vec(10, 0)
    assert pk.objective(data, stretched).v == 10


def test_span_max_family():
    a = mp([[0, 1], [2, 0]])
    eye = Matrix.identity(MAX_PLUS, 2)
    data = {"A": a, "B": eye, "p": vec(0, 0), "q": vec(0, 0)}
    rep = solve("span_max", **data)
    fam = rep.solution
    assert isinstance(fam, ComponentwiseFamily)
    assert fam.tied_pinned_indices == (0, 1)  # symmetric scores
    _attained("span_max", data, rep)
    assert verify_report("span_max", data, rep, seed=6).passed

    # scaling a member leaves the objective unchanged
    pk = PROBLEM_KINDS["span_max"]
    member = sample_solution_set(fam, 1, seed=0)[0]
    assert pk.objective(data, MAX_PLUS.scalar(5) * member) == rep.optimum


def test_span_max_norm_delegates():
    rng = random.Random(35)
    for trial in range(30):
        data = generate("span_max_norm", rng.randint(1, 3), seed=700 + trial)
        rep = solve("span_max_norm", **data)
        ones_m = Matrix.ones(MAX_PLUS, data["A"].rows, 1)
        ones_l = Matrix.ones(MAX_PLUS, data["B"].rows, 1)
        direct = solve("span_max", A=data["A"], B=data["B"], p=ones_m, q=ones_l)
        assert rep.optimum == direct.optimum
        assert rep.optimum == (data["B"] @ data["A"].conj()).norm()


def test_span_max_constrained():
    data = generate("span_max_constrained", 2, seed=88)
    rep = solve("span_max_constrained", **data)
    assert rep.status == OPTIMAL
    _attained("span_max_constrained", data, rep)

    plain = dict(data)
    plain["C"] = Matrix.zeros(MAX_PLUS, 2, 2)
    rep0 = solve("span_max_constrained", **plain)
    unc = solve("span_max", A=data["A"], B=data["B"], p=data["p"], q=data["q"])
    assert rep0.optimum == unc.optimum

    hot = dict(data)
    hot["C"] = mp([[1, None], [None, None]])
    bad = solve("span_max_constrained", **hot)
    assert bad.status == INFEASIBLE and bad.reason == NO_REGULAR_SOLUTION


# ----------------------------------------------------------------------
# spectral kinds

def test_rayleigh_examples():
    a = mp([[1, 2], [3, 4]])
    rep = solve("rayleigh", A=a)
    assert rep.optimum.v == 4
    _attained("rayleigh", {"A": a}, rep)
    assert verify_report("rayleigh", {"A": a}, rep, seed=7).passed

    eye = Matrix.identity(MAX_PLUS, 3)
    rep = solve("rayleigh", A=eye)
    assert rep.optimum == MAX_PLUS.one
    pk = PROBLEM_KINDS["rayleigh"]
    for x in ([0, 1, 2], [-3, 5, 0]):
        assert pk.objective({"A": eye}, vector(MAX_PLUS, x)) == MAX_PLUS.one

    with pytest.raises(PreconditionError):
        solve("rayleigh", A=mp([[None, 1], [None, None]]))


def test_rayleigh_affine_examples():
    rep = solve("rayleigh_affine", A=mp([[0]]), p=vec(4), q=vec(0),
                r=MAX_PLUS.zero)
    assert rep.optimum.v == 2

    big = MAX_PLUS.scalar(50)
    rep = solve("rayleigh_affine", A=mp([[0]]), p=vec(4), q=vec(0), r=big)
    assert rep.optimum == big and not rep.solution.is_empty

    # zero p drops the corresponding term entirely
    a = mp([[1, 2], [3, 4]])
    zp = vector(MAX_PLUS, [None, None])
    rep = solve("rayleigh_affine", A=a, p=zp, q=vec(0, 0), r=MAX_PLUS.scalar(-8))
    lam = spectral_radius(a)
    assert rep.optimum == lam
    data = {"A": a, "p": zp, "q": vec(0, 0), "r": MAX_PLUS.scalar(-8)}
    _attained("rayleigh_affine", data, rep)


def test_rayleigh_two_constraints_reductions():
    rng = random.Random(36)
    for trial in range(30):
        n = rng.randint(1, 3)
        base = generate("rayleigh_lower", n, seed=800 + trial)
        zero = Matrix.zeros(MAX_PLUS, n, n)
        h = vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(n)])
        two = solve("rayleigh_two_constraints", A=base["A"], B=base["B"],
                    C=zero, g=base["g"], h=h)
        ref = solve("rayleigh_lower", **base)
        assert two.optimum == ref.optimum
        assert two.solution.upper is None

        box = generate("rayleigh_box", n, seed=900 + trial)
        eye = Matrix.identity(MAX_PLUS, n)
        two = solve("rayleigh_two_constraints", A=box["A"], B=zero, C=eye,
                    g=box["g"], h=box["h"])
        ref = solve("rayleigh_box", **box)
        assert two.optimum == ref.optimum


def test_rayleigh_two_constraints_box_term_runs_through_b_paths():
    # the best cycle through the g / h- C node: g into node 0, A-edge 0 -> 1
    # (weight 3), B-edges 1 -> 2 -> 3, back through (h- C)_3 = 2.  Its
    # weight 5 over one A-edge beats the only A-cycle (A_00 = -50).
    n = 4
    a = mp([[-50, None, None, None], [3, None, None, None],
            [None] * n, [None] * n])
    b = mp([[None] * n, [None] * n, [None, 0, None, None],
            [None, None, 0, None]])
    c = mp([[-100 if i == j else None for j in range(n - 1)] + [None]
            for i in range(n - 1)] + [[None, None, None, 2]])
    g, h = vec(0, None, None, None), vec(0, 0, 0, 0)
    rep = solve("rayleigh_two_constraints", A=a, B=b, C=c, g=g, h=h)
    assert rep.status == OPTIMAL and rep.optimum == MAX_PLUS.scalar(5)
    _attained("rayleigh_two_constraints", dict(A=a, B=b, C=c, g=g, h=h), rep)


def test_rayleigh_two_constraints_oracle():
    data = generate("rayleigh_two_constraints", 2, seed=99)
    rep = solve("rayleigh_two_constraints", **data)
    assert rep.status == OPTIMAL
    _attained("rayleigh_two_constraints", data, rep)
    assert verify_report("rayleigh_two_constraints", data, rep, seed=8).passed


@pytest.mark.parametrize("kind", ["rayleigh_lower", "rayleigh_p_lower",
                                  "rayleigh_two_constraints"])
def test_constrained_spectral_optimum_takes_linearly_many_products(kind, monkeypatch):
    """lambda(B* A) and n vector steps, not an enumeration of the
    interleavings of A with powers of B (about 10^5 of them at n = 16)."""
    n = 16
    data = generate(kind, n, seed=5)
    calls = []
    product = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: calls.append(1) or product(a, b))
    assert solve(kind, **data).status == OPTIMAL
    assert len(calls) <= 5 * n


def test_rayleigh_lower_examples():
    a = mp([[1, 2], [3, 4]])
    zero = Matrix.zeros(MAX_PLUS, 2, 2)
    g = vec(-2, 0)
    rep = solve("rayleigh_lower", A=a, B=zero, g=g)
    assert rep.optimum == spectral_radius(a)
    _attained("rayleigh_lower", {"A": a, "B": zero, "g": g}, rep)

    data = generate("rayleigh_lower", 2, seed=101)
    rep = solve("rayleigh_lower", **data)
    assert verify_report("rayleigh_lower", data, rep, seed=9).passed
    with_p = solve("rayleigh_p_lower", A=data["A"], B=data["B"],
                   p=vector(MAX_PLUS, [None, None]), g=data["g"])
    assert with_p.optimum == rep.optimum


def test_rayleigh_box_examples():
    rng = random.Random(37)
    for trial in range(20):
        n = rng.randint(1, 3)
        data = generate("rayleigh_box", n, seed=1000 + trial)
        g = data["g"]
        if not all(not g[i].is_zero for i in range(n)):
            continue
        pinned = solve("rayleigh_box", A=data["A"], g=g, h=g)
        pk = PROBLEM_KINDS["rayleigh_box"]
        assert pinned.optimum == pk.objective({"A": data["A"]}, g)

    data = generate("rayleigh_box", 2, seed=102)
    loose = solve("rayleigh_box", A=data["A"],
                  g=vector(MAX_PLUS, [-100, -100]),
                  h=vector(MAX_PLUS, [100, 100]))
    assert loose.optimum == spectral_radius(data["A"])
    rep = solve("rayleigh_box", **data)
    assert verify_report("rayleigh_box", data, rep, seed=10).passed


def test_rayleigh_p_lower_examples():
    rep = solve("rayleigh_p_lower", A=mp([[2]]), B=mp([[-1]]), p=vec(0), g=vec(0))
    assert rep.optimum.v == 2
    assert rep.solution.lower == vec(0)
    data = {"A": mp([[2]]), "B": mp([[-1]]), "p": vec(0), "g": vec(0)}
    _attained("rayleigh_p_lower", data, rep)


def test_new_boxed_spectral_examples():
    rep = solve("new_boxed_spectral", A=mp([[0]]), p=vec(4), q=vec(0),
                g=vec(1), h=vec(3), r=MAX_PLUS.scalar(-10))
    assert rep.optimum.v == 2
    members = sample_solution_set(rep.solution, 5, seed=0)
    assert all(x == vec(2) for x in members)

    # a pinned box forces x = g and the optimum is the objective there
    rng = random.Random(38)
    pk = PROBLEM_KINDS["new_boxed_spectral"]
    for trial in range(20):
        n = rng.randint(1, 3)
        data = generate("new_boxed_spectral", n, seed=1100 + trial)
        g = data["g"]
        if not all(not g[i].is_zero for i in range(n)):
            continue
        data = dict(data, h=g)
        rep = solve("new_boxed_spectral", **data)
        assert rep.optimum == pk.objective(data, g)
        for x in sample_solution_set(rep.solution, 4, seed=trial):
            assert x == g


def test_new_boxed_spectral_loose_box_matches_affine():
    rng = random.Random(39)
    for trial in range(40):
        n = rng.randint(1, 3)
        data = generate("rayleigh_affine", n, seed=1200 + trial)
        boxed = solve("new_boxed_spectral", A=data["A"], p=data["p"],
                      q=data["q"], g=vector(MAX_PLUS, [-100] * n),
                      h=vector(MAX_PLUS, [100] * n), r=data["r"])
        affine = solve("rayleigh_affine", **data)
        assert boxed.optimum == affine.optimum


def test_new_boxed_spectral_lower_bound_chain():
    rng = random.Random(40)
    for trial in range(60):
        n = rng.randint(1, 4)
        data = generate("new_boxed_spectral", n, seed=1300 + trial)
        rep = solve("new_boxed_spectral", **data)
        lam = spectral_radius(data["A"])
        qp = (data["q"].conj() @ data["p"]).item() ** F(1, 2)
        assert lam + qp + data["r"] <= rep.optimum
        scaled = rep.optimum.inv() * data["A"]
        assert tr_functional(scaled) <= MAX_PLUS.one


def test_new_boxed_spectral_infeasible_box():
    rep = solve("new_boxed_spectral", A=mp([[0]]), p=vec(0), q=vec(0),
                g=vec(5), h=vec(1), r=MAX_PLUS.zero)
    assert rep.status == INFEASIBLE and rep.reason == INFEASIBLE_BOX


# ----------------------------------------------------------------------
# dispatcher and registry

BORDERED_KINDS = ("rayleigh", "rayleigh_affine", "rayleigh_two_constraints",
                  "rayleigh_lower", "rayleigh_box", "rayleigh_p_lower",
                  "new_boxed_spectral", "cheb_kleene", "cheb_kleene_box")


def test_registry_covers_all_kinds():
    # solve() passes each input by keyword, its name in lower case, so every
    # input must name a parameter and every required parameter an input
    assert len(PROBLEM_KINDS) == 17
    for kind, pk in PROBLEM_KINDS.items():
        assert pk.kind == kind
        names = [f.lower() for f in pk.shapes]
        if kind in BORDERED_KINDS:
            assert pk.solver.func is solvers.bordered_optimum
            assert pk.solver.args == (kind,)
            params = inspect.signature(pk.solver).parameters
            assert set(names) <= set(params) - {"flag"}
            assert {name for name, par in params.items()
                    if par.default is par.empty} <= set(names)
        else:
            assert pk.solver is getattr(solvers, f"solve_{kind}")
            assert list(inspect.signature(pk.solver).parameters) == names


def test_dispatch_errors():
    with pytest.raises(KeyError):
        solve("no_such_kind")
    with pytest.raises(TypeError):
        solve("rayleigh")  # missing A


def _grown(m, axis):
    """``m`` with its last row (axis 0) or column (axis 1) repeated."""
    rows = m.to_payloads()
    rows = rows + rows[-1:] if axis == 0 else [r + r[-1:] for r in rows]
    return Matrix.from_rows(m.sf, rows)


@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_shape_contract(kind):
    # every size an input shares with another input (or with itself, for a
    # square matrix) is checked before the solver runs, and the error names
    # the input; a row vector never passes for a column vector
    shapes = PROBLEM_KINDS[kind].shapes
    letters = "".join(shapes.values())
    data = generate(kind, 3, seed=5)
    checked = 0
    for name, dims in shapes.items():
        for axis, letter in enumerate(dims):
            if letters.count(letter) < 2:
                continue  # a free size: any value is well-formed
            bad = dict(data, **{name: _grown(data[name], axis)})
            with pytest.raises(ShapeError, match=rf"\b{name}\b"):
                solve(kind, **bad)
            checked += 1
        if len(dims) == 1:
            row = dict(data, **{name: data[name].transpose()})
            with pytest.raises(ShapeError, match=rf"^{name} must be a column vector"):
                solve(kind, **row)
    assert checked or kind == "span_min_special"  # its one matrix is free


# ----------------------------------------------------------------------
# invariants are explicit checks, so ``python -O`` keeps them

def test_empty_optimal_solution_set_raises_invariant_error(monkeypatch):
    monkeypatch.setattr(BoxSolutionSet, "is_empty", property(lambda self: True))
    with pytest.raises(InvariantError, match="cheb_box"):
        solve("cheb_box", p=vec(0), q=vec(0), g=vec(0), h=vec(1))


def test_span_max_column_score_mismatch_raises_invariant_error(monkeypatch):
    data = generate("span_max", 3, seed=4)
    real = solvers._argbest

    def wrong_column(values):
        # the first call picks the column; hand back one that is not best
        monkeypatch.setattr(solvers, "_argbest", real)
        k, _ = real(values)
        other = next(i for i, v in enumerate(values) if v != values[k])
        return other, (other,)

    monkeypatch.setattr(solvers, "_argbest", wrong_column)
    with pytest.raises(InvariantError, match="span_max"):
        solve("span_max", **data)


CAP_GATES = {"rayleigh_box": "h- g <= one", "new_boxed_spectral": "h- g <= one",
             "rayleigh_two_constraints": "h- C B* g <= one",
             "cheb_kleene_box": "h- B* g <= one"}


@pytest.mark.parametrize("kind", sorted(CAP_GATES))
def test_cap_gate_is_the_border_cycle(kind):
    # the cap value (h- g, h- B* g or h- C B* g) is the weight of the border
    # cycle through g and the cap; at one the solve passes, just above it
    # the cap gate is the last check and the box is empty
    for t, status in ((0, OPTIMAL), (F(1, 64), INFEASIBLE)):
        data = {"A": mp([[0, 1], [1, 0]]), "g": vec(t, 0), "h": vec(0, 0)}
        if kind == "new_boxed_spectral":
            data.update(p=vec(0, 0), q=vec(0, 0), r=MAX_PLUS.scalar(0))
        elif kind == "rayleigh_two_constraints":
            data.update(B=mp([[None, 0], [None, None]]), C=mp([[0, 0]]),
                        g=vec(None, t), h=vec(0))
        elif kind == "cheb_kleene_box":
            del data["A"]
            data.update(B=mp([[None, 0], [None, None]]), p=vec(0, 0),
                        q=vec(0, 0), g=vec(None, t))
        rep = solve(kind, **data)
        cap_gate = CAP_GATES[kind]
        assert rep.status == status
        assert (cap_gate, status == OPTIMAL) in rep.diagnostics
        if status == INFEASIBLE:
            assert rep.reason == INFEASIBLE_BOX
            assert rep.diagnostics[-1] == (cap_gate, False)


def test_invariant_checks_survive_python_optimize():
    code = ("from tropsolve import InvariantError, solvers\n"
            "from tropsolve.systems import EmptySolutionSet\n"
            "try:\n"
            "    solvers._optimal('cheb_box', None, EmptySolutionSet('x'), [])\n"
            "except InvariantError:\n"
            "    print('raised')\n")
    src = pathlib.Path(__file__).parents[1] / "src"
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={"PYTHONPATH": str(src)})
    assert out.stdout == "raised\n"
