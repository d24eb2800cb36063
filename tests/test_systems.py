"""The two basic inequalities, principal solutions and star-generated sets,
and the sampling contract every solution type keeps.

The sampler draws and maps members on payloads, lifted to ints on max-plus
and min-plus; its reference here is the Scalar-level sampler it replaced,
each coordinate drawn through Scalar operations and a Fraction power and
each generator map a Matrix product.  The two must return the same members,
payload for payload and type for type."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    BoxSolutionSet,
    CarrierDomainError,
    ComponentwiseFamily,
    DegenerateInputError,
    EmptySolutionSet,
    GeneratedSolutionSet,
    Matrix,
    NO_REGULAR_SOLUTION,
    PreconditionError,
    RaySolution,
    ShapeError,
    TagMismatchError,
    is_regular_vector,
    principal_solution_leq,
    sample_solution_set,
    solve,
    solve_sub_fixpoint,
    tr_functional,
    vector,
    verify_report,
)
from tropsolve.gen import generate
from tropsolve.oracle import GridSpec
from tropsolve.problems import PROBLEM_KINDS


def mp(rows):
    return Matrix.from_rows(MAX_PLUS, rows)


def test_principal_solution_examples():
    box = principal_solution_leq(mp([[0, 1], [2, 0]]), vector(MAX_PLUS, [3, 4]))
    assert box.lower is None and box.upper.to_payloads() == [[2], [2]]
    box = principal_solution_leq(Matrix.identity(MAX_PLUS, 2),
                                 vector(MAX_PLUS, [5, 7]))
    assert box.upper.to_payloads() == [[5], [7]]
    box = principal_solution_leq(mp([[0]]), vector(MAX_PLUS, [0]))
    assert box.upper.to_payloads() == [[0]]


def test_principal_solution_preconditions():
    with pytest.raises(PreconditionError):
        principal_solution_leq(mp([[1, None], [2, None]]),
                               vector(MAX_PLUS, [0, 0]))
    with pytest.raises(PreconditionError):
        principal_solution_leq(mp([[0, 1], [2, 0]]),
                               vector(MAX_PLUS, [0, None]))


def _random_instance(rng, m, n):
    rows = [[None if rng.random() < 0.2 else rng.randint(-5, 5)
             for _ in range(n)] for _ in range(m)]
    for j in range(n):  # column-regular
        if all(rows[i][j] is None for i in range(m)):
            rows[rng.randrange(m)][j] = rng.randint(-5, 5)
    a = mp(rows)
    d = vector(MAX_PLUS, [rng.randint(-5, 5) for _ in range(m)])
    return a, d


def test_principal_solution_sound_and_maximal():
    rng = random.Random(21)
    for _ in range(300):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        a, d = _random_instance(rng, m, n)
        xhat = principal_solution_leq(a, d).upper
        assert a @ xhat <= d
        # any regular x below the bound stays feasible
        drop = vector(MAX_PLUS, [-rng.randint(0, 4) for _ in range(n)])
        x = Matrix(MAX_PLUS, tuple((xhat[i] * drop[i],) for i in range(n)))
        assert a @ x <= d
        # bumping any single coordinate breaks feasibility
        for j in range(n):
            bumped = Matrix(MAX_PLUS, tuple(
                (xhat[i] * MAX_PLUS.scalar(1) if i == j else xhat[i],)
                for i in range(n)))
            assert not a @ bumped <= d


def test_sub_fixpoint_examples():
    a = mp([[-1, -3], [-2, -1]])
    b = vector(MAX_PLUS, [0, 0])
    sol = solve_sub_fixpoint(a, b)
    assert isinstance(sol, GeneratedSolutionSet)
    assert sol.generator == a.star() and sol.lower == b and sol.upper is None
    x = sol.generator @ vector(MAX_PLUS, [0, 0])
    assert (a @ x) + b <= x

    z = Matrix.zeros(MAX_PLUS, 2, 2)
    sol = solve_sub_fixpoint(z, vector(MAX_PLUS, [3, -1]))
    assert sol.generator == Matrix.identity(MAX_PLUS, 2)

    bad = solve_sub_fixpoint(mp([[1]]), vector(MAX_PLUS, [0]))
    assert isinstance(bad, EmptySolutionSet)
    assert bad.reason == NO_REGULAR_SOLUTION and bad.is_empty


def test_sub_fixpoint_members_satisfy_inequality():
    rng = random.Random(22)
    for trial in range(200):
        n = rng.randint(1, 4)
        a = mp([[None if rng.random() < 0.3 else rng.randint(-6, 0)
                 for _ in range(n)] for _ in range(n)])
        b = vector(MAX_PLUS, [
            None if rng.random() < 0.2 else rng.randint(-5, 5)
            for _ in range(n)])
        sol = solve_sub_fixpoint(a, b)
        if isinstance(sol, EmptySolutionSet):
            assert not tr_functional(a) <= MAX_PLUS.one
            continue
        for x in sample_solution_set(sol, 10, seed=trial):
            assert (a @ x) + b <= x


def test_sub_fixpoint_dichotomy_grid():
    # positive-trace instances admit no regular solution on a dense grid
    import itertools
    rng = random.Random(23)
    checked = 0
    while checked < 20:
        n = rng.randint(1, 2)
        a = mp([[None if rng.random() < 0.2 else rng.randint(-3, 3)
                 for _ in range(n)] for _ in range(n)])
        if tr_functional(a) <= MAX_PLUS.one:
            continue
        checked += 1
        b = vector(MAX_PLUS, [rng.randint(-3, 3) for _ in range(n)])
        assert isinstance(solve_sub_fixpoint(a, b), EmptySolutionSet)
        for point in itertools.product(range(-8, 9), repeat=n):
            x = vector(MAX_PLUS, point)
            assert not (a @ x) + b <= x


def test_box_solution_set_flags():
    lo, hi = vector(MAX_PLUS, [0, 0]), vector(MAX_PLUS, [1, 1])
    assert not BoxSolutionSet(lo, hi).is_empty
    assert BoxSolutionSet(hi, lo).is_empty
    assert BoxSolutionSet(lo, hi).contains(vector(MAX_PLUS, [0, 1]))
    assert not BoxSolutionSet(lo, hi).contains(vector(MAX_PLUS, [2, 0]))


# ----------------------------------------------------------------------
# the sampling contract of every solution type, on all four carriers

CARRIERS = (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)
WINDOWS = (10, Fraction(1, 10), "3/2")


def _sets(sf):
    """(label, solution) of every solution type, from generated instances."""
    out = []
    for seed in (1, 2, 3):
        for kind, label in (("cheb_box", "box"), ("cheb_image_lower", "point box"),
                            ("cheb_kleene_box", "generated, both bounds"),
                            ("rayleigh", "generated, no bounds"),
                            ("span_min", "ray"), ("span_max", "componentwise"),
                            ("span_max_constrained", "componentwise with G")):
            rep = solve(kind, **generate(kind, 3, seed, sf))
            if rep.solution is not None:
                out.append((label, rep.solution))
        a = generate("rayleigh_lower", 3, seed, sf)
        out.append(("generated, lower bound",
                    solve_sub_fixpoint(a["B"], a["g"])))
    assert {label for label, _ in out} >= {
        "box", "point box", "generated, both bounds", "generated, no bounds",
        "generated, lower bound", "ray", "componentwise", "componentwise with G"}
    return out


def _window(sf, window):
    w = sf.scalar(window)
    return w if sf.one <= w else w.inv()


def _meet(a, b):
    return a if a <= b else b


def _in_generated(sol, x):
    """x = G u for a regular u in the box: u* = (x- G)- capped by upper is
    the largest u with G u <= x."""
    u = (x.conj() @ sol.generator).conj()
    if sol.upper is not None:
        u = Matrix(u.sf, tuple((_meet(u[i], sol.upper[i]),) for i in range(u.rows)))
    return (is_regular_vector(u) and (sol.lower is None or sol.lower <= u)
            and sol.generator @ u == x)


def _scale_in_window(alpha, w):
    return w.inv() <= alpha <= w


def _in_set(sol, x, w):
    if isinstance(sol, BoxSolutionSet):
        return sol.contains(x)
    if isinstance(sol, GeneratedSolutionSet):
        return _in_generated(sol, x)
    if isinstance(sol, RaySolution):
        d = sol.direction
        alpha = x[0] * d[0].inv()
        return alpha * d == x and _scale_in_window(alpha, w)
    k = sol.pinned_index
    alpha = x[k] * sol.pinned_value.inv()
    return (is_regular_vector(x) and _scale_in_window(alpha, w)
            and all(x[j] <= alpha * b for j, b in enumerate(sol.upper_bounds) if j != k))


def _firsts(sol):
    """The members a sample must open with: the regular bounds, or the anchor."""
    if isinstance(sol, (BoxSolutionSet, GeneratedSolutionSet)):
        bounds = [b for b in (sol.lower, sol.upper)
                  if b is not None and is_regular_vector(b)]
        if isinstance(sol, GeneratedSolutionSet):
            return [sol.generator @ b for b in bounds]
        return bounds
    return [sol.anchor()]


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_sampling_contract_of_every_solution_type(sf):
    for label, sol in _sets(sf):
        for seed, window in enumerate(WINDOWS):
            members = sol.sample(9, seed, window)
            assert len(members) == 9, label
            assert members == sol.sample(9, seed, window), label
            firsts = _firsts(sol)
            assert members[:len(firsts)] == firsts, label
            w = _window(sf, window)
            if isinstance(sol, ComponentwiseFamily) and sol.generator is not None:
                plain = replace(sol, generator=None)
                us = plain.sample(9, seed, window)
                assert members == [sol.generator @ u for u in us], label
                assert all(_in_set(plain, u, w) for u in us), label
            else:
                assert all(_in_set(sol, x, w) for x in members), label
            if sf.additive:
                assert all(type(v) in (int, Fraction)
                           for x in members for (v,) in x.p), label


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_sampling_empty_sets_raise(sf):
    lo = Matrix.ones(sf, 2, 1)
    hi = _window(sf, 2) * lo
    for empty in (EmptySolutionSet(NO_REGULAR_SOLUTION), BoxSolutionSet(hi, lo),
                  GeneratedSolutionSet(Matrix.identity(sf, 2), hi, lo)):
        assert empty.is_empty
        with pytest.raises(DegenerateInputError):
            empty.sample(3, 0, 10)


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_a_negative_sample_count_is_refused_and_zero_gives_none(sf):
    sets = [sol for _, sol in _sets(sf)]
    sets.append(EmptySolutionSet(NO_REGULAR_SOLUTION))
    for sol in sets:
        with pytest.raises(DegenerateInputError):
            sol.sample(-1, 0, 10)
        if not sol.is_empty:
            assert sol.sample(0, 0, 10) == []


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_a_coordinate_the_box_fixes_is_its_bound(sf):
    # no draw for it: lo * (lo- hi)^t would land an ulp off on the floats
    fixed = sf.scalar(49 if sf.additive else 49.0).v
    low = sf.scalar("3/7" if sf.additive else 0.1).v
    lower, upper = vector(sf, [fixed, low]), vector(sf, [fixed, low])
    assert all(x.p == lower.p for x in BoxSolutionSet(lower, upper).sample(6, 0, 10))
    wide = vector(sf, [fixed, (_window(sf, 10) * sf.wrap(low)).v])
    members = BoxSolutionSet(lower, wide).sample(12, 0, 10)
    assert all(x.p[0] == (fixed,) for x in members)
    assert len({x.p[1] for x in members}) > 2


def test_a_box_without_bounds_cannot_be_sampled():
    box = BoxSolutionSet(None, None)
    for sample in (box.anchor, lambda: box.sample(2, 0, 10)):
        with pytest.raises(DegenerateInputError, match="box has no"):
            sample()


def test_a_generated_set_with_bounds_that_do_not_fit_cannot_be_sampled():
    g = Matrix.identity(MAX_PLUS, 2)
    for lower in (vector(MIN_PLUS, [0, 0]), vector(MIN_PLUS, [0, None])):
        with pytest.raises(TagMismatchError):
            GeneratedSolutionSet(g, lower, None).sample(3, 0, 10)
    with pytest.raises(ShapeError):
        GeneratedSolutionSet(g, vector(MAX_PLUS, [0, 0, 0]), None).sample(3, 0, 10)


@pytest.mark.parametrize("generator, error", [
    (Matrix.identity(MAX_PLUS, 3), ShapeError),  # 3 columns for a 2-dim box
    (Matrix.identity(MIN_PLUS, 2), TagMismatchError),
])
def test_a_family_with_a_generator_that_does_not_fit_cannot_be_sampled(generator, error):
    family = ComponentwiseFamily(0, MAX_PLUS.scalar(0), (None, MAX_PLUS.scalar(1)), 0,
                                 (0,), generator=generator)
    with pytest.raises(error):
        family.anchor()
    with pytest.raises(error):
        family.sample(3, 0, 10)


# ----------------------------------------------------------------------
# the sampler against the Scalar-level reference

_DENOM = 16


def _reference_coordinate(lo, hi, w, sf):
    if lo is not None and hi is not None:
        ratio = lo.inv() * hi
        return lambda t: lo * ratio ** t()
    if hi is not None:
        return lambda t: hi * (w ** t()).inv()
    if lo is not None:
        return lambda t: lo * w ** t()
    return lambda t: sf.one * w ** (2 * t() - 1)


def _reference_box(sf, n, lower, upper, count, seed, window, cone=False):
    rng = random.Random(seed)
    w = sf.scalar(window)
    if not sf.one <= w:
        w = w.inv()
    lows, highs = ([None] * n if b is None else
                   [None if u is None else sf.wrap(u) for (u,) in b.p]
                   for b in (lower, upper))
    coords = [(lambda t, lo=lo: lo) if lo is not None and lo == hi
              else _reference_coordinate(lo, hi, w, sf) for lo, hi in zip(lows, highs)]
    scale = _reference_coordinate(None, None, w, sf)
    point = cone and lower == upper
    out = [b for b in ((lower,) if point else (lower, upper))
           if b is not None and is_regular_vector(b)][:count]

    def t():
        return Fraction(rng.randint(0, _DENOM), _DENOM)

    while len(out) < count:
        x = lower if point else Matrix(sf, [[c(t)] for c in coords])
        out.append(scale(t) * x if cone else x)
    return out


def reference_sample(sol, count, seed, window):
    """The members of ``sol.sample(count, seed, window)``, drawn on Scalars
    and mapped by Matrix products."""
    if sol.is_empty:
        raise DegenerateInputError("cannot sample an empty solution set")
    if isinstance(sol, BoxSolutionSet):
        bound = sol.lower if sol.lower is not None else sol.upper
        return _reference_box(bound.sf, bound.dim, sol.lower, sol.upper,
                              count, seed, window)
    if isinstance(sol, GeneratedSolutionSet):
        g = sol.generator
        return [g @ u for u in _reference_box(g.sf, g.cols, sol.lower, sol.upper,
                                              count, seed, window)]
    if isinstance(sol, RaySolution):
        d = sol.direction
        return _reference_box(d.sf, d.rows, d, d, count, seed, window, cone=True)
    lower, upper = sol._box()
    us = _reference_box(upper.sf, upper.rows, lower, upper, count, seed, window,
                        cone=True)
    return us if sol.generator is None else [sol.generator @ u for u in us]


def _exact(members):
    """Every payload of the members with its type: floats compare bit for bit."""
    return [[(v, type(v)) for (v,) in x.p] for x in members]


def _every_type(sf):
    """(label, solution) of all five types: the contract's sets at n = 3,
    the solution of every kind at n = 1 and 2, the families without their
    generator, and an empty set."""
    out = list(_sets(sf))
    for kind in sorted(PROBLEM_KINDS):
        for n in (1, 2):
            sol = solve(kind, **generate(kind, n, 7 + n, sf)).solution
            if sol is not None:
                out.append((f"{kind} n={n}", sol))
    out += [(label + " without G", replace(sol, generator=None)) for label, sol in out
            if isinstance(sol, ComponentwiseFamily) and sol.generator is not None]
    out.append(("empty", EmptySolutionSet(NO_REGULAR_SOLUTION)))
    assert {type(sol) for _, sol in out} == {
        BoxSolutionSet, GeneratedSolutionSet, RaySolution, ComponentwiseFamily,
        EmptySolutionSet}
    return out


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_sampling_equals_the_scalar_level_reference(sf):
    compared = 0
    for label, sol in _every_type(sf):
        regular_bounds = len(_firsts(sol)) if not sol.is_empty else 0
        for seed, window in enumerate((10, Fraction(1, 10), Fraction(7, 3), 2)):
            for count in sorted({0, max(regular_bounds - 1, 0), regular_bounds, 12}):
                try:
                    expected = reference_sample(sol, count, seed, window)
                except DegenerateInputError:
                    with pytest.raises(DegenerateInputError):
                        sol.sample(count, seed, window)
                    continue
                assert _exact(sol.sample(count, seed, window)) == _exact(expected), (
                    label, seed, window, count)
                compared += 1
    assert compared > 100


@pytest.mark.parametrize("sf", [MAX_TIMES, MIN_TIMES], ids=lambda sf: sf.tag)
def test_a_multiplicative_member_out_of_the_floats_is_refused(sf):
    # the scale of a ray spans w^-1 .. w: 1e200 times 1e200 is inf on
    # max-times, and on min-times, where w is 1e-200, 0.0
    big = 1e200 if sf.maximizing else 1e-200
    ray = RaySolution(Matrix.from_rows(sf, [[big], [1.0]]))
    with pytest.raises(CarrierDomainError, match="inf" if sf.maximizing else "0.0"):
        ray.sample(6, 0, 1e200)
    assert _exact(ray.sample(6, 0, 1e100)) == _exact(reference_sample(ray, 6, 0, 1e100))


def test_verify_names_the_overflowed_member_not_its_inverse():
    a = Matrix.from_rows(MAX_TIMES, [[1.0, 1e100], [1e-100, 1.0]])
    report = solve("rayleigh", A=a)
    grid = GridSpec(((MAX_TIMES.one, MAX_TIMES.scalar(2.0)),) * 2, MAX_TIMES.scalar(2.0))
    with pytest.raises(CarrierDomainError, match="inf"):
        verify_report("rayleigh", {"A": a}, report, grid=grid, window=1e300)
