"""Grid search, sampling, and report verification."""

import dataclasses
import itertools
import math
import time
import tracemalloc
from fractions import Fraction as F

import pytest

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    DegenerateInputError,
    GridOverflowError,
    GridResult,
    GridSpec,
    Matrix,
    NO_FEASIBLE_POINT,
    TagMismatchError,
    cycle_mean_radius,
    default_grid,
    default_step,
    grid_search,
    sample_solution_set,
    solve,
    vector,
    verify_report,
)
from tropsolve.gen import generate
from tropsolve.oracle import _BATCH
from tropsolve.problems import PROBLEM_KINDS
from tropsolve.systems import BoxSolutionSet, EmptySolutionSet

from test_problems import REFERENCE_FEASIBLE, REFERENCE_OBJECTIVE


def vec(*entries):
    return vector(MAX_PLUS, entries)


def _grid1(lo, hi, step):
    return GridSpec(((MAX_PLUS.scalar(lo), MAX_PLUS.scalar(hi)),),
                    MAX_PLUS.scalar(step))


def test_grid_search_cheb_box():
    data = {"p": vec(4), "q": vec(0), "g": vec(1), "h": vec(3)}
    res = grid_search("cheb_box", data, _grid1(1, 3, F(1, 4)))
    assert res.found and res.value.v == 2
    assert res.argbest.to_payloads() == [[2]]
    assert res.points_total == 9


def test_grid_search_no_feasible_point():
    data = {"p": vec(4), "q": vec(0), "g": vec(3), "h": vec(1)}
    res = grid_search("cheb_box", data, _grid1(0, 4, F(1, 2)))
    assert not res.found and res.reason == NO_FEASIBLE_POINT


def test_grid_search_rayleigh_identity():
    eye = Matrix.identity(MAX_PLUS, 2)
    grid = GridSpec(((MAX_PLUS.scalar(-2), MAX_PLUS.scalar(2)),) * 2,
                    MAX_PLUS.scalar(1))
    res = grid_search("rayleigh", {"A": eye}, grid)
    assert res.found and res.value == MAX_PLUS.one
    # deterministic tie-break: the lexicographically smallest argbest
    assert res.argbest.to_payloads() == [[-2], [-2]]


def test_grid_overflow():
    grid = GridSpec(((MAX_PLUS.scalar(0), MAX_PLUS.scalar(100)),) * 2,
                    MAX_PLUS.scalar(F(1, 100)), cap=10_000)
    with pytest.raises(GridOverflowError):
        grid_search("rayleigh", {"A": Matrix.identity(MAX_PLUS, 2)}, grid)


def test_grid_search_rejects_data_of_another_semifield():
    data = generate("cheb_box", 1, seed=5, sf=MAX_TIMES)
    with pytest.raises(TagMismatchError):
        grid_search("cheb_box", data, _grid1(0, 1, F(1, 2)))


@pytest.mark.parametrize("bounds", [(MIN_PLUS.scalar(-2), MIN_PLUS.scalar(2)),
                                    (MAX_TIMES.scalar(0.25), MAX_TIMES.scalar(4.0)),
                                    (MAX_PLUS.scalar(-2), MIN_PLUS.scalar(10 ** 9))])
def test_grid_bounds_of_another_semifield_than_the_step_are_refused(bounds):
    # refused before any axis is counted: the last grid would overflow the cap
    grid = GridSpec((bounds,) * 2, MAX_PLUS.scalar(1))
    with pytest.raises(TagMismatchError, match="grid bounds"):
        grid_search("rayleigh", {"A": Matrix.identity(MAX_PLUS, 2)}, grid)


def test_data_of_another_semifield_than_the_step_is_refused_before_counting():
    # about 1e18 max-plus points: counted first, they would overflow the cap
    data = generate("rayleigh", 2, seed=5, sf=MAX_TIMES)
    grid = GridSpec(((MAX_PLUS.scalar(0), MAX_PLUS.scalar(10 ** 9)),) * 2,
                    MAX_PLUS.scalar(1))
    with pytest.raises(TagMismatchError, match="another semifield"):
        grid_search("rayleigh", data, grid)


def test_multiplicative_axis_is_counted_before_it_is_built():
    # about 1.4e10 points from 1 to 1e6 in steps of 1 + 1e-9
    data = generate("rayleigh", 1, seed=5, sf=MAX_TIMES)
    grid = GridSpec(((MAX_TIMES.scalar(1.0), MAX_TIMES.scalar(1e6)),),
                    MAX_TIMES.scalar(1.0 + 1e-9))
    start = time.perf_counter()
    with pytest.raises(GridOverflowError,
                       match=r"^\d+ grid points exceed the cap 200000;"):
        grid_search("rayleigh", data, grid)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.tag)
def test_the_memory_of_a_walk_is_bounded_by_the_batch(sf):
    # one axis of 300,001 points: held as a list, its ints alone would take
    # about 10 MB; a batch of lanes takes a few kB
    data = {"A": Matrix(sf, [[0]])}
    grid = GridSpec(((sf.scalar(0), sf.scalar(300_000)),), sf.scalar(1), cap=400_000)
    tracemalloc.start()
    try:
        res = grid_search("rayleigh", data, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.points_total == res.points_feasible == 300_001
    assert peak < 2_000_000, peak


def test_multiplicative_grid_axis():
    # multiplicative carriers walk geometrically
    data = generate("cheb_box", 1, seed=5, sf=MAX_TIMES)
    rep = solve("cheb_box", **data)
    anchor = rep.solution.lower
    grid = GridSpec(((anchor[0] * MAX_TIMES.scalar(0.25),
                      anchor[0] * MAX_TIMES.scalar(4.0)),),
                    MAX_TIMES.scalar(2.0))
    res = grid_search("cheb_box", data, grid)
    assert res.found
    assert not (res.value < rep.optimum)


def test_cycle_mean_examples():
    assert cycle_mean_radius(Matrix.from_rows(MAX_PLUS, [[1, 2], [3, 4]])).v == 4
    assert cycle_mean_radius(
        Matrix.from_rows(MAX_PLUS, [[None, 2], [3, None]])).v == F(5, 2)


def test_sampling_determinism_and_boundaries():
    box = BoxSolutionSet(vec(0, 0), vec(2, 2))
    a = sample_solution_set(box, 8, seed=42)
    b = sample_solution_set(box, 8, seed=42)
    assert a == b
    assert a[0] == vec(0, 0) and a[1] == vec(2, 2)
    for x in a:
        assert box.contains(x)
    c = sample_solution_set(box, 8, seed=43)
    assert c != a

    point = BoxSolutionSet(vec(2), vec(2))
    assert all(x == vec(2) for x in sample_solution_set(point, 5, seed=1))

    with pytest.raises(DegenerateInputError):
        sample_solution_set(EmptySolutionSet("NO_REGULAR_SOLUTION"), 3, seed=0)
    with pytest.raises(DegenerateInputError):
        sample_solution_set(BoxSolutionSet(vec(3), vec(1)), 3, seed=0)


def test_sampling_generated_set_unbounded():
    from tropsolve import GeneratedSolutionSet
    eye = Matrix.identity(MAX_PLUS, 2)
    gen_set = GeneratedSolutionSet(eye, vec(0, 0), None)
    xs = sample_solution_set(gen_set, 10, seed=7)
    assert all(vec(0, 0) <= x for x in xs)


def test_verify_report_passes_and_detects_corruption():
    data = {"p": vec(4), "q": vec(0), "g": vec(1), "h": vec(3)}
    rep = solve("cheb_box", **data)
    ok = verify_report("cheb_box", data, rep)
    assert ok.passed and ok.gap == 0

    corrupted = dataclasses.replace(rep, optimum=rep.optimum * MAX_PLUS.scalar(1))
    bad = verify_report("cheb_box", data, corrupted)
    assert not bad.passed and bad.grid_beats_solver
    assert bad.attainment_failures  # samples no longer hit the forged optimum


def test_verify_infeasible_instance():
    data = {"p": vec(4), "q": vec(0), "g": vec(3), "h": vec(1)}
    rep = solve("cheb_box", **data)
    vr = verify_report("cheb_box", data, rep)
    assert vr.passed and vr.grid_optimum is None


def test_infeasible_report_walks_the_data_span_grid():
    # no anchor to center on: the data range [0, 4] widened by one unit,
    # in steps of default_step(1) = 1/2
    data = {"p": vec(4), "q": vec(0), "g": vec(3), "h": vec(1)}
    rep = solve("cheb_box", **data)
    assert rep.status == "infeasible"
    grid = default_grid("cheb_box", data, rep)
    assert [(lo.v, hi.v) for lo, hi in grid.intervals] == [(-1, 5)]
    assert grid.step.v == F(1, 2)
    vr = verify_report("cheb_box", data, rep)
    assert grid_search("cheb_box", data, grid).points_total == 13
    assert vr.passed and vr.grid_points == 13


def test_data_span_grid_reaches_a_scalar_input():
    # r is the one payload outside [0, 5]: the span must come from it too
    data = {"A": vec(0).transpose(), "p": vec(0), "q": vec(0), "g": vec(5),
            "h": vec(0), "r": MAX_PLUS.scalar(100)}
    rep = solve("new_boxed_spectral", **data)
    assert rep.status == "infeasible"
    grid = default_grid("new_boxed_spectral", data, rep)
    assert [(lo.v, hi.v) for lo, hi in grid.intervals] == [(-1, 101)]


def test_max_times_gap_is_a_ratio():
    # max(x, 16/x) is least at x = 4, but the grid {1, 8} reaches only 8:
    # a gap of 8/4, where a difference would read 4
    sf = MAX_TIMES
    data = {name: vector(sf, [v]) for name, v in
            (("p", 16.0), ("q", 1.0), ("g", 1.0), ("h", 16.0))}
    rep = solve("cheb_box", **data)
    assert rep.optimum == sf.scalar(4.0)
    grid = GridSpec(((sf.scalar(1.0), sf.scalar(8.0)),), sf.scalar(8.0))
    vr = verify_report("cheb_box", data, rep, grid=grid)
    assert vr.grid_optimum == sf.scalar(8.0) and vr.gap == 2.0
    assert not vr.grid_beats_solver and not vr.passed


def test_default_step_lattice():
    assert default_step(1) == F(1, 2)
    assert default_step(2) == F(1, 6)
    assert default_step(3) == F(1, 12)
    assert default_step(4) == F(1, 60)


def test_default_grid_centers_on_anchor():
    data = generate("rayleigh_box", 2, seed=11)
    rep = solve("rayleigh_box", **data)
    grid = default_grid("rayleigh_box", data, rep)
    assert len(grid.intervals) == 2
    res = grid_search("rayleigh_box", data, grid)
    assert res.found and res.value == rep.optimum


def test_default_grid_margin():
    data = generate("rayleigh_box", 2, seed=11)
    rep = solve("rayleigh_box", **data)
    anchor = rep.solution.anchor()
    # a positive margin below one step rounds up to one step
    grid = default_grid("rayleigh_box", data, rep, margin=F(1, 1000))
    step = default_step(2)
    assert [(lo.v, hi.v) for lo, hi in grid.intervals] == [
        (anchor[i].v - step, anchor[i].v + step) for i in range(2)]
    for margin in (F(0), F(-5)):
        with pytest.raises(DegenerateInputError, match="margin"):
            default_grid("rayleigh_box", data, rep, margin=margin)


# ----------------------------------------------------------------------
# grid_search walks additive carriers on int payloads scaled by the lcm of
# the denominators; the walk on the payloads as given is its reference

def _axes(grid):
    """The payloads of the grid's axes, not lifted: ``lo + i step`` (``lo
    step^i`` on a multiplicative carrier) while within ``hi`` (``hi (1 +
    1e-12)``)."""
    sf, step = grid.step.sf, grid.step.v
    axes = []
    for lo, hi in grid.intervals:
        axis, v, top = [], lo.v, hi.v if sf.additive else hi.v * (1.0 + 1e-12)
        while v <= top:
            axis.append(v)
            v = v + step if sf.additive else v * step
        axes.append(axis)
    return axes


def _reference_grid_search(kind, data, grid):
    """Exhaustive walk on the data and grid payloads as given, through the
    Matrix-level reference semantics."""
    objective, feasible = REFERENCE_OBJECTIVE[kind], REFERENCE_FEASIBLE[kind]
    minimizing = PROBLEM_KINDS[kind].sense == "min"
    sf = grid.step.sf
    axes = _axes(grid)
    best = argbest = None
    n_feasible = 0
    for combo in itertools.product(*axes):
        x = Matrix(sf, tuple((s,) for s in combo))
        if not feasible(data, x):
            continue
        n_feasible += 1
        val = objective(data, x)
        if best is None or (val < best if minimizing else best < val):
            best, argbest = val, x
    return GridResult(best is not None, best, argbest,
                      math.prod(map(len, axes)), n_feasible)


def _canonical(v) -> bool:
    """An exact payload in canonical form: an int exactly when integral."""
    return type(v) is (int if v.denominator == 1 else F)


def _assert_equals_reference(kind, data, grid):
    res = grid_search(kind, data, grid)
    ref = _reference_grid_search(kind, data, grid)
    assert res == ref
    if ref.found:
        assert res.value.literal() == ref.value.literal()
        assert res.argbest.to_payloads() == ref.argbest.to_payloads()
        assert res.value.is_zero or _canonical(res.value.v)
        assert all(_canonical(v) for row in res.argbest.to_payloads() for v in row)
    return res


def _shifted(data, grid, delta):
    """Every nonzero payload of the data and of the grid bounds plus delta."""
    shift = grid.step.sf.scalar(delta)
    return ({name: shift * value for name, value in data.items()},
            GridSpec(tuple((lo * shift, hi * shift) for lo, hi in grid.intervals),
                     grid.step, grid.cap))


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_grid_search_equals_reference_walk(kind, sf):
    found = 0
    for n in (1, 2, 3):
        data = generate(kind, n, seed=n, sf=sf)
        grid = default_grid(kind, data, solve(kind, **data))
        found += _assert_equals_reference(kind, data, grid).found
        if n < 3:
            # shifts whose denominators are not the step's, so L exceeds it;
            # the grid alone shifted puts them in the bounds only
            for delta in (F(1, 7), F(-2, 5)):
                moved_data, moved_grid = _shifted(data, grid, delta)
                _assert_equals_reference(kind, moved_data, moved_grid)
                _assert_equals_reference(kind, data, moved_grid)
    assert found == 3


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_a_three_axis_grid_past_one_batch_equals_the_reference_walk(kind, sf):
    # 19 x 17 x 15 points around the anchor: more than one batch, and no
    # axis count divides the batch size, so batches cut runs of every column
    data = generate(kind, 3, seed=5, sf=sf)
    report = solve(kind, **data)
    center = ([0] * 3 if report.solution is None
              else [report.solution.anchor()[i].v for i in range(3)])
    step = F(1, 12)
    grid = GridSpec(tuple((sf.scalar(c - m * step), sf.scalar(c + m * step))
                          for c, m in zip(center, (9, 8, 7))), sf.scalar(step))
    counts = [len(axis) for axis in _axes(grid)]
    assert counts == [19, 17, 15] and math.prod(counts) > _BATCH
    assert all(_BATCH % c for c in counts)
    _assert_equals_reference(kind, data, grid)


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS], ids=lambda sf: sf.tag)
def test_grid_search_tie_takes_the_first_point(sf):
    # x- A x with A = I is one for every x: each of the 5 x 8 points ties
    grid = GridSpec(((sf.scalar(F(-2, 5)), sf.scalar(F(2, 5))),
                     (sf.scalar(F(1, 7)), sf.scalar(F(11, 7)))),
                    sf.scalar(F(1, 5)))
    data = {"A": Matrix.identity(sf, 2)}
    res = _assert_equals_reference("rayleigh", data, grid)
    assert res.points_feasible == res.points_total == 5 * 8
    assert res.value == sf.one
    assert res.argbest.to_payloads() == [[F(-2, 5)], [F(1, 7)]]
