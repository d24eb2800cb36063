"""The semantics over batches of points against a per-point reference.

``ProblemKind.value`` / ``admits`` run over a batch of points at once: the
grid walk evaluates a batch of grid points per call, and
``ProblemKind.evaluate`` the sampled members of a solution set in one call.
The references here walk one point at a time through the Matrix-level
formulas of ``test_problems``, so the batch forms are checked against
semantics they do not share.  Floats must agree bit for bit, exact values
with the same type.
"""

import dataclasses
import itertools
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    CarrierDomainError,
    DegenerateInputError,
    GridSpec,
    Matrix,
    TagMismatchError,
    grid_search,
    sample_solution_set,
    solve,
    vector,
    verify_report,
)
from tropsolve.gen import generate
from tropsolve.oracle import _BATCH
from tropsolve.problems import PROBLEM_KINDS, LaneFormat

from test_invariance import substitute
from test_oracle import _axes, _reference_grid_search
from test_problems import REFERENCE_FEASIBLE, REFERENCE_OBJECTIVE, _point, _same

CARRIERS = (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)
ADDITIVE = (MAX_PLUS, MIN_PLUS)


def _grid(sf, center, n):
    """Five points per axis around ``center``: one unit either side in steps
    of 1/2 on the additive carriers, a factor 4 in steps of 2 on the others."""
    if sf.additive:
        step, spread = F(1, 2), sf.scalar(1)
    else:
        step, spread = 2.0, sf.scalar(4.0)
    return GridSpec(tuple((c * spread.inv(), c * spread) for c in center[:n]),
                    sf.scalar(step))


def _assert_walks_agree(kind, data, grid):
    res = grid_search(kind, data, grid)
    ref = _reference_grid_search(kind, data, grid)
    assert (res.found, res.points_total, res.points_feasible) == (
        ref.found, ref.points_total, ref.points_feasible)
    if ref.found:
        assert _same(res.value, ref.value), (res.value, ref.value)
        assert res.argbest.p == ref.argbest.p
    return res


# ----------------------------------------------------------------------
# the grid walk

@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_grid_walk_equals_the_per_point_reference(kind, sf):
    found = 0
    for n in (1, 2, 3):
        data = generate(kind, n, seed=10 + n, sf=sf)
        report = solve(kind, **data)
        center = ([sf.one] * n if report.solution is None
                  else [report.solution.anchor()[i] for i in range(n)])
        found += _assert_walks_agree(kind, data, _grid(sf, center, n)).found
    assert found


def _above(sf):
    """A scalar above one in the semifield order."""
    return sf.scalar(1 if sf.additive else 2.0) ** (1 if sf.maximizing else -1)


def _distance_plateau(sf, batch_rows):
    """A cheb_box instance on two axes whose optimum ties along a run of the
    first axis that starts before the batch boundary and ends past it: on
    max-plus ``max(|x1 - c|, |x2 - 10| + 5)``, least for x2 = 10 and any x1
    within 5 of c, the middle of its axis, and mirrored on the others."""
    c = batch_rows + 1

    def entry(v):
        v = v if sf.maximizing else -v
        return v if sf.additive else 2.0 ** v

    def vec(*entries):
        return vector(sf, [entry(v) for v in entries])

    data = {"p": vec(c, 15), "q": vec(c, 5), "g": vec(0, 0), "h": vec(2 * c, 63)}
    intervals = tuple((sf.scalar(min(entry(0), entry(top))),
                       sf.scalar(max(entry(0), entry(top)))) for top in (2 * c, 63))
    return data, GridSpec(intervals, sf.scalar(1 if sf.additive else 2.0))


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_a_tie_across_a_batch_boundary_keeps_the_first_point(sf):
    data, grid = _distance_plateau(sf, _BATCH // 64)
    axes = _axes(grid)
    points = list(itertools.product(*axes))
    assert len(axes[1]) == 64 and len(points) > _BATCH
    objective = REFERENCE_OBJECTIVE["cheb_box"]
    values = [objective(data, Matrix(sf, [[v] for v in point])) for point in points]
    best = values[0]
    for v in values:
        best = v if v < best else best
    ties = [i for i, v in enumerate(values) if v == best]
    assert ties[0] < _BATCH < ties[-1]  # optimal points on both sides
    res = _assert_walks_agree("cheb_box", data, grid)
    assert res.argbest.p == tuple((v,) for v in points[ties[0]])


# x = T y for a diagonal T keeps each instance's status and optimum, and T-
# maps an optimal point to one of the moved instance (test_invariance): the
# payloads of T make lifted payloads past 2^64, denominators whose lcm
# passes 2^64, or negative payloads, in the data and on every axis
WIDE = {
    "above_2_64": (2 ** 70 + F(1, 7), -(2 ** 70) - F(2, 9)),
    "large_lcm": (F(1, 2 ** 31 - 1), F(-5, 2 ** 61 - 1)),
    "negative": (2 ** 40 + F(1, 5), 2 ** 40 + F(7, 3)),
}


@pytest.mark.parametrize("diagonal", WIDE.values(), ids=WIDE.keys())
@pytest.mark.parametrize("sf", ADDITIVE, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_a_walk_on_wide_lanes_equals_the_per_point_reference(kind, sf, diagonal):
    t = Matrix(sf, [[diagonal[0], None], [None, diagonal[1]]])
    for seed in (0, 1):
        data = generate(kind, 2, seed, sf)
        center = t.conj() @ solve(kind, **data).solution.anchor()
        moved = substitute(PROBLEM_KINDS[kind].shapes, data, t)
        res = _assert_walks_agree(kind, moved, _grid(sf, [center[0], center[1]], 2))
        assert res.found


@pytest.mark.parametrize("sf", ADDITIVE, ids=lambda sf: sf.tag)
def test_the_only_admitted_point_is_the_last_lane_of_a_batch(sf):
    # g = h = the point before the batch boundary on one axis of _BATCH + 10
    target = _BATCH - 1
    data = {"p": vector(sf, [5]), "q": vector(sf, [-3]),
            "g": vector(sf, [target]), "h": vector(sf, [target])}
    grid = GridSpec(((sf.scalar(0), sf.scalar(_BATCH + 9)),), sf.scalar(1))
    res = grid_search("cheb_box", data, grid)
    assert res.found and res.points_total == _BATCH + 10 and res.points_feasible == 1
    assert res.argbest.p == ((target,),)
    assert res.value == REFERENCE_OBJECTIVE["cheb_box"](data, res.argbest)


@pytest.mark.parametrize("sf", ADDITIVE, ids=lambda sf: sf.tag)
def test_an_optimum_tied_on_the_first_and_the_last_lane_takes_the_first(sf):
    # the span of (x1, c) is |x1 - c|, largest at both ends of x1's axis only
    c, k = F(1, 3), 49
    eye = Matrix.identity(sf, 2)
    grid = GridSpec(((sf.scalar(c - k), sf.scalar(c + k)), (sf.scalar(c), sf.scalar(c))),
                    sf.scalar(1))
    res = _assert_walks_agree("span_max_norm", {"A": eye, "B": eye}, grid)
    assert res.points_total == 2 * k + 1
    assert res.argbest.p == ((c - k,), (c,))
    assert abs(res.value.v) == k


# ----------------------------------------------------------------------
# the lane primitives against plain ints

@settings(max_examples=150, deadline=None)
@given(st.data())
def test_the_lane_operations_equal_the_int_operations_lane_by_lane(data):
    # lanes narrower and wider than 64 bits, from 1 to 300 of them
    bits = data.draw(st.integers(0, 200), label="bits")
    count = data.draw(st.integers(1, 300), label="count")
    ints = st.integers(-(2 ** bits), 2 ** bits)
    a = data.draw(st.lists(ints, min_size=count, max_size=count), label="a")
    b = data.draw(st.lists(ints, min_size=count, max_size=count), label="b")
    y = data.draw(ints, label="y")  # a payload, the same in every lane
    lanes = LaneFormat(count, max(map(abs, [*a, *b, y])))
    u, v = lanes.pack(a), lanes.pack(b)
    assert lanes.unpack(u.v) == a
    ys = [y] * count
    for left, right, xs, zs in ((u, v, a, b), (u, y, a, ys), (y, v, ys, b)):
        assert lanes.unpack(lanes.times(left, right).v) == list(map(int.__add__, xs, zs))
        assert lanes.unpack(lanes.plus(left, right, True).v) == list(map(max, xs, zs))
        assert lanes.unpack(lanes.plus(left, right, False).v) == list(map(min, xs, zs))
        assert lanes.admitted(lanes.at_least(left, right)) == list(map(int.__ge__, xs, zs))
    assert lanes.unpack(lanes.inverse(u).v) == [-x for x in a]
    mask = lanes.at_least(u, v) & lanes.at_least(y, u)
    flags = [x >= z and y >= x for x, z in zip(a, b)]
    assert lanes.admitted(mask) == flags
    assert mask.bit_count() == sum(flags)
    if any(flags):
        assert lanes.first(mask) == flags.index(True)
        admitted = [x for x, ok in zip(a, flags) if ok]
        for largest, extreme in ((True, max), (False, min)):
            top = extreme(admitted)
            first = next(i for i, x in enumerate(a) if flags[i] and x == top)
            assert lanes.best(u.v, mask, largest) == (first, top)


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_a_grid_with_no_feasible_point(sf):
    # g above one and h one: no x has g <= x <= h
    data = generate("cheb_box", 2, seed=4, sf=sf)
    data["h"] = Matrix.ones(sf, 2, 1)
    data["g"] = _above(sf) * data["h"]
    res = _assert_walks_agree("cheb_box", data, _grid(sf, [sf.one] * 2, 2))
    assert not res.found and res.points_total == 25 and res.points_feasible == 0
    # a zero entry of h admits no regular x, whatever the point
    data["g"], data["h"] = data["h"], vector(sf, [sf.one.v, None])
    res = _assert_walks_agree("cheb_box", data, _grid(sf, [sf.one] * 2, 2))
    assert not res.found and res.points_feasible == 0


# ----------------------------------------------------------------------
# the member checks

def _members(kind, sf, n, data, rng):
    """Sampled members, then regular random points, then points with zeros
    at which the reference objective is defined."""
    report = solve(kind, **data)
    out = [] if report.solution is None else sample_solution_set(report.solution, 8, n)
    out += [_point(sf, rng, n) for _ in range(6)]
    for _ in range(12):
        x = _point(sf, rng, n, zeros=True)
        try:
            REFERENCE_OBJECTIVE[kind](data, x)
        except DegenerateInputError:
            continue
        out.append(x)
    return out


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_evaluate_equals_objective_and_feasible_member_by_member(kind, sf):
    rng = random.Random(f"evaluate/{kind}/{sf.tag}")
    pk = PROBLEM_KINDS[kind]
    for n in (1, 2, 3):
        data = generate(kind, n, seed=20 + n, sf=sf)
        xs = _members(kind, sf, n, data, rng)
        flags, values = pk.evaluate(data, xs)
        assert len(flags) == len(values) == len(xs)
        for x, ok, val in zip(xs, flags, values):
            assert ok is pk.feasible(data, x) is REFERENCE_FEASIBLE[kind](data, x)
            want = pk.objective(data, x)
            assert _same(sf.wrap(val), want), (x, val, want)
            assert _same(want, REFERENCE_OBJECTIVE[kind](data, x))


def test_evaluate_on_no_members_and_on_members_of_two_semifields():
    pk = PROBLEM_KINDS["rayleigh"]
    data = {"A": Matrix(MAX_PLUS, [[0]])}
    assert pk.evaluate(data, []) == ([], [])
    with pytest.raises(TagMismatchError):
        pk.evaluate(data, [vector(MAX_PLUS, [1]), vector(MIN_PLUS, [1])])


# ----------------------------------------------------------------------
# errors keep their types

@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_an_all_zero_conjugate_raises_only_at_an_admitted_point(sf):
    # C x is all zero, and D x <= x holds everywhere for D = [[one]]
    data = {"C": Matrix(sf, [[None]]), "D": Matrix(sf, [[sf.one]])}
    grid = _grid(sf, [sf.one], 1)
    pk = PROBLEM_KINDS["span_min_constrained"]
    with pytest.raises(DegenerateInputError, match="all-zero"):
        grid_search("span_min_constrained", data, grid)
    with pytest.raises(DegenerateInputError, match="all-zero"):
        pk.evaluate(data, [Matrix.ones(sf, 1, 1)])
    # D above one: D x <= x fails everywhere, and nothing is evaluated
    data["D"] = Matrix(sf, [[_above(sf)]])
    res = grid_search("span_min_constrained", data, grid)
    assert not res.found and res.points_feasible == 0


@pytest.mark.parametrize("sf", [MAX_TIMES, MIN_TIMES], ids=lambda sf: sf.tag)
def test_an_underflow_raises_only_at_an_admitted_point(sf):
    # x- A x inverts x, and the inverses of the subnormal points 1e-310 and
    # 1e-309 pass the float range; the bound ``least <= x`` (in the carrier
    # order, so g on max-times and h on min-times) decides whether they count
    grid = GridSpec(((sf.scalar(1e-310), sf.scalar(1e-300)),), sf.scalar(10.0))
    pk = PROBLEM_KINDS["rayleigh_box"]
    for least, raises in ((1e-305, False), (1e-320, True)):
        bound, top = vector(sf, [least]), vector(sf, [1.0])
        g, h = (bound, top) if sf.maximizing else (top, bound)
        data = {"A": Matrix(sf, [[1.0]]), "g": g, "h": h}
        if raises:
            with pytest.raises(CarrierDomainError):
                grid_search("rayleigh_box", data, grid)
        else:
            res = grid_search("rayleigh_box", data, grid)
            assert res.found and res.points_feasible == 6
    tiny = vector(sf, [1e-310])
    assert pk.feasible(data, tiny) is REFERENCE_FEASIBLE["rayleigh_box"](data, tiny)
    with pytest.raises(CarrierDomainError):
        pk.evaluate(data, [vector(sf, [1.0]), tiny])


# ----------------------------------------------------------------------
# verify_report checks its members through evaluate

def _reports(sf):
    """(kind, data, report) with a solution of every type."""
    for kind in ("cheb_box", "cheb_image_lower", "cheb_kleene_box", "rayleigh",
                 "span_min", "span_max", "span_max_constrained"):
        for seed in (1, 2, 3):
            data = generate(kind, 3, seed, sf)
            report = solve(kind, **data)
            if report.solution is not None:
                yield kind, data, report
                break


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_a_negative_sample_count_is_refused_and_zero_checks_none(sf):
    types = set()
    for kind, data, report in _reports(sf):
        types.add(type(report.solution).__name__)
        grid = None if sf.additive else _grid(sf, [report.solution.anchor()[i]
                                                   for i in range(3)], 3)
        with pytest.raises(DegenerateInputError, match="negative"):
            verify_report(kind, data, report, grid=grid, samples=-1)
        vr = verify_report(kind, data, report, grid=grid, samples=0)
        assert vr.samples_checked == 0
        assert not vr.feasibility_failures and not vr.attainment_failures
        if sf.additive:
            assert vr.passed
    assert types == {"BoxSolutionSet", "GeneratedSolutionSet", "RaySolution",
                     "ComponentwiseFamily"}


def _failures(kind, data, report, samples, seed):
    """``(feasibility, attainment)`` failures of the sampled Matrix members,
    by ``evaluate`` and ``eq_payload`` against the reported optimum; each
    member's flag and value also by the per-point reference."""
    sf = report.optimum.sf
    members = sample_solution_set(report.solution, samples, seed)
    flags, values = PROBLEM_KINDS[kind].evaluate(data, members)
    for x, ok, val in zip(members, flags, values):
        assert ok is REFERENCE_FEASIBLE[kind](data, x)
        assert _same(sf.wrap(val), REFERENCE_OBJECTIVE[kind](data, x))
    return (tuple(i for i, ok in enumerate(flags) if not ok),
            tuple(i for i, v in enumerate(values)
                  if not sf.eq_payload(v, report.optimum.v)))


@pytest.mark.parametrize("sf", ADDITIVE, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_verify_report_fails_the_members_evaluate_fails(kind, sf):
    # verify_report checks the members as the lifted ints they are drawn as;
    # evaluate lifts the Matrix members anew.  The optimum moved by 1/7, and
    # h tightened by 8/7, bring in a denominator the members do not have
    moved = sf.scalar(F(1, 7))
    tighter = sf.scalar(F(-8, 7) if sf.maximizing else F(8, 7))
    missed = infeasible = 0
    for n in (1, 2, 3, 5):
        for seed in (1, 2, 3):
            data = generate(kind, n, seed, sf)
            report = solve(kind, **data)
            if report.solution is None:
                continue
            anchor = report.solution.anchor()
            grid = GridSpec(tuple((anchor[i], anchor[i]) for i in range(n)), sf.scalar(1))
            cases = [(data, report),
                     (data, dataclasses.replace(report, optimum=report.optimum * moved))]
            if "h" in data:
                cases.append(({**data, "h": tighter * data["h"]}, report))
            for case, (d, r) in enumerate(cases):
                for samples in (0, 12):
                    vr = verify_report(kind, d, r, grid=grid, samples=samples, seed=seed)
                    want = _failures(kind, d, r, samples, seed)
                    assert (vr.feasibility_failures, vr.attainment_failures) == want
                    assert vr.samples_checked == samples
                    if case == 0:
                        assert want == ((), ())
                    missed += case == 1 and len(want[1]) == samples > 0
                    infeasible += case == 2 and bool(want[0])
    assert missed == 4 * 3  # at every n and seed, every member misses it
    assert infeasible or "h" not in PROBLEM_KINDS[kind].shapes
