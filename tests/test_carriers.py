"""End-to-end behavior on the non-default carriers.

``v -> 2**v`` maps the additive carriers onto the multiplicative ones and
preserves every order and product relation, so a solved instance must map
to a solved instance with the image optimum.  ``v -> -v`` maps max-plus
onto min-plus exactly in the same way.  The min-carriers reverse the
order; the same solver code must keep working through the semifield
comparisons alone.
"""

import copy
import math
import pickle
import random

import pytest

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    OPTIMAL,
    GridSpec,
    Matrix,
    Scalar,
    TropsolveError,
    cycle_mean_radius,
    grid_search,
    kleene_star,
    sample_solution_set,
    solve,
    spectral_radius,
    verify_report,
)
from tropsolve.gen import generate
from tropsolve.problems import PROBLEM_KINDS

EXP_PAIRS = ((MAX_PLUS, MAX_TIMES), (MIN_PLUS, MIN_TIMES))


@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_exponential_isomorphism_transports_optima(kind):
    rng = random.Random(51)
    for trial in range(15):
        n = rng.randint(1, 3)
        seed = 7000 + trial
        for add_sf, mul_sf in EXP_PAIRS:
            add_rep = solve(kind, **generate(kind, n, seed=seed, sf=add_sf))
            mul_rep = solve(kind, **generate(kind, n, seed=seed, sf=mul_sf))
            assert mul_rep.status == add_rep.status
            assert mul_rep.optimum == mul_sf.scalar(2.0 ** float(add_rep.optimum.v))


def _negated(value):
    """The min-plus image of a max-plus matrix or scalar under ``v -> -v``."""
    if isinstance(value, Scalar):
        return MIN_PLUS.scalar(None if value.is_zero else -value.v)
    return Matrix.from_rows(MIN_PLUS, [[None if v is None else -v for v in r]
                                       for r in value.to_payloads()])


def _outcome(kind, data):
    """Status, reason, optimum payload and diagnostics, or the error raised."""
    try:
        rep = solve(kind, **data)
    except TropsolveError as exc:
        return type(exc).__name__, str(exc)
    optimum = None if rep.optimum is None else rep.optimum.v
    return rep.status, rep.reason, optimum, rep.diagnostics


def _shifted(value, rng):
    """A copy of a max-plus matrix or scalar with some entries moved by a
    few units and some set to zero."""
    def move(v):
        if rng.random() < 0.1:
            return None
        return v if v is None or rng.random() < 0.5 else v + rng.randint(-4, 4)
    if isinstance(value, Scalar):
        return MAX_PLUS.scalar(move(value.v))
    return Matrix.from_rows(MAX_PLUS, [[move(v) for v in r]
                                       for r in value.to_payloads()])


@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_negation_maps_max_plus_onto_min_plus(kind):
    """Generated instances and copies with entries shifted or zeroed, so
    that gates fail and preconditions break as well."""
    rng = random.Random(56)
    statuses = set()
    for trial in range(24):
        n = rng.randint(1, 4)
        data = generate(kind, n, seed=7300 + trial, sf=MAX_PLUS)
        if trial % 2:
            data = {k: _shifted(v, rng) for k, v in data.items()}
        want = _outcome(kind, data)
        if len(want) == 4 and want[2] is not None:
            want = (*want[:2], -want[2], want[3])
        assert _outcome(kind, {k: _negated(v) for k, v in data.items()}) == want
        statuses.add(want[0])
    assert OPTIMAL in statuses


def test_min_plus_rayleigh_is_min_cycle_mean():
    rng = random.Random(52)
    for trial in range(30):
        n = rng.randint(1, 4)
        data = generate("rayleigh", n, seed=7100 + trial, sf=MIN_PLUS)
        rep = solve("rayleigh", **data)
        lam = spectral_radius(data["A"])
        assert rep.optimum == lam == cycle_mean_radius(data["A"])
        pk = PROBLEM_KINDS["rayleigh"]
        for x in sample_solution_set(rep.solution, 8, seed=trial):
            assert pk.objective(data, x) == lam


def test_min_plus_solver_beats_nothing_on_grid():
    data = generate("rayleigh_box", 2, seed=53, sf=MIN_PLUS)
    rep = solve("rayleigh_box", **data)
    vr = verify_report("rayleigh_box", data, rep, seed=1)
    assert vr.passed and vr.gap == 0


@pytest.mark.parametrize("kind", ["cheb_box", "rayleigh"])
def test_multiplicative_grid_never_beats_solver(kind):
    rng = random.Random(54)
    for trial in range(5):
        n = rng.randint(1, 2)
        data = generate(kind, n, seed=7200 + trial, sf=MAX_TIMES)
        rep = solve(kind, **data)
        pk = PROBLEM_KINDS[kind]
        dim = pk.dim(data)
        from tropsolve import anchor_member
        anchor = anchor_member(rep)
        intervals = tuple(
            (anchor[i] * MAX_TIMES.scalar(0.25), anchor[i] * MAX_TIMES.scalar(4.0))
            for i in range(dim))
        res = grid_search(kind, data, GridSpec(intervals, MAX_TIMES.scalar(2.0)))
        assert res.found
        assert not (res.value < rep.optimum)
        for x in sample_solution_set(rep.solution, 10, seed=trial):
            assert pk.feasible(data, x)
            assert pk.objective(data, x) == rep.optimum


def test_min_times_shortest_path_flavor():
    # star closure over (min, x): multiplicative path costs
    w = Matrix.from_rows(MIN_TIMES, [[None, 2.0], [4.0, None]])
    s = w.star()
    assert s[0, 1].v == pytest.approx(2.0)
    assert s[0, 0] == MIN_TIMES.one
    lam = spectral_radius(Matrix.from_rows(MIN_TIMES, [[None, 2.0], [4.0, None]]))
    assert lam.v == pytest.approx(math.sqrt(8.0))


def test_exponential_map_members_transport():
    add_data = generate("rayleigh_lower", 2, seed=55, sf=MAX_PLUS)
    mul_data = generate("rayleigh_lower", 2, seed=55, sf=MAX_TIMES)
    add_rep = solve("rayleigh_lower", **add_data)
    mul_rep = solve("rayleigh_lower", **mul_data)
    pk = PROBLEM_KINDS["rayleigh_lower"]
    for x in sample_solution_set(mul_rep.solution, 6, seed=2):
        assert pk.feasible(mul_data, x)
        assert pk.objective(mul_data, x) == mul_rep.optimum
    assert mul_rep.optimum == MAX_TIMES.scalar(2.0 ** float(add_rep.optimum.v))


#: two multiplicative payloads within ``REL_TOL`` of each other, but not equal
TIES = ((1.0, 1.0 - 1e-12), (1.0, 1.0 + 1e-12))


@pytest.mark.parametrize("sf", (MAX_TIMES, MIN_TIMES), ids=lambda sf: sf.tag)
@pytest.mark.parametrize("u, w", TIES)
def test_tolerance_ties_keep_the_second_operand(sf, u, w):
    # a tie within REL_TOL is decided by operand order, never by the numbers
    assert u != w and sf.scalar(u) == sf.scalar(w)
    assert (sf.scalar(u) + sf.scalar(w)).v == w
    assert (sf.scalar(w) + sf.scalar(u)).v == u
    total = Matrix.from_rows(sf, [[u, w]]) + Matrix.from_rows(sf, [[w, u]])
    assert total.to_payloads() == [[w, u]]
    # the star's diagonal is one + (A+)_ii, so a tie there keeps (A+)_ii
    star = kleene_star(Matrix.from_rows(sf, [[w]]))
    assert star.closure_valid
    assert star.matrix.to_payloads() == [[w]]


@pytest.mark.parametrize("sf", (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES),
                         ids=lambda sf: sf.tag)
def test_pickled_and_copied_values_keep_their_semifield(sf):
    # a copy must refer to the singleton, so that it mixes with the originals
    report = solve("rayleigh_box", **generate("rayleigh_box", 3, seed=4, sf=sf))
    m = report.solution.generator
    for roundtrip in (lambda v: pickle.loads(pickle.dumps(v)), copy.deepcopy):
        assert roundtrip(sf) is sf
        for s in (sf.zero, sf.one, report.optimum):
            t = roundtrip(s)
            assert t == s and t.sf is sf
            assert t + sf.one == s + sf.one and t * sf.one == s
        t = roundtrip(m)
        assert t == m and t @ m == m @ m and m @ t == m @ m
        t = roundtrip(report)
        assert t == report and t.optimum * sf.one == report.optimum
        assert t.solution.anchor() == report.solution.anchor()


@pytest.mark.parametrize("sf", (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES),
                         ids=lambda sf: sf.tag)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_values_round_trip_under_every_pickle_protocol(sf, protocol):
    # __slots__ classes need their own reduction below protocol 2
    m = Matrix.from_rows(sf, [[sf.one.v, None], [sf.scalar("3/2").v, sf.one.v]])
    for s in (sf.zero, sf.one, sf.scalar("3/2")):
        t = pickle.loads(pickle.dumps(s, protocol=protocol))
        assert t == s and t.sf is sf and type(t.v) is type(s.v)
    assert pickle.loads(pickle.dumps(sf.zero, protocol=protocol)) is sf.zero
    t = pickle.loads(pickle.dumps(m, protocol=protocol))
    assert t.sf is sf and t.p == m.p and t.shape == m.shape
