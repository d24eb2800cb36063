"""The payload semantics of every problem kind against a Matrix-level reference.

The registry states each kind's objective and constraints once, over
payloads (``ProblemKind.value`` / ``admits``), and ``objective`` /
``feasible`` adapt them to Matrix and Scalar data.  The references below are
the same formulas written with :class:`Matrix` and :class:`Scalar`
operations; the oracle tests walk their reference grid through them too, so
the grid is not checked against the semantics it shares.  Results must agree
exactly: the same payload, bit for bit on floats, with the same type on the
exact carriers.  The points cover generated instances on all four carriers,
data moved off the integers (and off the powers of two), points with zero
entries, sampled solution-set members, and values within ``REL_TOL`` of each
other on max-times and min-times, where the sum keeps its second operand.
"""

import random
import re
from fractions import Fraction as F

import pytest

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    DegenerateInputError,
    Matrix,
    ShapeError,
    sample_solution_set,
    solve,
    vector,
)
from tropsolve.gen import generate
from tropsolve.problems import PROBLEM_KINDS

CARRIERS = (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)


# ----------------------------------------------------------------------
# the reference semantics, on matrices

def _distance(d, y):
    return (d["q"].conj() @ y).item() + (y.conj() @ d["p"]).item()


def _span_ratio(d, x):
    return ((d["q"].conj() @ (d["B"] @ x)).item()
            * ((d["A"] @ x).conj() @ d["p"]).item())


def _span(y):
    return y.norm() * y.conj().norm()


def _bordered_objective(d, x):
    """``x- A x + x- p + q- x + r``, the present terms in that order."""
    xc = x.conj()
    val = (xc @ (d["A"] @ x)).item()
    if "p" in d:
        val = val + (xc @ d["p"]).item()
    if "q" in d:
        val = val + (d["q"].conj() @ x).item()
    if "r" in d:
        val = val + d["r"]
    return val


def _bounded(d, x):
    """``B x + g <= x`` (``g <= x`` without B) and ``C x <= h`` (``x <= h``
    without C), each when its bound is an input."""
    if "g" in d:
        lower = (d["B"] @ x) + d["g"] if "B" in d else d["g"]
        if not lower <= x:
            return False
    return "h" not in d or (d["C"] @ x if "C" in d else x) <= d["h"]


def _unconstrained(d, x):
    return True


_BORDERED = ("rayleigh", "rayleigh_affine", "rayleigh_two_constraints",
             "rayleigh_lower", "rayleigh_box", "rayleigh_p_lower",
             "new_boxed_spectral")

REFERENCE_OBJECTIVE = {
    "cheb_box": _distance,
    "cheb_image_lower": lambda d, x: _distance(d, d["A"] @ x),
    "cheb_kleene_box": _distance,
    "cheb_kleene": _distance,
    "span_min": _span_ratio,
    "span_min_special": lambda d, x: _span(d["A"] @ x),
    "span_min_constrained": lambda d, x: _span(d["C"] @ x),
    "span_max": _span_ratio,
    "span_max_norm": lambda d, x: (d["B"] @ x).norm() * (d["A"] @ x).conj().norm(),
    "span_max_constrained": _span_ratio,
    **dict.fromkeys(_BORDERED, _bordered_objective),
}

REFERENCE_FEASIBLE = {
    "cheb_box": _bounded,
    "cheb_image_lower": _bounded,
    "cheb_kleene_box": _bounded,
    "cheb_kleene": lambda d, x: d["B"] @ x <= x,
    "span_min": _unconstrained,
    "span_min_special": _unconstrained,
    "span_min_constrained": lambda d, x: d["D"] @ x <= x,
    "span_max": _unconstrained,
    "span_max_norm": _unconstrained,
    "span_max_constrained": lambda d, x: d["C"] @ x <= x,
    **dict.fromkeys(_BORDERED, _bounded),
}


def test_the_references_cover_every_kind():
    assert set(REFERENCE_OBJECTIVE) == set(REFERENCE_FEASIBLE) == set(PROBLEM_KINDS)


# ----------------------------------------------------------------------
# instances and points

def _remap(data, entry):
    """``data`` with every nonzero payload replaced by ``entry(payload)``."""
    out = {}
    for name, value in data.items():
        if isinstance(value, Matrix):
            out[name] = Matrix(value.sf, [[None if v is None else entry(v) for v in r]
                                          for r in value.p])
        else:
            out[name] = value.sf.scalar(None if value.v is None else entry(value.v))
    return out


def _moved(sf, rng):
    """An entry map taking integers to nearby rationals, and powers of two to
    floats whose products and inverses round."""
    if sf.additive:
        return lambda v: v + F(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))
    return lambda v: v * rng.uniform(0.7, 1.4)


def _tied(rng):
    """An entry map to values a few ulps apart, equal within ``REL_TOL`` but
    not as floats."""
    return lambda v: float(v) * (1.0 + rng.randint(-4, 4) * 1e-12)


def _point(sf, rng, n, zeros=False, tie=False):
    def entry():
        if zeros and rng.random() < 0.3:
            return None
        if sf.additive:
            return F(rng.randint(-40, 40), rng.choice((1, 2, 3, 6)))
        if tie:
            return rng.choice((0.5, 1.0, 2.0, 4.0)) * (1.0 + rng.randint(-4, 4) * 1e-12)
        return 2.0 ** rng.uniform(-6, 6)
    entries = [entry() for _ in range(n)]
    if all(v is None for v in entries):
        entries[rng.randrange(n)] = sf.one.v
    return vector(sf, entries)


def _same(got, want):
    """Equal payloads of the same type: bit for bit on positive floats."""
    return type(got.v) is type(want.v) and got.v == want.v and got.sf is want.sf


def _check(kind, data, x):
    pk = PROBLEM_KINDS[kind]
    try:
        want = REFERENCE_OBJECTIVE[kind](data, x)
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError, match=re.escape(str(exc))):
            pk.objective(data, x)
    else:
        got = pk.objective(data, x)
        assert _same(got, want), (kind, data, x, got, want)
    assert pk.feasible(data, x) is REFERENCE_FEASIBLE[kind](data, x), (kind, data, x)


def _instances(kind, sf):
    for n in (1, 2, 3):
        for seed in (1, 2):
            yield n, seed, generate(kind, n, seed=100 * n + seed, sf=sf)


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_semantics_equal_the_reference_at_random_points(kind, sf):
    rng = random.Random(f"{kind}/{sf.tag}")
    for n, seed, data in _instances(kind, sf):
        moved = _remap(data, _moved(sf, rng))
        for instance in (data, moved):
            for zeros in (False, True):
                for _ in range(6):
                    _check(kind, instance, _point(sf, rng, n, zeros=zeros))


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_semantics_equal_the_reference_at_sampled_members(kind, sf):
    checked = 0
    for n, seed, data in _instances(kind, sf):
        report = solve(kind, **data)
        if report.solution is None:
            continue
        for x in sample_solution_set(report.solution, 6, seed):
            _check(kind, data, x)
            checked += 1
    assert checked


@pytest.mark.parametrize("sf", [MAX_TIMES, MIN_TIMES], ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_semantics_equal_the_reference_on_ties_within_rel_tol(kind, sf):
    rng = random.Random(f"ties/{kind}/{sf.tag}")
    for n, seed, data in _instances(kind, sf):
        tied = _remap(data, _tied(rng))
        for _ in range(12):
            _check(kind, tied, _point(sf, rng, n, zeros=rng.random() < 0.3, tie=True))


def test_a_tie_within_rel_tol_keeps_the_later_term():
    # x- A x = 2, x- p = 2 (1 + 1e-12), q- x = 2 (1 - 1e-12), r = 2 (1 + 2e-12):
    # each sum of tied terms keeps its second operand, so r comes back
    sf = MAX_TIMES
    r = 2.0 * (1 + 2e-12)
    data = {"A": Matrix(sf, [[2.0]]), "p": vector(sf, [2.0 * (1 + 1e-12)]),
            "q": vector(sf, [0.5 / (1 - 1e-12)]), "r": sf.scalar(r)}
    x = vector(sf, [1.0])
    got = PROBLEM_KINDS["rayleigh_affine"].objective(data, x)
    assert got.v == r == _bordered_objective(data, x).v


@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
def test_an_all_zero_product_raises_as_the_reference_does(sf):
    one = sf.one.v
    a = Matrix(sf, [[one, None], [one, None]])
    x = vector(sf, [None, one])  # A x is all zero
    cases = [("span_min_special", {"A": a}),
             ("span_max_norm", {"A": a, "B": a}),
             ("cheb_image_lower", {"A": a, "p": vector(sf, [one, one]),
                                   "q": vector(sf, [one, one]),
                                   "g": vector(sf, [None, None])})]
    for kind, data in cases:
        with pytest.raises(DegenerateInputError, match="all-zero"):
            REFERENCE_OBJECTIVE[kind](data, x)
        with pytest.raises(DegenerateInputError, match="all-zero"):
            PROBLEM_KINDS[kind].objective(data, x)
    zero = vector(sf, [None, None])
    with pytest.raises(DegenerateInputError, match="all-zero"):
        PROBLEM_KINDS["rayleigh"].objective({"A": a}, zero)


def test_objective_reads_only_the_inputs_it_needs():
    a = Matrix(MAX_PLUS, [[1, 2], [3, 4]])
    x = vector(MAX_PLUS, [0, 1])
    got = PROBLEM_KINDS["rayleigh_box"].objective({"A": a}, x)
    assert _same(got, _bordered_objective({"A": a}, x))


@pytest.mark.parametrize("kind, data, x", [
    ("rayleigh", {"A": Matrix(MAX_PLUS, [[1, 2], [3, 4]])}, [[0], [1], [2]]),
    ("rayleigh_box", {"A": Matrix(MAX_PLUS, [[1, 2], [3, 4]])}, [[0]]),
    ("cheb_box", {"p": vector(MAX_PLUS, [1, 2]), "q": vector(MAX_PLUS, [1, 2]),
                  "g": vector(MAX_PLUS, [0]), "h": vector(MAX_PLUS, [3, 3])},
     [[1], [1]]),
    ("span_min_special", {"A": Matrix(MAX_PLUS, [[1, 2]])}, [[0, 1]]),
], ids=["x too long", "x too short", "bound too short", "x not a column"])
def test_a_shape_mismatch_is_a_shape_error(kind, data, x):
    # the payload semantics zip their tuples, so the adapters check the
    # shapes first: the Matrix operations raise at the first mismatch
    x = Matrix(MAX_PLUS, x)
    pk = PROBLEM_KINDS[kind]
    with pytest.raises(ShapeError):
        pk.objective(data, x)
    with pytest.raises(ShapeError):
        pk.feasible(data, x)
