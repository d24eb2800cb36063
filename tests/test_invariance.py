"""Metamorphic invariance: a monomial change of variables leaves every
problem's optimum where it is.

Substituting ``x = T y`` for a monomial matrix T (a permutation times a
diagonal) maps each problem kind to an instance of the same kind: every
input is transformed by its declared shape, a row letter ``n`` getting
``T-`` on the left and a column letter ``n`` getting ``T`` on the right,
and the other letters staying.  Since ``T- T = I`` and multiplication by a
monomial matrix keeps the order both ways, ``x- A x = y- (T- A T) y``,
``x- p = y- (T- p)``, ``q- x = (T- q)- y``, ``B x + g <= x`` iff ``T- B T y
+ T- g <= y`` and ``C x <= h`` iff ``C T y <= h``.  So the transformed
instance has the same status and optimum, and ``T`` maps its reported
anchor to a feasible, optimal point of the original instance.

The diagonal has exponents in [-3, 3]: carrier units on max-plus and
min-plus, powers of two on max-times and min-times, whose products stay
exact in floating point.
"""

import random

import pytest

from tropsolve import MAX_PLUS, MAX_TIMES, MIN_PLUS, MIN_TIMES, Matrix, solve
from tropsolve.gen import generate
from tropsolve.problems import PROBLEM_KINDS
from tropsolve.solvers import OPTIMAL

CARRIERS = (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)


def monomial(sf, n: int, seed: int) -> Matrix:
    """A permutation matrix times a diagonal one, exponents in [-3, 3]."""
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    rows = [[None] * n for _ in range(n)]
    for i, j in enumerate(perm):
        e = rng.randint(-3, 3)
        rows[i][j] = e if sf.additive else 2.0 ** e
    return Matrix.from_rows(sf, rows)


def substitute(shapes: dict, data: dict, t: Matrix) -> dict:
    """The inputs of the instance in ``y`` for ``x = T y``."""
    tc = t.conj()
    out = {}
    for name, value in data.items():
        letters = shapes[name]
        if letters[:1] == "n":
            value = tc @ value
        if letters[1:] == "n":
            value = value @ t
        out[name] = value
    return out


def test_the_inverse_of_a_monomial_matrix_is_its_conjugate():
    for sf in CARRIERS:
        t = monomial(sf, 5, 1)
        assert t.conj() @ t == Matrix.identity(sf, 5)
        assert t @ t.conj() == Matrix.identity(sf, 5)


@pytest.mark.parametrize("n", (3, 8))
@pytest.mark.parametrize("sf", CARRIERS, ids=lambda sf: sf.tag)
@pytest.mark.parametrize("kind", sorted(PROBLEM_KINDS))
def test_a_monomial_change_of_variables_keeps_the_optimum(kind, sf, n):
    pk = PROBLEM_KINDS[kind]
    for seed in (0, 1):
        data = generate(kind, n, seed, sf)
        t = monomial(sf, n, 1000 + seed)
        report = solve(kind, **data)
        moved = solve(kind, **substitute(pk.shapes, data, t))
        assert moved.status == report.status == OPTIMAL, (kind, seed)  # generated feasible
        if sf.additive:  # exact payloads: the same value and type
            assert moved.optimum.v == report.optimum.v, (kind, seed)
            assert type(moved.optimum.v) is type(report.optimum.v)
        else:
            assert moved.optimum == report.optimum, (kind, seed)
        (ok,), (value,) = pk.evaluate(data, [t @ moved.solution.anchor()])
        assert ok, (kind, seed)
        assert sf.eq_payload(value, report.optimum.v), (kind, seed)
