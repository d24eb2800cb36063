"""The O(n^3) star and spectral kernels against naive reference kernels.

The references are the definitions the kernels replace: the truncated power
sum ``I + A + ... + A^(n-1)`` for the star, and the trace roots
``sum over m of tr(A^m)^(1/m)`` for the spectral radius.  Random matrices
cover every carrier and n = 1..8, including zero-heavy, acyclic, reducible,
critical (lambda == one) and hot (lambda > one) ones; the hot ones take the
star's truncated-sum fallback.  Additive carriers compare exactly, the
multiplicative ones with ``Scalar ==``.
"""

import random
from fractions import Fraction

import pytest

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    Matrix,
    cycle_mean_radius,
    kleene_star,
    spectral_radius,
    tr_functional,
)

SIBLING = {MAX_TIMES: MAX_PLUS, MIN_TIMES: MIN_PLUS}
FAMILIES = ("dense", "zero_heavy", "acyclic", "reducible", "critical", "hot")
#: cycle enumeration in the oracle is exponential; keep it to these orders
ORACLE_MAX_N = 7


def reference_star(a: Matrix) -> Matrix:
    """I + A + ... + A^(n-1), one product per term."""
    acc = p = Matrix.identity(a.sf, a.rows)
    for _ in range(a.rows - 1):
        p = p @ a
        acc = acc + p
    return acc


def reference_spectral_radius(a: Matrix):
    """Sum over m = 1..n of tr(A^m)^(1/m)."""
    acc, p = a.sf.zero, a
    for m in range(1, a.rows + 1):
        acc = acc + p.trace() ** Fraction(1, m)
        p = p @ a
    return acc


def _payload(rng: random.Random):
    v = rng.randint(-5, 5)
    return Fraction(v, rng.choice((1, 1, 2, 3)))


def additive_matrix(sf, family: str, n: int, rng: random.Random) -> Matrix:
    zero_prob = {"zero_heavy": 0.75, "acyclic": 0.3}.get(family, 0.2)
    rows = [[None if rng.random() < zero_prob else _payload(rng)
             for _ in range(n)] for _ in range(n)]
    if family == "acyclic":
        # edges only forward in a random order of the nodes: no cycle
        rank = rng.sample(range(n), n)
        rows = [[v if rank[i] < rank[j] else None for j, v in enumerate(r)]
                for i, r in enumerate(rows)]
    elif family == "reducible" and n > 1:
        # no edge from the second block back into the first
        cut = rng.randint(1, n - 1)
        for i in range(cut, n):
            for j in range(cut):
                rows[i][j] = None
    a = Matrix.from_rows(sf, rows)
    lam = spectral_radius(a)
    if family == "critical" and not lam.is_zero:
        a = lam.inv() * a
    elif family == "hot" and not lam.is_zero:
        # rescale to a spectral radius strictly above one
        step = Fraction(rng.choice((1, 2, 5)), rng.choice((1, 3)))
        a = (lam.inv() * sf.scalar(step if sf.maximizing else -step)) * a
    return a


def exp_map(a: Matrix, target) -> Matrix:
    return Matrix.from_rows(target, [
        [None if v is None else 2.0 ** float(v) for v in r]
        for r in a.to_payloads()])


def cases():
    rng = random.Random(20141406)
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        base = SIBLING.get(sf, sf)
        for family in FAMILIES:
            for n in range(1, 9):
                for _ in range(3):
                    a = additive_matrix(base, family, n, rng)
                    yield family, (a if sf is base else exp_map(a, sf))


CASES = list(cases())


def _check_exact(got: Matrix, want: Matrix) -> None:
    assert got == want
    if got.sf.additive:
        assert got.to_payloads() == want.to_payloads()


def test_families_reach_every_regime():
    seen = {(f, a.sf.tag, kleene_star(a).closure_valid,
             spectral_radius(a).is_zero) for f, a in CASES}
    for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES):
        assert ("acyclic", sf.tag, True, True) in seen
        assert ("critical", sf.tag, True, False) in seen
        assert ("hot", sf.tag, False, False) in seen


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_star_matches_truncated_sum(sf):
    fallbacks = 0
    for _, a in CASES:
        if a.sf is not sf:
            continue
        closure = kleene_star(a)
        want = reference_star(a)
        _check_exact(a.star(), want)
        _check_exact(closure.matrix, want)
        assert closure.closure_valid == (tr_functional(a) <= sf.one)
        fallbacks += not closure.closure_valid
    assert fallbacks >= 20


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_spectral_radius_matches_trace_roots_and_cycle_means(sf):
    for family, a in CASES:
        if a.sf is not sf:
            continue
        lam = spectral_radius(a)
        assert lam == reference_spectral_radius(a)
        if sf.additive:
            assert lam.v == reference_spectral_radius(a).v
        if a.rows <= ORACLE_MAX_N:
            assert lam == cycle_mean_radius(a)
        if family == "acyclic":
            assert lam.is_zero
        # every cycle weight <= one, three ways
        assert (lam <= sf.one) == kleene_star(a).closure_valid

