"""Matrix algebra: frozen examples plus the structural laws."""

import operator
import random
from fractions import Fraction as F
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    CarrierDomainError,
    DegenerateInputError,
    Matrix,
    ShapeError,
    TagMismatchError,
    cycle_mean_radius,
    format_matrix,
    is_regular_vector,
    kleene_star,
    parse_matrix,
    spectral_radius,
    tr_functional,
    vector,
)
from tropsolve.linalg import below, dot


def mp(rows):
    return Matrix.from_rows(MAX_PLUS, rows)


# ----------------------------------------------------------------------
# the one way in: every entry is checked by Semifield.payload

@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_entries_enter_as_scalars_or_carrier_values(sf):
    values = [[1, None], ["7/2", 2.5]]
    from_values = Matrix(sf, values)
    from_scalars = Matrix(sf, [[sf.scalar(v) for v in r] for r in values])
    assert from_values.p == from_scalars.p == Matrix.from_rows(sf, values).p
    kinds = [[type(v) for v in r] for r in from_scalars.p]
    assert [[type(v) for v in r] for r in from_values.p] == kinds
    assert kinds == ([[int, type(None)], [F, F]] if sf.additive
                     else [[float, type(None)], [float, float]])
    other = MAX_TIMES if sf.additive else MAX_PLUS
    with pytest.raises(TagMismatchError):
        Matrix(sf, [[1, other.scalar(2)]])
    with pytest.raises(ShapeError):
        Matrix(sf, [[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix(sf, [])
    with pytest.raises(CarrierDomainError, match="4300 digits"):
        Matrix(sf, [[1, "1e99999"]])


# ----------------------------------------------------------------------
# frozen examples (hand-expanded)

def test_mat_add():
    a = mp([[1, None], [2, 3]])
    b = mp([[0, 0], [0, 0]])
    assert (a + b).to_payloads() == [[1, 0], [2, 3]]
    assert a + a == a
    assert a + Matrix.zeros(MAX_PLUS, 2, 2) == a


def test_mat_mul():
    a = mp([[0, 1], [2, 0]])
    assert (a @ vector(MAX_PLUS, [2, 2])).to_payloads() == [[3], [4]]
    eye = Matrix.identity(MAX_PLUS, 2)
    assert eye @ a == a
    z = Matrix.zeros(MAX_PLUS, 2, 2)
    assert (z @ a).is_zero


@pytest.mark.parametrize("sf", [MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES],
                         ids=lambda sf: sf.tag)
def test_dot_and_below_are_their_scalar_definitions(sf):
    rng = random.Random(7)
    entries = [None, 1, 2, F(1, 2), F(3, 2), 4]
    for _ in range(300):
        n = rng.randint(1, 4)
        u, v = ([sf.payload(rng.choice(entries)) for _ in range(n)] for _ in "uv")
        su, sv = map(sf.wrap, u), map(sf.wrap, v)
        want = reduce(operator.add, map(operator.mul, su, sv), sf.zero)
        got = dot(sf, u, v)
        assert sf.wrap(got) == want
        assert type(got) is type(want.v)  # an int when integral
        assert below(sf, u, v) == all(sf.wrap(a) <= sf.wrap(b) for a, b in zip(u, v))


def test_scal_mul():
    a = mp([[0, 2]])
    assert (MAX_PLUS.scalar(1) * a).to_payloads() == [[1, 3]]
    assert MAX_PLUS.one * a == a
    assert (MAX_PLUS.zero * a).is_zero


def test_conj_transpose():
    a = mp([[1, None], [2, 3]])
    assert a.conj().to_payloads() == [[-1, -2], [None, -3]]
    x = vector(MAX_PLUS, [2, 2])
    assert x.conj().to_payloads() == [[-2, -2]]
    assert (x.conj() @ x).item() == MAX_PLUS.one
    padded = vector(MAX_PLUS, [2, None])  # nonzero suffices for x- x == one
    assert (padded.conj() @ padded).item() == MAX_PLUS.one
    full = mp([[1, 2], [3, 4]])
    assert full.conj().conj() == full
    with pytest.raises(DegenerateInputError):
        Matrix.zeros(MAX_PLUS, 2, 2).conj()


def test_trace():
    assert mp([[1, 2], [3, 4]]).trace().v == 4
    assert Matrix.identity(MAX_PLUS, 3).trace() == MAX_PLUS.one
    assert Matrix.zeros(MAX_PLUS, 2, 2).trace().is_zero
    with pytest.raises(ShapeError):
        mp([[1, 2]]).trace()


def test_mat_power():
    a = mp([[1, 2], [3, 4]])
    assert a.power(0) == Matrix.identity(MAX_PLUS, 2)
    assert a.power(2).to_payloads() == [[5, 6], [7, 8]]
    assert a.power(1) == a


def test_tr_functional():
    assert tr_functional(mp([[-1, -3], [-2, -1]])).v == -1
    assert tr_functional(Matrix.identity(MAX_PLUS, 2)) == MAX_PLUS.one
    assert tr_functional(mp([[1, None], [None, None]])).v == 2


def test_kleene_star():
    a = mp([[-1, -3], [-2, -1]])
    assert a.star().to_payloads() == [[0, -3], [-2, 0]]
    closure = kleene_star(a)
    assert closure.closure_valid and closure.matrix == a.star()
    z = Matrix.zeros(MAX_PLUS, 2, 2)
    assert z.star() == Matrix.identity(MAX_PLUS, 2)
    eye = Matrix.identity(MAX_PLUS, 3)
    assert eye.star() == eye
    hot = mp([[1]])
    assert not kleene_star(hot).closure_valid


def test_spectral_radius():
    assert spectral_radius(mp([[1, 2], [3, 4]])).v == 4
    assert spectral_radius(mp([[None, 2], [3, None]])).v == F(5, 2)
    assert spectral_radius(Matrix.identity(MAX_PLUS, 2)) == MAX_PLUS.one
    acyclic = mp([[None, 1], [None, None]])
    assert spectral_radius(acyclic).is_zero


@pytest.mark.parametrize("sf", [MAX_TIMES, MIN_TIMES], ids=lambda s: s.tag)
def test_spectral_radius_refuses_walks_of_length_n_that_underflow(sf):
    # the walks of length 1 weigh 1e-200 but those of length 2 underflow to
    # 0.0, which would make every cycle mean read 0.0 where lambda is 1e-200
    with pytest.raises(CarrierDomainError, match="underflow"):
        spectral_radius(Matrix.from_rows(sf, [[1e-200] * 2] * 2))


def test_cycle_mean_radius_oracle():
    assert cycle_mean_radius(mp([[1, 2], [3, 4]])).v == 4
    assert cycle_mean_radius(Matrix.identity(MAX_PLUS, 4)) == MAX_PLUS.one
    assert cycle_mean_radius(mp([[None, 1], [None, None]])).is_zero
    with pytest.raises(DegenerateInputError):
        cycle_mean_radius(Matrix.identity(MAX_PLUS, 9))


def test_norm():
    assert vector(MAX_PLUS, [1, 5, 3]).norm().v == 5
    assert Matrix.zeros(MAX_PLUS, 2, 3).norm().is_zero
    assert Matrix.identity(MAX_PLUS, 3).norm() == MAX_PLUS.one


def test_regularity_predicates():
    assert mp([[1, None], [None, 2]]).is_regular()
    assert not mp([[None, None], [1, 2]]).is_row_regular()
    assert not mp([[None, 1], [None, 2]]).is_col_regular()
    assert is_regular_vector(mp([[1, 2], [3, 4]]))
    assert not is_regular_vector(mp([[1, None], [2, 3]]))
    assert is_regular_vector(vector(MAX_PLUS, [1, 2]))
    assert not is_regular_vector(vector(MAX_PLUS, [1, None]))


def test_text_round_trip():
    a = mp([[1, None], [F(7, 2), -3]])
    text = format_matrix(a)
    assert "." in text
    assert parse_matrix(MAX_PLUS, text) == a
    assert parse_matrix(MAX_PLUS, "1 null\n7/2 -3") == a
    with pytest.raises(ShapeError):
        parse_matrix(MAX_PLUS, "1 2\n3")


# ----------------------------------------------------------------------
# structural laws on random data

def _rand_matrix(rng, rows, cols, zero_prob=0.25, lo=-9, hi=9):
    return Matrix.from_rows(MAX_PLUS, [
        [None if rng.random() < zero_prob else rng.randint(lo, hi)
         for _ in range(cols)] for _ in range(rows)])


def _rand_regular_vec(rng, n, lo=-9, hi=9):
    return vector(MAX_PLUS, [rng.randint(lo, hi) for _ in range(n)])


def test_conjugation_antitone_and_identities():
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randint(1, 5)
        x = _rand_regular_vec(rng, n)
        bump = vector(MAX_PLUS, [rng.randint(0, 5) for _ in range(n)])
        y = x + bump
        assert x <= y and y.conj() <= x.conj()
        assert (x.conj() @ x).item() == MAX_PLUS.one
        assert Matrix.identity(MAX_PLUS, n) <= x @ x.conj()


def test_row_regular_times_regular_is_regular():
    rng = random.Random(12)
    for _ in range(200):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = _rand_matrix(rng, m, n)
        if not a.is_row_regular():
            continue
        x = _rand_regular_vec(rng, n)
        assert is_regular_vector(a @ x)


def test_distributivity_and_isotone_mul():
    rng = random.Random(13)
    for _ in range(100):
        m, k, n = (rng.randint(1, 4) for _ in range(3))
        a, b = _rand_matrix(rng, m, k), _rand_matrix(rng, m, k)
        c = _rand_matrix(rng, k, n)
        assert (a + b) @ c == (a @ c) + (b @ c)
        if a <= b:
            assert a @ c <= b @ c


def test_star_closure_properties():
    rng = random.Random(14)
    seen = 0
    while seen < 100:
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, n, zero_prob=0.4, lo=-6, hi=1)
        if not tr_functional(a) <= MAX_PLUS.one:
            continue
        seen += 1
        s = a.star()
        assert s @ s == s
        assert a @ s <= s


def test_spectral_equals_cycle_means_random():
    rng = random.Random(15)
    for _ in range(200):
        n = rng.randint(1, 5)
        a = _rand_matrix(rng, n, n, zero_prob=0.2, lo=-5, hi=5)
        assert spectral_radius(a) == cycle_mean_radius(a)


def test_spectral_scaling():
    rng = random.Random(16)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = _rand_matrix(rng, n, n)
        lam = spectral_radius(a)
        if lam.is_zero:
            continue
        alpha = MAX_PLUS.scalar(rng.randint(-5, 5))
        assert spectral_radius(alpha * a) == alpha * lam


def test_min_plus_star_is_shortest_paths():
    # closure over the (min, +) carrier: entries are shortest-path costs
    w = Matrix.from_rows(MIN_PLUS, [[None, 1, 5], [None, None, 1], [1, None, None]])
    s = w.star()
    assert s[0, 2].v == 2    # 0 -> 1 -> 2
    assert s[2, 1].v == 2    # 2 -> 0 -> 1
    assert s[0, 0] == MIN_PLUS.one


@settings(max_examples=60)
@given(st.integers(1, 4), st.integers(0, 2 ** 30))
def test_star_dominates_each_power(n, seed):
    rng = random.Random(seed)
    a = _rand_matrix(rng, n, n, zero_prob=0.3, lo=-8, hi=0)
    s = a.star()
    p = Matrix.identity(MAX_PLUS, n)
    for _ in range(n):
        assert p <= s or not tr_functional(a) <= MAX_PLUS.one
        p = p @ a
