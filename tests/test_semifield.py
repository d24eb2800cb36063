"""Scalar arithmetic on the four carriers."""

import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from tropsolve import (
    MAX_PLUS,
    MAX_TIMES,
    MIN_PLUS,
    MIN_TIMES,
    CarrierDomainError,
    Scalar,
    TagMismatchError,
    ZeroInversionError,
)
from tropsolve.linalg import encode_payload
from tropsolve.semifield import MAX_LITERAL_DIGITS, payload_text

ALL = (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)


def test_oplus_definitional():
    assert (MAX_PLUS.scalar(2) + MAX_PLUS.scalar(3)).v == 3
    assert (MAX_PLUS.zero + MAX_PLUS.scalar(7)).v == 7
    assert (MIN_TIMES.scalar(2) + MIN_TIMES.scalar(3)).v == 2


def test_otimes_definitional():
    assert (MAX_PLUS.scalar(2) * MAX_PLUS.scalar(3)).v == 5
    assert (MAX_PLUS.zero * MAX_PLUS.scalar(3)).is_zero
    assert (MAX_TIMES.scalar(2) * MAX_TIMES.scalar(3)).v == 6


def test_inverse_definitional():
    assert MAX_PLUS.scalar(5).inv().v == -5
    assert MAX_TIMES.scalar(4).inv().v == pytest.approx(0.25)
    for sf in ALL:
        assert sf.one.inv() == sf.one
    with pytest.raises(ZeroInversionError):
        MAX_PLUS.zero.inv()


def test_power_definitional():
    assert (MAX_PLUS.scalar(4) ** F(1, 2)).v == 2
    assert (MAX_PLUS.scalar(3) ** -1).v == -3
    assert (MAX_TIMES.scalar(9) ** F(1, 2)).v == pytest.approx(3.0)
    for sf in ALL:
        assert (sf.zero ** 3).is_zero
        assert sf.scalar(2) ** 0 == sf.one
        with pytest.raises(ZeroInversionError):
            sf.zero ** 0
        with pytest.raises(ZeroInversionError):
            sf.zero ** -1


def test_leq_definitional():
    assert MAX_PLUS.scalar(1) <= MAX_PLUS.scalar(2)
    assert not MIN_PLUS.scalar(1) <= MIN_PLUS.scalar(2)
    for sf in ALL:
        for v in (1, 2, 100):
            assert sf.zero <= sf.scalar(v)


def test_zero_one_distinct_and_neutral():
    for sf in ALL:
        assert sf.zero != sf.one
        x = sf.scalar(3)
        assert x + sf.zero == x
        assert x * sf.one == x
        assert (x * sf.zero).is_zero


def test_tag_mismatch_raises():
    with pytest.raises(TagMismatchError):
        MAX_PLUS.scalar(1) + MIN_PLUS.scalar(1)
    with pytest.raises(TagMismatchError):
        MAX_PLUS.scalar(1) * MAX_TIMES.scalar(1)
    with pytest.raises(TagMismatchError):
        MAX_PLUS.scalar(1) <= MIN_PLUS.scalar(1)


def test_multiplicative_carrier_domain():
    with pytest.raises(CarrierDomainError):
        MAX_TIMES.scalar(-1)
    with pytest.raises(CarrierDomainError):
        MIN_TIMES.scalar(0)


@pytest.mark.parametrize("sf", (MAX_TIMES, MIN_TIMES), ids=lambda s: s.tag)
def test_values_past_the_float_range_are_carrier_errors(sf):
    for raw in (10 ** 400, F(10 ** 400), "1e400", F(1, 10 ** 400), "1e-400"):
        with pytest.raises(CarrierDomainError, match="finite and positive"):
            sf.payload(raw)


@pytest.mark.parametrize("sf", ALL, ids=lambda s: s.tag)
def test_non_numbers_are_not_carrier_values(sf):
    for raw in (True, False, [1], {"v": 1}, b"1"):
        with pytest.raises(CarrierDomainError, match="carrier value"):
            sf.scalar(raw)


@pytest.mark.parametrize("v", [0.0, float("inf"), float("nan")], ids=repr)
def test_floats_out_of_range_are_refused(v):
    for out in (encode_payload, payload_text):
        with pytest.raises(CarrierDomainError, match="range of positive floats"):
            out(v)
    if v == 0.0:
        with pytest.raises(CarrierDomainError, match="underflow"):
            MIN_TIMES.inv_payload(v)


@pytest.mark.parametrize("sf", (MAX_TIMES, MIN_TIMES), ids=lambda s: s.tag)
def test_inverse_of_an_overflowed_value_is_refused(sf):
    # 1e300 * 1e300 overflows to inf, whose inverse would read 0.0
    big = sf.scalar(1e300) * sf.scalar(1e300)
    with pytest.raises(CarrierDomainError, match="range of positive floats"):
        big.inv()


def test_literals_round_trip():
    s = MAX_PLUS.scalar("7/2")
    assert s.v == F(7, 2) and s.literal() == "7/2"
    assert MAX_PLUS.scalar("-3").literal() == "-3"
    assert MAX_PLUS.scalar(2.5).v == F(5, 2)
    assert MAX_PLUS.wrap(MAX_PLUS.literal_payload("null")).is_zero
    assert MAX_PLUS.wrap(MAX_PLUS.literal_payload(".")).is_zero
    assert MAX_PLUS.zero.literal() == "null"
    assert MAX_PLUS.zero.literal(".") == "."
    t = MAX_TIMES.scalar(2.5)
    assert MAX_TIMES.wrap(MAX_TIMES.literal_payload(t.literal())) == t


def test_literal_size_is_bounded():
    # digits plus the decimal exponent: at most MAX_LITERAL_DIGITS
    assert MAX_LITERAL_DIGITS == 4300
    assert MAX_PLUS.scalar("1e4299").v == 10 ** 4299
    assert MAX_PLUS.scalar("-1.5e-4298").v == F(-15, 10 ** 4299)
    assert MAX_PLUS.scalar("1" * 4300).v == int("1" * 4300)
    assert MAX_PLUS.scalar("1e0_0000_0001").v == 10
    assert MAX_PLUS.scalar(" 3/4 ").v == F(3, 4)
    for literal in ("1e4300", "1.5e-4299", "1" * 4301, "1e1000000000",
                    "1E+1_000_000_000", "2/" + "3" * 4300):
        for sf in ALL:
            with pytest.raises(CarrierDomainError, match="4300 digits"):
                sf.scalar(literal)
    with pytest.raises(CarrierDomainError, match="'abc'"):
        MAX_PLUS.wrap(MAX_PLUS.literal_payload("abc"))
    with pytest.raises(CarrierDomainError, match="4300 digits"):
        MIN_PLUS.wrap(MIN_PLUS.literal_payload("1e99999"))


# ----------------------------------------------------------------------
# additive payloads in canonical form: an int exactly when integral

def _canonical(v) -> bool:
    return type(v) is (int if v.denominator == 1 else F)


@pytest.mark.parametrize("sf", (MAX_PLUS, MIN_PLUS), ids=lambda s: s.tag)
def test_integral_input_parses_to_int(sf):
    for raw, value in (("4/2", 2), (2.0, 2), (F(-6, 3), -2),
                       (" -0.0 ", 0), ("1e2", 100), (7, 7)):
        s = sf.scalar(raw)
        assert type(s.v) is int and s.v == value, raw
        # the bytes of the JSON and text forms are those of the Fraction
        assert json.dumps(encode_payload(s.v)) == json.dumps(encode_payload(F(value)))
        assert s.literal() == str(F(value)) == str(value)
    for raw, value in (("7/2", F(7, 2)), (2.5, F(5, 2)), (F(1, 7), F(1, 7))):
        s = sf.scalar(raw)
        assert type(s.v) is F and s.v == value
        assert json.dumps(encode_payload(s.v)) == json.dumps(str(value))
    assert type(sf.one.v) is int and sf.one.v == 0
    assert type(sf.wrap(sf.literal_payload("10/5")).v) is int


@pytest.mark.parametrize("sf", (MAX_PLUS, MIN_PLUS), ids=lambda s: s.tag)
def test_additive_results_are_canonical(sf):
    half = sf.scalar(F(1, 2))
    assert type((half * half).v) is int
    assert type((sf.scalar(3) ** F(1, 3)).v) is int
    assert type((sf.scalar(1) ** F(1, 2)).v) is F
    exps = st.fractions(min_value=-4, max_value=4, max_denominator=6)

    @given(_scalars(sf).filter(lambda s: not s.is_zero),
           _scalars(sf).filter(lambda s: not s.is_zero), exps)
    def check(a, b, p):
        for s in (a, b, a * b, a + b, a.inv(), a ** p, a ** 2):
            assert _canonical(s.v)

    check()


# ----------------------------------------------------------------------
# algebraic laws, exercised per carrier

_payloads = st.one_of(st.none(), st.integers(-30, 30),
                      st.fractions(min_value=-30, max_value=30,
                                   max_denominator=8))
_mult_payloads = st.one_of(st.none(), st.floats(min_value=0.01, max_value=100.0,
                                                allow_nan=False))


def _scalars(sf):
    payload = _payloads if sf.additive else _mult_payloads
    return st.builds(sf.scalar, payload)


@pytest.mark.parametrize("sf", ALL, ids=lambda s: s.tag)
def test_semiring_laws(sf):
    @given(_scalars(sf), _scalars(sf), _scalars(sf))
    def check(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a
        assert a + a == a
        assert a * (b + c) == a * b + a * c

    check()


@pytest.mark.parametrize("sf", ALL, ids=lambda s: s.tag)
def test_isotonicity(sf):
    @given(_scalars(sf), _scalars(sf), _scalars(sf))
    def check(a, b, c):
        lo, hi = (a, b) if a <= b else (b, a)
        assert lo + c <= hi + c
        assert lo * c <= hi * c

    check()


@pytest.mark.parametrize("sf", ALL, ids=lambda s: s.tag)
def test_total_order_trichotomy(sf):
    @given(_scalars(sf), _scalars(sf))
    def check(a, b):
        assert sum((a < b, a == b, b < a)) == 1

    check()


@pytest.mark.parametrize("sf", (MAX_PLUS, MIN_PLUS), ids=lambda s: s.tag)
def test_power_composition_exact(sf):
    exps = st.fractions(min_value=-4, max_value=4, max_denominator=6)

    @given(_scalars(sf).filter(lambda s: not s.is_zero), exps, exps)
    def check(a, p, q):
        assert (a ** p) ** q == a ** (p * q)

    check()


def test_power_composition_multiplicative_tolerance():
    a = MAX_TIMES.scalar(7.3)
    assert (a ** F(2, 3)) ** F(3, 2) == a


@pytest.mark.parametrize("sf", ALL, ids=lambda s: s.tag)
def test_sum_bound_splits(sf):
    # x + y <= z is the same as (x <= z and y <= z)
    @given(_scalars(sf), _scalars(sf), _scalars(sf))
    def check(x, y, z):
        assert (x + y <= z) == (x <= z and y <= z)

    check()


@pytest.mark.parametrize("sf", ALL, ids=lambda s: s.tag)
def test_inverse_cancels(sf):
    @given(_scalars(sf).filter(lambda s: not s.is_zero))
    def check(a):
        assert a.inv() * a == sf.one

    check()


def test_scalar_has_no_constructor():
    with pytest.raises(TypeError, match="takes no arguments"):
        Scalar(MAX_PLUS, 3)
