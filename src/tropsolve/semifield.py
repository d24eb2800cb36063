"""Scalars over the four real idempotent semifields.

A semifield value is either the semifield zero (kept as an explicit marker,
never as an infinite carrier number) or a carrier number: an exact rational
for the additive-group carriers (max-plus, min-plus), or a positive float for
the multiplicative-group carriers (max-times, min-times), whose roots leave
the rationals.  Exact rationals are kept in canonical form (see
:func:`canonical`): an ``int`` when the value is integral, else a
``fractions.Fraction``, so integral data compute on Python ints.

Values enter through :meth:`Semifield.payload`, the one checked coercion to
a payload, ``None`` for the zero.  The carrier rules live on
:class:`Semifield`, over those payloads; :class:`Scalar` and the matrices of
:mod:`tropsolve.linalg` compute through them.  Operator sugar on
:class:`Scalar`: ``+`` is the idempotent addition, ``*`` the group
multiplication, ``**`` the (rational) power, and the comparison operators
follow the order induced by the addition (``a <= b`` iff ``a + b == b``).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import (
    CarrierDomainError,
    TagMismatchError,
    ZeroInversionError,
)

#: Relative tolerance for comparing multiplicative-carrier scalars.
REL_TOL = 1e-9

#: The most digits a rational literal may spell, counting a decimal
#: exponent ``e`` as ``|e|`` digits: Python's default limit on int/str
#: conversion, so a literal's numerator and denominator print back.
MAX_LITERAL_DIGITS = 4300


def rational(value) -> Fraction:
    """``Fraction(value)`` for a number or a decimal or rational literal.

    A literal that spells more than :data:`MAX_LITERAL_DIGITS` digits
    raises :class:`CarrierDomainError` before any big integer is built.
    """
    if isinstance(value, str):
        mantissa, _, exponent = value.lower().partition("e")
        size = sum(c.isdecimal() for c in mantissa)
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        if exponent.isdecimal():  # else no exponent, or Fraction rejects it
            size += int(exponent) if len(exponent) < 6 else MAX_LITERAL_DIGITS + 1
        if size > MAX_LITERAL_DIGITS:
            raise CarrierDomainError(
                f"literal spells more than {MAX_LITERAL_DIGITS} digits "
                f"(counting its decimal exponent)")
    return Fraction(value)


def canonical(q):
    """An exact rational in canonical form: the ``int`` when ``q`` is
    integral, else ``q`` (a ``Fraction``)."""
    return q.numerator if q.denominator == 1 else q


def checked_float(value: float) -> float:
    """``value`` when it lies in (0, inf); a multiplicative result that
    overflowed or underflowed raises :class:`CarrierDomainError`."""
    if 0.0 < value < math.inf:
        return value
    raise CarrierDomainError(f"a result left the range of positive floats: {value!r}")


def payload_text(value) -> str:
    """Text of a carrier value (``7/2``, ``-3``, ``2.5``); a rational grown
    past Python's int/str limit, or a float outside (0, inf), raises
    :class:`CarrierDomainError`."""
    if value.__class__ is float:
        checked_float(value)
    try:
        return str(value)
    except ValueError as exc:
        raise CarrierDomainError(
            f"a result spells more than {MAX_LITERAL_DIGITS} digits "
            f"and cannot be printed") from exc


_ADDITIVE_TAGS = ("max-plus", "min-plus")
_MULT_TAGS = ("max-times", "min-times")


class Semifield:
    """One of the four real idempotent semifields, identified by tag.

    Instances are singletons (see :data:`MAX_PLUS` etc.); equality is
    identity.  The three bits of behavior that differ per tag: whether
    the idempotent addition takes the naturally larger or smaller carrier
    value, whether the group operation is carrier ``+`` or ``*``, and the
    carrier representation that follows from it (exact rationals vs floats).
    """

    __slots__ = ("tag", "maximizing", "additive", "_zero", "_one")

    def __init__(self, tag: str):
        if tag not in _ADDITIVE_TAGS and tag not in _MULT_TAGS:
            raise ValueError(f"unknown semifield tag {tag!r}")
        self.tag = tag
        self.maximizing = tag.startswith("max")
        self.additive = tag in _ADDITIVE_TAGS
        self._zero = zero = object.__new__(Scalar)
        zero.sf, zero.v = self, None
        self._one = self.wrap(0 if self.additive else 1.0)

    def __repr__(self) -> str:
        return f"Semifield({self.tag})"

    def __reduce__(self) -> str:
        # the name of this module's constant (MAX_PLUS, ...): pickle stores a
        # reference to it and copy returns self, so values keep the singleton
        return self.tag.upper().replace("-", "_")

    @property
    def zero(self) -> Scalar:
        return self._zero

    @property
    def one(self) -> Scalar:
        return self._one

    def scalar(self, value) -> Scalar:
        """The Scalar of a value, checked by :meth:`payload`."""
        return self.wrap(self.payload(value))

    def payload(self, value):
        """The checked payload of a value: ``None`` (the zero) as it is, a
        Scalar of this semifield unwrapped (one of another raises
        :class:`TagMismatchError`), an ``int``, ``Fraction``, ``float`` or
        literal ``str`` in canonical form; a value of any other type, a bool
        among them, raises :class:`CarrierDomainError`."""
        if value is None:
            return None
        if isinstance(value, Scalar):
            if value.sf is not self:
                raise TagMismatchError(f"{value!r} is not a {self.tag} scalar")
            return value.v
        cls = value.__class__
        if cls not in (int, Fraction, float, str):  # exact types: no bool
            raise CarrierDomainError(
                f"cannot use {value!r} as a {self.tag} carrier value")
        if self.additive:
            if cls is int:
                return value
            if cls is str:
                return canonical(rational(value))
            if cls is float:
                # decimal-faithful: 0.25 -> 1/4, not the binary expansion
                return canonical(Fraction(str(value)))
            return canonical(value)
        try:
            out = float(rational(value) if cls is str else value)
        except OverflowError:
            out = math.inf
        if not math.isfinite(out) or out <= 0.0:
            raise CarrierDomainError(
                f"{self.tag} carrier values must be finite and positive, got {value!r}")
        return out

    def wrap(self, u) -> Scalar:
        """The Scalar of a payload computed by the rules below: unchecked."""
        if u is None:
            return self._zero
        s = object.__new__(Scalar)
        s.sf, s.v = self, u
        return s

    def literal_payload(self, text: str):
        """The payload of a scalar literal: decimal or rational text, or the
        zero token ``null`` or ``.``."""
        stripped = text.strip()
        if stripped in ("null", "."):
            return None
        try:
            return self.payload(stripped)
        except (ValueError, ArithmeticError, CarrierDomainError) as exc:
            raise CarrierDomainError(f"{stripped[:40]!r}: {exc}") from exc

    # the carrier rules on payloads, None being the zero; the addition picks by
    # the order, as Scalar + does, so a tie (within REL_TOL on floats) keeps v
    def add_payload(self, u, v):
        return v if self.le_payload(u, v) else u

    def mul_payload(self, u, v):
        if u is None or v is None:
            return None
        return canonical(u + v) if self.additive else u * v

    def inv_payload(self, u):
        if u is None:
            raise ZeroInversionError("the semifield zero has no inverse")
        if self.additive:
            return -u
        try:  # 1 / inf gives 0.0 and 1 / a subnormal inf: both are refused
            return checked_float(1.0 / u)
        except ZeroDivisionError:
            raise CarrierDomainError("cannot invert 0.0 (an underflow)") from None

    def le_payload(self, u, v) -> bool:  # the zero is the least element
        if u is None:
            return True
        if v is None:
            return False
        if not self.additive and math.isclose(u, v, rel_tol=REL_TOL):
            return True
        return u <= v if self.maximizing else v <= u

    def eq_payload(self, u, v) -> bool:
        if u is None or v is None:
            return u is v
        return u == v if self.additive else math.isclose(u, v, rel_tol=REL_TOL)


class Scalar:
    """An element of one semifield: the zero marker or a carrier number.

    It has no constructor: :meth:`Semifield.scalar` builds one from a value
    and :meth:`Semifield.wrap` from a payload.
    """

    __slots__ = ("sf", "v")

    def __reduce__(self):
        # rebuilt through the singleton semifield, under every pickle protocol
        return self.sf.wrap, (self.v,)

    @property
    def is_zero(self) -> bool:
        return self.v is None

    def _check_tag(self, other: Scalar) -> None:
        if not isinstance(other, Scalar):
            raise TypeError(f"expected a Scalar, got {other!r}")
        if other.sf is not self.sf:
            raise TagMismatchError(
                f"mixed semifields: {self.sf.tag} and {other.sf.tag}")

    def __add__(self, other: Scalar) -> Scalar:
        self._check_tag(other)
        return other if self.sf.le_payload(self.v, other.v) else self

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented  # lets Matrix.__rmul__ handle scalar*matrix
        self._check_tag(other)
        return self.sf.wrap(self.sf.mul_payload(self.v, other.v))

    def inv(self) -> Scalar:
        return self.sf.wrap(self.sf.inv_payload(self.v))

    def __pow__(self, exponent) -> Scalar:
        if not isinstance(exponent, (int, Fraction)):
            raise TypeError(f"exponent must be an int or Fraction, got {exponent!r}")
        if self.v is None:
            if exponent > 0:
                return self.sf._zero
            raise ZeroInversionError(
                "the semifield zero admits only positive powers")
        if self.sf.additive:
            # one Fraction from the parts: int * Fraction dispatches slowly
            v = self.v
            payload = canonical(Fraction(v.numerator * exponent.numerator,
                                         v.denominator * exponent.denominator))
        else:
            payload = self.v ** float(exponent)
        return self.sf.wrap(payload)

    def __le__(self, other: Scalar) -> bool:
        self._check_tag(other)
        return self.sf.le_payload(self.v, other.v)

    def __lt__(self, other: Scalar) -> bool:
        return self <= other and not self == other

    def __ge__(self, other: Scalar) -> bool:
        return other <= self

    def __gt__(self, other: Scalar) -> bool:
        return other < self

    def __eq__(self, other) -> bool:
        return (isinstance(other, Scalar) and other.sf is self.sf
                and self.sf.eq_payload(self.v, other.v))

    __hash__ = None  # tolerance-based equality on (., x) carriers

    def literal(self, zero_token: str = "null") -> str:
        """Text form: `7/2`, `-3`, `2.5`, or the zero token."""
        if self.v is None:
            return zero_token
        return payload_text(self.v)

    def __repr__(self) -> str:
        return f"Scalar({self.literal()}, {self.sf.tag})"


MAX_PLUS = Semifield("max-plus")
MIN_PLUS = Semifield("min-plus")
MAX_TIMES = Semifield("max-times")
MIN_TIMES = Semifield("min-times")

SEMIFIELDS = {
    sf.tag: sf for sf in (MAX_PLUS, MIN_PLUS, MAX_TIMES, MIN_TIMES)
}
