"""Exact scalars for parameter values and weights.

Every value this package reads or reports is a ``fractions.Fraction``; the
sweep compares weights as integers scaled by a common denominator (see
:meth:`.parametric.MatroidInstance.order_at`), which is exact as well.  Floats
are rejected at every parsing boundary: breakpoint positions and tie decisions
are rationally defined, and a single rounded comparison could reorder two
nearly coincident crossing points.  Interval endpoints may additionally be
+-infinity, modelled by :class:`ExtendedRational`, which is ordered as the
pair ``(sign, value)``.

All types here are frozen dataclasses, so equality, hashing and order come
from their fields; they can be shared freely across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int, str]

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def rational(value: RationalLike) -> Fraction:
    """Coerce an int, a ``"p/q"`` string, or a Fraction to an exact Fraction.

    Only integer and ``p/q`` spellings with a nonzero ``q`` are accepted;
    decimal strings and floats are refused so no rounding can sneak in.
    The exact types are tested first: every :class:`.LinearFn` coerces its
    two coefficients here, and ``bool`` is not ``int`` by ``type``.  Once the
    pattern has accepted a string, its value is built from the ``int`` of
    each part rather than parsed again by ``Fraction``.
    """
    if type(value) is Fraction:
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not rationals")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        text = value.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not an exact rational literal: {value!r}")
        numerator, _, denominator = text.partition("/")
        if not denominator:
            return Fraction(int(numerator))
        q = int(denominator)
        if q == 0:
            raise ValueError(f"zero denominator: {value!r}")
        return Fraction(int(numerator), q)
    raise TypeError(f"not an exact rational: {value!r}")


@dataclass(frozen=True, order=True, slots=True)
class ExtendedRational:
    """A rational extended with two infinities, under a total order.

    The order is that of ``(sign, value)``: the sign decides whenever an end
    is infinite, so ``NEG_INF < every finite value < POS_INF`` and ``None``
    is never compared.  Finite ones wrap a Fraction.
    """

    _sign: int
    _value: Fraction | None

    def __post_init__(self):
        if self._sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if (self._sign == 0) != (self._value is not None):
            raise ValueError("finite iff a value is present")

    @classmethod
    def finite(cls, value: RationalLike) -> "ExtendedRational":
        return cls(0, rational(value))

    @property
    def is_finite(self) -> bool:
        return self._sign == 0

    @property
    def value(self) -> Fraction:
        if self._value is None:
            raise ValueError("infinite endpoint has no finite value")
        return self._value

    def __repr__(self) -> str:
        return f"ExtendedRational({self})"

    def __str__(self) -> str:
        if self._sign < 0:
            return "-inf"
        if self._sign > 0:
            return "inf"
        return str(self._value)


NEG_INF = ExtendedRational(-1, None)
POS_INF = ExtendedRational(1, None)

ExtendedLike = Union[ExtendedRational, RationalLike]


def extended(value: ExtendedLike) -> ExtendedRational:
    """Coerce to :class:`ExtendedRational`; strings may be ``inf``/``-inf``."""
    if isinstance(value, ExtendedRational):
        return value
    if isinstance(value, str):
        text = value.strip()
        if text == "inf":
            return POS_INF
        if text == "-inf":
            return NEG_INF
    return ExtendedRational.finite(value)


@dataclass(frozen=True, slots=True)
class ParamInterval:
    """A closed parameter interval, with optionally infinite ends.

    Finite ends are always treated as closed; there is no open/half-open
    variant (half-open inputs are normalized to this form).
    """

    lo: ExtendedRational
    hi: ExtendedRational

    def __post_init__(self):
        if not (self.lo <= self.hi):
            raise ValueError(f"empty interval: lo={self.lo} > hi={self.hi}")

    @classmethod
    def closed(cls, lo: ExtendedLike, hi: ExtendedLike) -> "ParamInterval":
        return cls(extended(lo), extended(hi))

    @property
    def is_proper(self) -> bool:
        return self.lo < self.hi

    @property
    def is_bounded(self) -> bool:
        return self.lo.is_finite and self.hi.is_finite

    # Both tests compare ``lam`` with the finite ends directly: they run once
    # per crossing and per cut, where wrapping ``lam`` would allocate.
    def contains(self, lam: Fraction) -> bool:
        lo, hi = self.lo, self.hi
        return (lo._sign < 0 or lo._sign == 0 and lo._value <= lam) and (
            hi._sign > 0 or hi._sign == 0 and lam <= hi._value
        )

    def strictly_inside(self, lam: Fraction) -> bool:
        lo, hi = self.lo, self.hi
        return (lo._sign < 0 or lo._sign == 0 and lo._value < lam) and (
            hi._sign > 0 or hi._sign == 0 and lam < hi._value
        )

    def representative(self) -> Fraction:
        """A deterministic interior point of the interval."""
        return interior_point(self.lo, self.hi)

    def __str__(self) -> str:
        left = "(" if not self.lo.is_finite else "["
        right = ")" if not self.hi.is_finite else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


def interior_point(lo: ExtendedRational, hi: ExtendedRational) -> Fraction:
    """Canonical interior point of ``(lo, hi)``.

    Midpoint when both ends are finite, finite end -+1 when one side is open
    to infinity, and 0 for the whole line.  Used everywhere a solver needs a
    representative parameter value inside a window.
    """
    if not (lo < hi):
        raise ValueError(f"degenerate window: ({lo}, {hi})")
    return Fraction(*interior_ratio(lo, hi))


def interior_ratio(lo: ExtendedRational, hi: ExtendedRational) -> tuple[int, int]:
    """:func:`interior_point` of ``lo < hi`` as integers ``(p, q)``, ``q > 0``,
    not reduced: the midpoint of ``lp/lq`` and ``hp/hq`` is ``(lp*hq +
    hp*lq, 2*lq*hq)``.  Integer keys such as
    :meth:`.MatroidInstance.order_at_ratio` need the point only up to a
    positive factor, so they take it with no ``Fraction`` arithmetic.
    """
    if lo.is_finite:
        lp, lq = lo.value.as_integer_ratio()
        if hi.is_finite:
            hp, hq = hi.value.as_integer_ratio()
            return lp * hq + hp * lq, 2 * lq * hq
        return lp + lq, lq
    if hi.is_finite:
        hp, hq = hi.value.as_integer_ratio()
        return hp - hq, hq
    return 0, 1
