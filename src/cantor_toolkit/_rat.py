"""Arbitrary-precision rational numbers.

``Q`` is ``fractions.Fraction``: exact, always in lowest terms and
hashable.  Root solving tests signs in plain integer arithmetic and builds
``Q`` values only for the brackets it returns.

`to_rational`, `to_point`, `to_alphabet` and `to_int` are where outside
numbers enter the package: public entry points pass their rational
arguments, points, alphabet sizes and counts through them once, and the
code below them trusts what they return.
"""

from __future__ import annotations

import operator
from fractions import Fraction as Q

from .errors import DomainError

# Fraction is the only backend; the flag stays for records that name it.
HAVE_GMPY2 = False


def to_rational(value) -> "Q":
    """Coerce ints, 'p/q' strings and Fractions to Q.

    Floats are rejected: they cannot name the exact rationals this package
    certifies against.  A value whose type is exactly `Q` is returned as it
    is (a `Q` is immutable and already in lowest terms), so repeating the
    call below an entry point costs one type test.
    """
    if type(value) is Q:
        return value
    if isinstance(value, float):
        raise TypeError(
            "refusing float %r: pass an exact rational ('p/q' string, int or Fraction)" % (value,)
        )
    if isinstance(value, (int, Q)):
        return Q(value)
    if isinstance(value, str):
        text = value.strip()
        if "/" in text:
            num, _, den = text.partition("/")
            return Q(int(num), int(den))
        return Q(int(text))
    raise TypeError("cannot interpret %r as an exact rational" % (value,))


def to_point(x, name: str) -> "Q":
    """`x` as a Q in (0, 1) (see `to_rational`), or DomainError naming it
    `name`."""
    x = to_rational(x)
    if not 0 < x.numerator < x.denominator:
        raise DomainError("%s must lie in (0, 1)" % name)
    return x


def to_int(value, name: str) -> int:
    """`value` as an int (``operator.index``: floats and strings are
    refused, not truncated), or DomainError naming it `name`."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError("%s %r is not an integer" % (name, value)) from None


def to_alphabet(m) -> int:
    """`m` as an int >= 2 (see `to_int`), or DomainError."""
    m = to_int(m, "alphabet size m")
    if m < 2:
        raise DomainError("alphabet size m must be >= 2, got %r" % (m,))
    return m


def rat_str(value) -> str:
    """Render as 'p/q' (denominator kept even when it is 1, for round-tripping)."""
    return "%d/%d" % (value.numerator, value.denominator)


def dec_to_rational(text: str) -> "Q":
    """Parse a plain decimal string like '0.366025' exactly."""
    text = text.strip()
    sign = -1 if text.startswith("-") else 1
    if text.startswith(("+", "-")):
        text = text[1:]
    whole, _, frac = text.partition(".")
    digits = whole + frac
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("cannot parse %r as a plain decimal" % (text,))
    scale = 10 ** len(frac)
    return sign * Q(int(whole or "0") * scale + int(frac or "0"), scale)


def dec_str(value, digits: int) -> str:
    """Fixed-point decimal rendering with `digits` places.

    Deterministic: floor(value * 10^digits + 1/2) in integer arithmetic,
    so halves round toward +infinity.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    scale = 10**digits
    doubled = 2 * value.numerator * scale
    den = value.denominator
    # floor((value * scale) + 1/2) without leaving integer arithmetic
    scaled = (doubled + den) // (2 * den)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    if digits == 0:
        return sign + str(scaled)
    whole, frac = divmod(scaled, scale)
    return "%s%d.%0*d" % (sign, whole, digits, frac)
