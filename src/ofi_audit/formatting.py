"""Presentation helpers for exact rational values.

These are the only places where metric values become decimal text; the
rounding is done on the exact rational (half to even), never through an
intermediate float. Each helper has an integer core over a value's
numerator and denominator, which need not be in lowest terms.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd


def digit_limit_text(label: str) -> str:
    """The error text for a value whose text would need an int of more
    digits than Python converts to text."""
    return f"{label} has more than {sys.get_int_max_str_digits()} digits"


def ratio_text(num: int, den: int) -> str:
    """Render num/den, den > 0, as ``num/den`` in lowest terms, or just
    ``num`` for an integer."""
    common = gcd(num, den)
    if common == den:
        return str(num // common)
    return f"{num // common}/{den // common}"


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as ``num/den``, or just ``num`` for integers."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return ratio_text(value.numerator, value.denominator)


def rounded_units(num: int, den: int, places: int) -> int:
    """num/den, den > 0, in units of 10^-places, rounded half to even.

    The one rounding rule of every decimal this package writes: it rounds
    the magnitude, ``divmod(|num|·10^places, den)``, so it rounds the same
    way on both sides of zero, and a value that rounds to zero is 0.
    """
    units, rest = divmod(abs(num) * 10**places, den)
    if 2 * rest > den or (2 * rest == den and units % 2):
        units += 1
    return -units if num < 0 else units


def fixed_text(num: int, den: int, places: int = 2) -> str:
    """Render num/den, den > 0, with ``places`` decimal places.

    The integer core of :func:`format_fixed`: the value is rounded by
    :func:`rounded_units`, so a value that rounds to zero has no sign.
    """
    units = rounded_units(num, den, places)
    sign = "-" if units < 0 else ""
    if places == 0:
        return f"{sign}{abs(units)}"
    whole, frac = divmod(abs(units), 10**places)
    return "%s%d.%0*d" % (sign, whole, places, frac)


def format_fixed(value: Fraction, places: int = 2) -> str:
    """Render a Fraction with a fixed number of decimal places.

    Rounding is exact half-to-even on the rational value, so e.g. 3/8
    formats to ``0.38`` at two places; :func:`fixed_text` does it on the
    value's numerator and denominator.
    """
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return fixed_text(value.numerator, value.denominator, places)
