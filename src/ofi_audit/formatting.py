"""Presentation helpers for exact rational values.

These are the only places where metric values become decimal text; the
rounding is done on the exact rational (half to even), never through an
intermediate float.
"""

from __future__ import annotations

from fractions import Fraction


def format_fraction(value: Fraction) -> str:
    """Render a Fraction as ``num/den``, or just ``num`` for integers."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def format_fixed(value: Fraction, places: int = 2) -> str:
    """Render a Fraction with a fixed number of decimal places.

    Rounding is exact half-to-even on the rational value, so e.g. 3/8
    formats to ``0.38`` at two places. It works on the magnitude in
    integers, ``divmod(|num|·10^places, den)``, which rounds the same way
    on both sides of zero; a value that rounds to zero has no sign.
    """
    if places < 0:
        raise ValueError(f"places must be >= 0, got {places}")
    if not isinstance(value, Fraction):
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    units, rest = divmod(abs(num) * 10**places, den)
    if 2 * rest > den or (2 * rest == den and units % 2):
        units += 1
    sign = "-" if num < 0 and units else ""
    if places == 0:
        return f"{sign}{units}"
    whole, frac = divmod(units, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
