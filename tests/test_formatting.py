from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ofi_audit.formatting import format_fixed, format_fraction


def test_format_fraction():
    assert format_fraction(Fraction(3, 8)) == "3/8"
    assert format_fraction(Fraction(-1, 18)) == "-1/18"
    assert format_fraction(Fraction(0)) == "0"
    assert format_fraction(Fraction(2, 1)) == "2"
    assert format_fraction(Fraction(8, 18)) == "4/9"  # lowest terms


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(-1, 18), "-0.06"),
        (Fraction(3, 8), "0.38"),  # exact half rounds to even
        (Fraction(-3, 8), "-0.38"),
        (Fraction(1, 8), "0.12"),  # exact half rounds to even, downward here
        (Fraction(4, 18), "0.22"),
        (Fraction(30, 133), "0.23"),
        (Fraction(19, 7), "2.71"),
        (Fraction(0), "0.00"),
        (Fraction(2), "2.00"),
        (Fraction(-1, 6), "-0.17"),
        (Fraction(-1, 8), "-0.12"),  # a negative half tie rounds to even too
        (Fraction(-1, 200), "0.00"),  # rounds to zero: no sign
        (Fraction(-3, 200), "-0.02"),
        (Fraction(1, 200), "0.00"),
        (Fraction(999, 1000), "1.00"),  # carries into the whole part
    ],
)
def test_format_fixed_two_places(value, text):
    assert format_fixed(value) == text


def test_format_fixed_other_places():
    assert format_fixed(Fraction(1, 3), 4) == "0.3333"
    assert format_fixed(Fraction(5, 2), 0) == "2"  # half to even
    assert format_fixed(Fraction(7, 2), 0) == "4"
    assert format_fixed(Fraction(-5, 2), 0) == "-2"
    with pytest.raises(ValueError):
        format_fixed(Fraction(1), -1)


@given(
    st.fractions(min_value=-1000, max_value=1000, max_denominator=10**6),
    st.integers(min_value=0, max_value=6),
)
def test_format_fixed_matches_fraction_round(value, places):
    units = round(value, places) * 10**places  # Fraction.__round__: half to even
    assert units.denominator == 1
    whole, frac = divmod(abs(units.numerator), 10**places)
    sign = "-" if units < 0 else ""
    text = f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"
    assert format_fixed(value, places) == text
