"""The counting kernels against their plain-loop references: the
closed-form distribution and the enumeration records, which two running
sums of packed rows of counts give."""

import marshal
from array import array
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofi_audit.combinatorics import marginal_benefit_distribution
from ofi_audit.exhaustive import Enumeration, enumerations, stream
from reference import enumeration_loops, pair_score_counts_loops

# one pass to ENUM_N_MAX gives the record of every size up to it
ENUM_N_MAX = 31
# largest n_max of the sub-ranges drawn
SUB_RANGE_MAX = 24
FIELDS = ("count", "cell_counts", "histogram", "mean", "variance")


@cache
def loops_record(n: int) -> Enumeration:
    count, cells, scores, mean, variance = enumeration_loops(n)
    return Enumeration(count, tuple(map(tuple, cells)), array("q", scores), mean, variance)


def plain(value) -> bool:
    # an int, a Fraction, an int64 array or a tuple of these: no list and
    # no other array type
    if isinstance(value, tuple):
        return all(map(plain, value))
    if isinstance(value, array):
        return value.typecode == "q"
    return type(value) in (int, Fraction)


@pytest.fixture(scope="module")
def one_pass():
    records = list(enumerations(1, ENUM_N_MAX))
    assert len(records) == ENUM_N_MAX
    return records


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("n", range(1, ENUM_N_MAX + 1))
def test_kernel_record_matches_plain_loops(one_pass, field, n):
    assert getattr(one_pass[n - 1], field) == getattr(loops_record(n), field)


def test_closed_form_matches_pair_counting_loops():
    for n in range(1, 301):
        assert marginal_benefit_distribution(n).tolist() == pair_score_counts_loops(n), n


@settings(max_examples=100, deadline=None)
@given(st.integers(1, SUB_RANGE_MAX), st.integers(1, SUB_RANGE_MAX))
def test_every_sub_range_matches_plain_loops(a, b):
    # each size is unpacked from the running sums on its own, whatever
    # size the range starts at
    n_min, n_max = sorted((a, b))
    assert list(enumerations(n_min, n_max)) == list(map(loops_record, range(n_min, n_max + 1)))


@pytest.mark.parametrize("route", ["enumerations", "stream"])
def test_records_hold_plain_values(route):
    records = enumerations(1, 9) if route == "enumerations" else map(stream, range(1, 10))
    for n, record in enumerate(records, 1):
        assert plain((record.count, record.cell_counts, record.histogram,
                      record.mean, record.variance)), n
        assert [len(counts) for counts in record.cell_counts] == [n + 1] * 4
        assert len(record.histogram) == 2 * n + 1


@pytest.mark.parametrize("route", ["enumerations", "stream"])
def test_records_round_trip_through_marshal(route):
    # the form in which verify's forked stream child sends its records
    records = enumerations(1, 12) if route == "enumerations" else map(stream, range(1, 13))
    for n, record in enumerate(records, 1):
        assert Enumeration.from_plain(marshal.loads(marshal.dumps(record.plain()))) == record, n


def test_closed_form_counts_are_int64():
    assert marginal_benefit_distribution(9).typecode == "q"
