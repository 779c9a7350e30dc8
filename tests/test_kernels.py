"""The counting kernels against their plain-loop references: the
closed-form distribution, built with the standard library, and the
enumeration records, whose kernel is the one numpy routine."""

from array import array
from fractions import Fraction
from functools import cache

import pytest

from ofi_audit.combinatorics import ScoreDistribution, pair_score_counts
from ofi_audit.exhaustive import Enumeration, enumerations, stream
from reference import enumeration_loops, pair_score_counts_loops

# one pass to ENUM_N_MAX gives the record of every size up to it
ENUM_N_MAX = 31
FIELDS = ("count", "cell_counts", "histogram", "mean", "variance")


@cache
def loops_record(n: int) -> Enumeration:
    count, cells, scores, mean, variance = enumeration_loops(n)
    histogram = ScoreDistribution(n, array("q", scores))
    return Enumeration(count, tuple(map(tuple, cells)), histogram, mean, variance)


def plain(value) -> bool:
    # an int, a Fraction, an int64 array or a tuple of these: no numpy value
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
        assert pair_score_counts(n).tolist() == pair_score_counts_loops(n), n


@pytest.mark.parametrize("route", ["enumerations", "stream"])
def test_records_hold_plain_values(route):
    records = enumerations(1, 9) if route == "enumerations" else map(stream, range(1, 10))
    for n, record in enumerate(records, 1):
        assert type(record.histogram.n) is int
        assert plain((record.count, record.cell_counts, record.histogram.counts,
                      record.mean, record.variance)), n
        assert [len(counts) for counts in record.cell_counts] == [n + 1] * 4


def test_closed_form_counts_are_int64():
    assert pair_score_counts(9).typecode == "q"
