"""The numpy kernels against their plain-loop references."""

import numpy as np
import pytest

from ofi_audit.combinatorics import pair_score_counts
from ofi_audit.exhaustive import enum_stats
from reference import enum_stats_loops, pair_score_counts_loops

# id -> part of the enumeration result it compares; one pass to
# ENUM_N_MAX gives the result of every size up to it
ENUM_PARTS = {
    "enum_count": slice(0, 1),
    "enum_cell_counts": slice(1, 2),
    "enum_score_counts": slice(2, 3),
    "enum_score_sums": slice(3, 5),
}
ENUM_N_MAX = 31


def _results_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_results_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) is int and a == b


@pytest.fixture(scope="module")
def one_pass():
    results = list(enum_stats(ENUM_N_MAX))
    assert len(results) == ENUM_N_MAX
    return results


@pytest.mark.parametrize("name", ENUM_PARTS)
@pytest.mark.parametrize("n", range(1, ENUM_N_MAX + 1))
def test_numpy_matches_plain_loops(one_pass, name, n):
    part = ENUM_PARTS[name]
    assert _results_equal(one_pass[n - 1][part], enum_stats_loops(n)[part])


def test_closed_form_matches_pair_counting_loops():
    for n in range(1, 301):
        assert np.array_equal(pair_score_counts(n), pair_score_counts_loops(n)), n


def test_counts_are_int64():
    _, cell_counts, score_counts, _, _ = list(enum_stats(9))[-1]
    assert pair_score_counts(9).dtype == np.int64
    assert cell_counts.dtype == np.int64
    assert score_counts.dtype == np.int64


def test_sums_are_python_ints():
    for count, _, _, total, total_sq in enum_stats(9):
        assert type(count) is int and type(total) is int and type(total_sq) is int
        assert total == 0  # symmetric differences cancel
