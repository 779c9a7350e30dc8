"""The numpy kernels against their plain-loop references."""

import numpy as np
import pytest

from ofi_audit.combinatorics import pair_score_counts
from ofi_audit.exhaustive import enum_stats
from reference import enum_stats_loops, pair_score_counts_loops

# id -> (kernel, reference, part of the result it compares); the four
# enum_* ids each compare one part of the single enumeration pass
KERNEL_PARTS = {
    "enum_count": (enum_stats, enum_stats_loops, slice(0, 1)),
    "enum_cell_counts": (enum_stats, enum_stats_loops, slice(1, 2)),
    "enum_score_counts": (enum_stats, enum_stats_loops, slice(2, 3)),
    "enum_score_sums": (enum_stats, enum_stats_loops, slice(3, 5)),
    "pair_score_counts": (pair_score_counts, pair_score_counts_loops, None),
}
SIZES = (1, 2, 5, 16, 31)


def _results_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_results_equal(x, y) for x, y in zip(a, b))
    return type(a) is type(b) is int and a == b


@pytest.mark.parametrize("name", KERNEL_PARTS)
@pytest.mark.parametrize("n", SIZES)
def test_numpy_matches_plain_loops(name, n):
    kernel, reference, part = KERNEL_PARTS[name]
    got, want = kernel(n), reference(n)
    if part is not None:
        got, want = got[part], want[part]
    assert _results_equal(got, want)


def test_closed_form_matches_pair_counting_loops():
    for n in range(1, 301):
        assert np.array_equal(pair_score_counts(n), pair_score_counts_loops(n)), n


def test_counts_are_int64():
    _, cell_counts, score_counts, _, _ = enum_stats(9)
    assert pair_score_counts(9).dtype == np.int64
    assert cell_counts.dtype == np.int64
    assert score_counts.dtype == np.int64


def test_sums_are_python_ints():
    count, _, _, total, total_sq = enum_stats(9)
    assert type(count) is int and type(total) is int and type(total_sq) is int
    assert total == 0  # symmetric differences cancel
