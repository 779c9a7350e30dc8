"""The integer kernels against their plain-loop references."""

import numpy as np
import pytest

from ofi_audit import _kernels

# id -> (kernel, reference, part of the result it compares); the four
# enum_* ids each compare one part of the single enumeration pass
KERNEL_PARTS = {
    "enum_count": ("enum_stats", slice(0, 1)),
    "enum_cell_counts": ("enum_stats", slice(1, 2)),
    "enum_score_counts": ("enum_stats", slice(2, 3)),
    "enum_score_sums": ("enum_stats", slice(3, 5)),
    "pair_score_counts": ("pair_score_counts", None),
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
    kernel, part = KERNEL_PARTS[name]
    got = getattr(_kernels, kernel)(n)
    want = getattr(_kernels, f"_{kernel}_loops")(n)
    if part is not None:
        got, want = got[part], want[part]
    assert _results_equal(got, want)


def test_closed_form_matches_pair_counting_loops():
    for n in range(1, 301):
        assert np.array_equal(
            _kernels.pair_score_counts(n), _kernels._pair_score_counts_loops(n)
        ), n


def test_counts_are_int64():
    _, cell_counts, score_counts, _, _ = _kernels.enum_stats(9)
    assert _kernels.pair_score_counts(9).dtype == np.int64
    assert cell_counts.dtype == np.int64
    assert score_counts.dtype == np.int64


def test_sums_are_python_ints():
    count, _, _, total, total_sq = _kernels.enum_stats(9)
    assert type(count) is int and type(total) is int and type(total_sq) is int
    assert total == 0  # symmetric differences cancel
