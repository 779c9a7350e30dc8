"""The integer kernels against their plain-loop references."""

import numpy as np
import pytest

from ofi_audit import _kernels

KERNEL_NAMES = (
    "enum_cell_counts", "enum_count", "enum_score_counts", "enum_score_sums", "pair_score_counts"
)
SIZES = (1, 2, 5, 16, 31)


def _results_equal(a, b) -> bool:
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and np.array_equal(a, b)
    if isinstance(a, tuple):
        return tuple(int(x) for x in a) == tuple(int(x) for x in b)
    return int(a) == int(b)


@pytest.mark.parametrize("name", KERNEL_NAMES)
@pytest.mark.parametrize("n", SIZES)
def test_numpy_matches_plain_loops(name, n):
    kernel = getattr(_kernels, name)
    loops = getattr(_kernels, f"_{name}_loops")
    assert _results_equal(kernel(n), loops(n))


def test_closed_form_matches_pair_counting_loops():
    for n in range(1, 301):
        assert np.array_equal(
            _kernels.pair_score_counts(n), _kernels._pair_score_counts_loops(n)
        ), n


def test_counts_are_int64():
    assert _kernels.pair_score_counts(9).dtype == np.int64
    assert _kernels.enum_cell_counts(9).dtype == np.int64
    assert _kernels.enum_score_counts(9).dtype == np.int64


def test_sums_are_python_ints():
    total, total_sq = _kernels.enum_score_sums(9)
    assert type(total) is int and type(total_sq) is int
    assert total == 0  # symmetric differences cancel
