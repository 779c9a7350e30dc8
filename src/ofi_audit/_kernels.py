"""Integer kernels behind the combinatorics and enumeration code.

:func:`pair_score_counts` is the closed form for the multiplicity of every
score difference. The ``enum_*`` kernels are brute-force numpy
enumerations that use no closed form, so ``verify`` has an independent
side to compare against. The plain-loop ``_*_loops`` functions are the
test suite's reference for both; production code does not call them.

All kernels operate on int64. Full enumeration is capped at n=200 by the
callers; the closed form stays exact up to
:data:`ofi_audit.combinatorics.DIST_MAX`.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Plain-loop references, used only by the tests.
# ---------------------------------------------------------------------------

def _pair_score_counts_loops(n: int) -> np.ndarray:
    # multiplicity of each difference d = fp - fn at index d + n; each
    # (fp, fn) pair leaves n - fp - fn samples for the other two cells,
    # hence n - fp - fn + 1 completions
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for fp in range(n + 1):
        for fn in range(n - fp + 1):
            counts[fp - fn + n] += n - fp - fn + 1
    return counts


def _enum_count_loops(n: int) -> int:
    total = 0
    for tp in range(n + 1):
        for fn in range(n - tp + 1):
            for fp in range(n - tp - fn + 1):
                total += 1
    return total


def _enum_cell_counts_loops(n: int) -> np.ndarray:
    # counts[c, x] = number of quadruples whose cell c equals x, with the
    # cells ordered (tp, fn, fp, tn)
    counts = np.zeros((4, n + 1), dtype=np.int64)
    for tp in range(n + 1):
        for fn in range(n - tp + 1):
            for fp in range(n - tp - fn + 1):
                tn = n - tp - fn - fp
                counts[0, tp] += 1
                counts[1, fn] += 1
                counts[2, fp] += 1
                counts[3, tn] += 1
    return counts


def _enum_score_counts_loops(n: int) -> np.ndarray:
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for tp in range(n + 1):
        for fn in range(n - tp + 1):
            for fp in range(n - tp - fn + 1):
                counts[fp - fn + n] += 1
    return counts


def _enum_score_sums_loops(n: int) -> tuple[int, int]:
    total = 0
    total_sq = 0
    for tp in range(n + 1):
        for fn in range(n - tp + 1):
            for fp in range(n - tp - fn + 1):
                d = fp - fn
                total += d
                total_sq += d * d
    return total, total_sq


# ---------------------------------------------------------------------------
# The closed form.
# ---------------------------------------------------------------------------

def pair_score_counts(n: int) -> np.ndarray:
    """Multiplicity of every score difference fp - fn over all quadruples
    with cell sum n, indexed d + n, in closed form.

    The pairs (fp, fn) with fp - fn = d have fp + fn = |d| + 2k for
    k < m = (n - |d|)//2 + 1, and each leaves n - fp - fn + 1 completions
    for (tp, tn). Summing over k gives m(n + 1 - |d|) - m(m - 1).
    """
    a = np.abs(np.arange(-n, n + 1, dtype=np.int64))
    m = (n - a) // 2 + 1
    return m * (n + 1 - a) - m * (m - 1)


# ---------------------------------------------------------------------------
# Brute-force enumeration. These materialize the (fn, fp) plane per tp and
# mask it, rather than using any closed form.
# ---------------------------------------------------------------------------

def _fn_fp_plane(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    r = np.arange(m + 1, dtype=np.int64)
    fn = r[:, None]
    fp = r[None, :]
    valid = (fn + fp) <= m
    return fn, fp, valid


def enum_count(n: int) -> int:
    """Number of quadruples with cell sum n, counted by enumeration."""
    total = 0
    for tp in range(n + 1):
        _, _, valid = _fn_fp_plane(n - tp)
        total += int(valid.sum())
    return total


def enum_cell_counts(n: int) -> np.ndarray:
    """Per-cell value counts over the full enumeration, shape (4, n + 1)."""
    counts = np.zeros((4, n + 1), dtype=np.int64)
    for tp in range(n + 1):
        m = n - tp
        fn, fp, valid = _fn_fp_plane(m)
        fn_vals = np.broadcast_to(fn, valid.shape)[valid]
        fp_vals = np.broadcast_to(fp, valid.shape)[valid]
        counts[0, tp] += fn_vals.size
        counts[1] += np.bincount(fn_vals, minlength=n + 1)
        counts[2] += np.bincount(fp_vals, minlength=n + 1)
        counts[3] += np.bincount(m - fn_vals - fp_vals, minlength=n + 1)
    return counts


def enum_score_counts(n: int) -> np.ndarray:
    """Histogram of fp - fn over the full enumeration, indexed d + n."""
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for tp in range(n + 1):
        fn, fp, valid = _fn_fp_plane(n - tp)
        diffs = np.broadcast_to(fp - fn, valid.shape)[valid]
        counts += np.bincount(diffs + n, minlength=2 * n + 1)
    return counts


def enum_score_sums(n: int) -> tuple[int, int]:
    """Sum and sum of squares of fp - fn over the full enumeration."""
    total = 0
    total_sq = 0
    for tp in range(n + 1):
        fn, fp, valid = _fn_fp_plane(n - tp)
        diffs = np.broadcast_to(fp - fn, valid.shape)[valid]
        total += int(diffs.sum())
        total_sq += int((diffs * diffs).sum())
    return total, total_sq
