"""Integer kernels behind the combinatorics and enumeration code.

:func:`pair_score_counts` is the closed form for the multiplicity of every
score difference. :func:`enum_stats` is a brute-force numpy
enumeration that uses no closed form, so ``verify`` has an independent
side to compare against; one pass gives every enumerated fact. The
plain-loop ``_*_loops`` functions are the test suite's reference for the
two; production code does not call them.

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


def _enum_stats_loops(n: int) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    # the same five results as enum_stats, one quadruple at a time, with
    # the cells ordered (tp, fn, fp, tn)
    count = 0
    cell_counts = np.zeros((4, n + 1), dtype=np.int64)
    score_counts = np.zeros(2 * n + 1, dtype=np.int64)
    total = 0
    total_sq = 0
    for tp in range(n + 1):
        for fn in range(n - tp + 1):
            for fp in range(n - tp - fn + 1):
                count += 1
                for cell, value in enumerate((tp, fn, fp, n - tp - fn - fp)):
                    cell_counts[cell, value] += 1
                d = fp - fn
                score_counts[d + n] += 1
                total += d
                total_sq += d * d
    return count, cell_counts, score_counts, total, total_sq


# ---------------------------------------------------------------------------
# The closed form.
# ---------------------------------------------------------------------------

def pair_score_counts(n: int) -> np.ndarray:
    """Multiplicity of every score difference fp - fn over all quadruples
    with cell sum n, indexed d + n, in closed form.

    The pairs (fp, fn) with fp - fn = d have fp + fn = |d| + 2k for
    k < m = (n - |d|)//2 + 1, and each leaves n - fp - fn + 1 completions
    for (tp, tn). Summing over k gives m(n + 1 - |d|) - m(m - 1), which
    is m(n + 2 - |d| - m); it is computed in place in two arrays.
    """
    a = np.arange(-n, n + 1, dtype=np.int64)
    np.abs(a, out=a)
    m = n - a
    m //= 2
    m += 1
    np.subtract(n + 2, a, out=a)
    a -= m
    a *= m
    return a


# ---------------------------------------------------------------------------
# Brute-force enumeration. This materializes the (fn, fp) plane per tp and
# masks it, rather than using any closed form.
# ---------------------------------------------------------------------------

def enum_stats(n: int) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    """Every enumeration fact about the quadruples with cell sum n, from
    one pass over them.

    Returns ``(count, cell_counts, score_counts, total, total_sq)``:
    the number of quadruples; ``cell_counts[c, x]``, how many have cell c
    equal to x, shape (4, n + 1) with cells ordered (tp, fn, fp, tn);
    ``score_counts[d + n]``, how many have fp - fn = d; and the sum and
    sum of squares of fp - fn as Python ints.
    """
    count = 0
    cell_counts = np.zeros((4, n + 1), dtype=np.int64)
    score_counts = np.zeros(2 * n + 1, dtype=np.int64)
    total = 0
    total_sq = 0
    r = np.arange(n + 1, dtype=np.int64)
    for tp in range(n + 1):
        m = n - tp
        fn_axis, fp_axis = r[: m + 1, None], r[None, : m + 1]
        valid = fn_axis + fp_axis <= m
        fn = np.broadcast_to(fn_axis, valid.shape)[valid]
        fp = np.broadcast_to(fp_axis, valid.shape)[valid]
        d = fp - fn
        count += d.size
        cell_counts[0, tp] += d.size
        cell_counts[1] += np.bincount(fn, minlength=n + 1)
        cell_counts[2] += np.bincount(fp, minlength=n + 1)
        cell_counts[3] += np.bincount(m - fn - fp, minlength=n + 1)
        score_counts += np.bincount(d + n, minlength=2 * n + 1)
        total += int(d.sum())
        total_sq += int((d * d).sum())
    return count, cell_counts, score_counts, total, total_sq
