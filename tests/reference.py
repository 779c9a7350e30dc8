"""Plain-loop references for the numpy kernels, one quadruple or one
(fp, fn) pair at a time."""

import numpy as np


def pair_score_counts_loops(n: int) -> np.ndarray:
    # multiplicity of each difference d = fp - fn at index d + n; each
    # (fp, fn) pair leaves n - fp - fn samples for the other two cells,
    # hence n - fp - fn + 1 completions
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for fp in range(n + 1):
        for fn in range(n - fp + 1):
            counts[fp - fn + n] += n - fp - fn + 1
    return counts


def enum_stats_loops(n: int) -> tuple[int, np.ndarray, np.ndarray, int, int]:
    # the same five results as exhaustive.enum_stats, one quadruple at a
    # time, with the cells ordered (tp, fn, fp, tn)
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
