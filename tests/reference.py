"""Plain-loop references for the counting kernels: one term per (fp, fn)
pair for the closed-form distribution, one quadruple at a time for the
enumeration records."""

from fractions import Fraction


def pair_score_counts_loops(n: int) -> list[int]:
    # multiplicity of each difference d = fp - fn at index d + n. The
    # pairs with fp - fn = d are (fp, fn) = ((s + d)/2, (s - d)/2), one
    # for each s = fp + fn in |d|, |d| + 2, ... up to n, and each leaves
    # n - s samples for the other two cells, hence n - s + 1 completions:
    # one term per pair, summed in a C loop so that sizes in the
    # thousands stay cheap
    return [sum(range(n + 1 - abs(d), 0, -2)) for d in range(-n, n + 1)]


def enumeration_loops(n: int) -> tuple[int, list[list[int]], list[int], Fraction, Fraction]:
    # what an exhaustive.Enumeration of size n holds, one quadruple at a
    # time: the count, the cell counts [c][x] with the cells ordered
    # (tp, fn, fp, tn), the count of each d = fp - fn at index d + n, and
    # the mean and population variance of the score d/n
    count = 0
    cell_counts = [[0] * (n + 1) for _ in range(4)]
    score_counts = [0] * (2 * n + 1)
    total = 0
    total_sq = 0
    for tp in range(n + 1):
        for fn in range(n - tp + 1):
            for fp in range(n - tp - fn + 1):
                count += 1
                for cell, value in enumerate((tp, fn, fp, n - tp - fn - fp)):
                    cell_counts[cell][value] += 1
                d = fp - fn
                score_counts[d + n] += 1
                total += d
                total_sq += d * d
    mean = Fraction(total, count * n)
    return count, cell_counts, score_counts, mean, Fraction(total_sq, count * n * n) - mean**2
