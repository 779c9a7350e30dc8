"""Plain-loop references: for the counting kernels, one term per (fp, fn)
pair for the closed-form distribution and one quadruple at a time for the
enumeration records; for the heatmap, one cell's colors and text at a
time."""

from fractions import Fraction

from ofi_audit.heatmap import HIGH_COLOR, LOW_COLOR, MID_COLOR


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


def heatmap_cell_loops(metric: str, num: int, den: int) -> tuple[str, str, str]:
    # a heatmap cell's fill, text color and text for the grid cell num/den
    # (den = 0: an undefined DI, or the contextual 1 when num = 0 too), one
    # cell at a time: the float position t of the value on the diverging
    # palette, clamped at its edges, each channel mixed with round(), the
    # text color from the mix's luma, and the text rounded half to even
    # from the exact value
    if den == 0:
        if num:
            return "url(#undef-hatch)", "#333333", "undef"
        num = den = 1
    center, span = (1.0, 1.0) if metric == "di" else (0.0, 2.0)
    t = (num / den - center) / span if num < 2 * den else 1.0
    edge, t = (LOW_COLOR, 1.0 if t < -1.0 else -t) if t < 0 else (HIGH_COLOR, 1.0 if t > 1.0 else t)
    mid, edge = ([int(color[k:k + 2], 16) for k in (1, 3, 5)] for color in (MID_COLOR, edge))
    r, g, b = (round(m + (e - m) * t) for m, e in zip(mid, edge))
    units = round(Fraction(num, den) * 100)  # Fraction.__round__: half to even
    text = "%s%d.%02d" % ("-" if units < 0 else "", abs(units) // 100, abs(units) % 100)
    dark = 0.299 * r + 0.587 * g + 0.114 * b < 140
    return "#%02x%02x%02x" % (r, g, b), "#ffffff" if dark else "#1a1a1a", text
