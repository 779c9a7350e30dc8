"""Reference values computed by full enumeration.

Nothing here uses the closed forms from :mod:`ofi_audit.combinatorics`;
these routines exist so the closed forms can be checked against an
independent computation (by the test suite and the ``verify`` CLI
subcommand).

Two routes give the same :class:`Enumeration` record. :func:`stream`
walks the tuple stream from :func:`ofi_audit.combinatorics.enumerate_cms`
once and applies the exact metric to each quadruple; it is pure Python
and practical up to n of a few dozen. :func:`enumeration` runs the int64
numpy kernel :func:`enum_stats`, which masks the (fn, fp) plane per tp
and handles n in the hundreds; it is itself checked against the stream
route.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import ScoreDistribution, enumerate_cms
from .metrics import BinaryConfusion, marginal_benefit


@dataclass(frozen=True, eq=False)
class Enumeration:
    """What full enumeration says about the quadruples with cell sum n.

    ``cell_counts[c, x]`` counts the quadruples whose cell c equals x,
    shape (4, n + 1) with cells ordered (tp, fn, fp, tn). ``histogram``
    holds the multiplicity of every score (fp - fn)/n, and ``mean`` and
    ``variance`` are the score's exact population moments.
    """

    count: int
    cell_counts: np.ndarray
    histogram: ScoreDistribution
    mean: Fraction
    variance: Fraction

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Enumeration):
            return NotImplemented
        return (
            (self.count, self.histogram, self.mean, self.variance)
            == (other.count, other.histogram, other.mean, other.variance)
            and np.array_equal(self.cell_counts, other.cell_counts)
        )


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


def enumeration(n: int) -> Enumeration:
    """The record from one pass of the numpy enumeration kernel; the
    moments come from the integer sums of d and d^2."""
    count, cell_counts, score_counts, total, total_sq = enum_stats(n)
    mean = Fraction(total, count * n)
    variance = Fraction(total_sq, count * n * n) - mean**2
    return Enumeration(
        count, cell_counts, ScoreDistribution(n=n, counts=score_counts), mean, variance
    )


def stream(n: int) -> Enumeration:
    """The record from one walk of the tuple stream, scoring each
    quadruple with the exact marginal-benefit metric; the moments are
    taken over the exact scores, without integer-sum shortcuts."""
    cells = [[0] * (n + 1) for _ in range(4)]
    scores: Counter[Fraction] = Counter()
    for cm in enumerate_cms(n):
        for counts, value in zip(cells, cm):
            counts[value] += 1
        scores[marginal_benefit(BinaryConfusion(*cm))] += 1

    count = sum(scores.values())
    mean = sum((s * k for s, k in scores.items()), Fraction(0)) / count
    variance = sum(((s - mean) ** 2 * k for s, k in scores.items()), Fraction(0)) / count
    # each score s is d/n, so it lands at index s*n + n
    score_counts = np.zeros(2 * n + 1, dtype=np.int64)
    for s, k in scores.items():
        score_counts[int(s * n) + n] = k
    return Enumeration(
        count,
        np.array(cells, dtype=np.int64),
        ScoreDistribution(n=n, counts=score_counts),
        mean,
        variance,
    )
