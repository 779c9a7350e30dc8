"""Reference values computed by full enumeration.

Nothing here uses the closed forms from :mod:`ofi_audit.combinatorics`;
these routines exist so the closed forms can be checked against an
independent computation (by the test suite and the ``verify`` CLI
subcommand).

Two routes give the same :class:`Enumeration` record. :func:`stream`
walks the tuple stream from :func:`ofi_audit.combinatorics.enumerate_cms`
once and applies the exact metric to each quadruple; it is pure Python
and practical up to n of a few dozen. :func:`enumeration` runs the numpy
kernel :func:`ofi_audit._kernels.enum_stats` and handles n in the
hundreds; it is itself checked against the stream route.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _kernels
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


def enumeration(n: int) -> Enumeration:
    """The record from one pass of the numpy enumeration kernel; the
    moments come from the integer sums of d and d^2."""
    count, cell_counts, score_counts, total, total_sq = _kernels.enum_stats(n)
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
