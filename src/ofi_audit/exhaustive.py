"""Reference values computed by full enumeration.

Nothing here uses the closed forms from :mod:`ofi_audit.combinatorics`;
these routines exist so the closed forms can be checked against an
independent computation (by the test suite and the ``verify`` CLI
subcommand).

Two routes are provided. The ``stream_*`` functions walk the tuple stream
from :func:`ofi_audit.combinatorics.enumerate_cms` and apply the exact
metric functions record by record; they are pure Python and practical up
to n of a few dozen. The unprefixed functions run on the numpy enumeration
kernels and handle n in the hundreds; they are themselves checked against
the stream route.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import numpy as np

from . import _kernels
from .combinatorics import ScoreDistribution, enumerate_cms
from .metrics import BinaryConfusion, marginal_benefit


def matrix_count(n: int) -> int:
    """Number of quadruples with cell sum n, by kernel enumeration."""
    return _kernels.enum_count(n)


def cell_value_counts(n: int) -> np.ndarray:
    """Counts of each value per cell position over the full enumeration.

    Shape (4, n + 1) with cells ordered (tp, fn, fp, tn).
    """
    return _kernels.enum_cell_counts(n)


def score_histogram(n: int) -> ScoreDistribution:
    """Histogram of (fp - fn)/n over the full enumeration."""
    return ScoreDistribution(n=n, counts=_kernels.enum_score_counts(n))


def score_moments(n: int) -> tuple[Fraction, Fraction]:
    """Exact population (mean, variance) of (fp - fn)/n over the
    enumeration, from integer sums of d and d^2."""
    total, total_sq = _kernels.enum_score_sums(n)
    count = matrix_count(n)
    mean = Fraction(total, count * n)
    second_moment = Fraction(total_sq, count * n * n)
    return mean, second_moment - mean**2


def stream_count(n: int) -> int:
    """Length of the enumeration stream."""
    return sum(1 for _ in enumerate_cms(n))


def stream_cell_value_counts(n: int) -> list[Counter]:
    """Per-cell value counters built by walking the stream."""
    counters = [Counter(), Counter(), Counter(), Counter()]
    for cm in enumerate_cms(n):
        for cell, value in enumerate(cm):
            counters[cell][value] += 1
    return counters


def stream_score_histogram(n: int) -> ScoreDistribution:
    """Histogram built by mapping the exact marginal-benefit metric over
    the stream of quadruples; each score s lands at index s*n + n."""
    counts = np.zeros(2 * n + 1, dtype=np.int64)
    for cm in enumerate_cms(n):
        counts[int(marginal_benefit(BinaryConfusion(*cm)) * n) + n] += 1
    return ScoreDistribution(n=n, counts=counts)


def stream_score_moments(n: int) -> tuple[Fraction, Fraction]:
    """Exact population (mean, variance) via the stream and the exact
    metric, without integer-sum shortcuts."""
    scores = [marginal_benefit(BinaryConfusion(*cm)) for cm in enumerate_cms(n)]
    count = len(scores)
    mean = sum(scores, Fraction(0)) / count
    variance = sum((s - mean) ** 2 for s in scores) / count
    return mean, variance
