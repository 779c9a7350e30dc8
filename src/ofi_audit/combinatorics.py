"""Counting and score-distribution analysis for confusion matrices.

A confusion matrix with ``n`` observations is a quadruple
``(tp, fn, fp, tn)`` of non-negative integers with cell sum ``n``. Over the
set of all such quadruples this module provides

* enumeration (:func:`enumerate_cms`),
* closed-form counts: per-cell value counts follow triangular numbers
  (:func:`count_value`) and the total number of quadruples is
  ``(n+1)(n+2)(n+3)/6`` (:func:`total_combinations`),
* the exact multiplicity of every marginal-benefit score ``(fp - fn)/n``,
  in closed form and O(n) without enumeration (:func:`pair_score_counts`,
  wrapped by :func:`marginal_benefit_distribution`), written as CSV text
  in fixed-size chunks (:meth:`ScoreDistribution.csv_chunks`), and
* the distribution's exact moments: mean 0, variance ``(n+4)/(10n)``
  (:func:`b_stats`).

Everything here runs on the standard library. Every closed form is
checked against full enumeration by the test suite and by the ``verify``
CLI subcommand: :mod:`ofi_audit.exhaustive` holds the enumeration-based
reference computations, its numpy enumeration kernel included, and
:mod:`ofi_audit.verification` the checks, among them the count identities
that only it checks.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice, repeat
from operator import floordiv, mul
from typing import Iterator

#: Standard deviation of a symmetric triangular distribution on [-1, 1].
TRIANGULAR_STD = 1 / math.sqrt(6)

#: Largest n for :func:`marginal_benefit_distribution`: the largest n whose
#: total count (n+1)(n+2)(n+3)/6 still fits in the int64 multiplicities.
DIST_MAX = 3_810_776

#: Rows per piece of :meth:`ScoreDistribution.csv_chunks` text. All 2n + 1
#: rows at once would grow the peak memory with n; a piece this size and
#: its Python ints stay well under a megabyte.
CSV_CHUNK_ROWS = 4096


def _require_positive(n: int, what: str = "n") -> None:
    if n < 1:
        raise ValueError(f"{what} must be >= 1, got {n}")


def termial(w: int) -> int:
    """The w-th triangular number, w(w+1)/2. termial(0) is 0."""
    if w < 0:
        raise ValueError(f"w must be >= 0, got {w}")
    return w * (w + 1) // 2


def total_combinations(n: int) -> int:
    """Number of confusion-matrix quadruples with cell sum n.

    Choosing a 4-cell composition of n gives (n+1)(n+2)(n+3)/6.
    """
    _require_positive(n)
    return (n + 1) * (n + 2) * (n + 3) // 6


def enumerate_cms(n: int) -> Iterator[tuple[int, int, int, int]]:
    """Yield every quadruple (tp, fn, fp, tn) with cell sum n exactly once.

    The order is ascending lexicographic by (tp, fn, fp); tn is the
    remainder. The stream has total_combinations(n) items, which grows
    cubically, so large n are on the caller.
    """
    _require_positive(n)
    for tp in range(n + 1):
        for fn in range(n + 1 - tp):
            for fp in range(n + 1 - tp - fn):
                yield (tp, fn, fp, n - tp - fn - fp)


def count_value(x: int, n: int) -> int:
    """How many quadruples with cell sum n have a designated cell equal to x.

    Fixing one cell at x leaves a 3-cell composition of n - x, so the count
    is termial(n - x + 1) regardless of which cell is designated.
    """
    _require_positive(n)
    if not 0 <= x <= n:
        raise ValueError(f"x must be in [0, {n}], got {x}")
    return termial(n - x + 1)


@dataclass(frozen=True)
class ScoreDistribution:
    """Exact multiplicity of every score (fp - fn)/n over all quadruples.

    ``counts[d + n]`` is the multiplicity of the score d/n, for d in
    [-n, n], held as an int64 ``array("q")``. The multiplicities sum to
    total_combinations(n), the array is symmetric, and its middle entry
    (score zero) is the unique maximum.
    """

    n: int
    counts: array

    def csv_chunks(self) -> Iterator[str]:
        """The distribution as CSV text: a header, then rows
        (score_numerator, score_denominator, multiplicity) in ascending
        score order with scores in lowest terms, CSV_CHUNK_ROWS rows per
        yielded piece.

        The score d/n reduces by gcd(|d|, n), read from one
        :func:`gcd_table` that serves d and -d alike: backwards while d
        rises to 0, forwards after it.
        """
        n = self.n
        gcds = gcd_table(n)
        row_gcds = chain(reversed(gcds), islice(gcds, 1, None))
        yield "score_numerator,score_denominator,multiplicity\n"
        for start in range(0, 2 * n + 1, CSV_CHUNK_ROWS):
            g = list(islice(row_gcds, CSV_CHUNK_ROWS))
            d = range(start - n, start - n + len(g))
            rows = zip(map(floordiv, d, g), map(floordiv, repeat(n), g),
                       self.counts[start : start + len(g)])
            yield ("%d,%d,%d\n" * len(g)) % tuple(chain.from_iterable(rows))


def gcd_table(n: int) -> array:
    """gcd(a, n) for every a in 0..n, as an int32 ``array("i")``.

    Each divisor g of n, in ascending order, is written to every multiple
    of g, so a keeps the largest divisor of n that divides it. That costs
    the sum of n's divisors' cofactors, O(n log log n), against a
    Euclid run per entry.
    """
    _require_positive(n)
    small = [g for g in range(1, math.isqrt(n) + 1) if n % g == 0]
    divisors = small + [n // g for g in reversed(small) if g * g != n]
    table = array("i", [1]) * (n + 1)
    for g in divisors[1:]:
        table[::g] = array("i", [g]) * (n // g + 1)
    return table


def pair_score_counts(n: int) -> array:
    """Multiplicity of every score difference fp - fn over all quadruples
    with cell sum n, indexed d + n, in closed form, as an int64
    ``array("q")``.

    The pairs (fp, fn) with fp - fn = d have fp + fn = |d| + 2k for
    k < m = (n - |d|)//2 + 1, and each leaves n - fp - fn + 1 completions
    for (tp, tn). Summing over k gives m(n + 2 - |d| - m): m^2 where
    n - |d| = 2m - 2 and m(m + 1) where n - |d| = 2m - 1. Walking d up
    from -n, the two forms alternate, starting with m = 1; each is built
    once and written to d <= 0 and, mirrored, to d >= 0.
    """
    # m where n - |d| is even (2m - 2), then where it is odd (2m - 1)
    evens = range(1, n // 2 + 2)
    squares = array("q", map(mul, evens, evens))
    odds = range(1, (n + 1) // 2 + 1)
    products = array("q", map(mul, odds, range(2, (n + 1) // 2 + 2)))
    counts = array("q", [0]) * (2 * n + 1)
    counts[0 : n + 1 : 2] = counts[2 * n : n - 1 : -2] = squares
    counts[1 : n + 1 : 2] = counts[2 * n - 1 : n - 1 : -2] = products
    return counts


def marginal_benefit_distribution(n: int) -> ScoreDistribution:
    """Distribution of the marginal-benefit score over all quadruples.

    Computed in closed form without enumerating quadruples (see
    :func:`pair_score_counts`), in O(n) time and memory.
    Raises ValueError for n outside [1, DIST_MAX].
    """
    _require_positive(n)
    if n > DIST_MAX:
        raise ValueError(
            f"n must be <= {DIST_MAX}, got {n}; the total count would overflow int64"
        )
    return ScoreDistribution(n=n, counts=pair_score_counts(n))


@dataclass(frozen=True)
class BStats:
    """Exact moments of the marginal-benefit score over all quadruples.

    ``std`` is the only floating-point field; the exact rational variance
    sits next to it.
    """

    n: int
    mean: Fraction
    variance: Fraction
    std: float


def b_stats(n: int) -> BStats:
    """Mean, variance and standard deviation of the score distribution.

    The mean is exactly 0 by symmetry and the population variance is
    (n+4)/(10n). As n grows the variance tends to 1/10 and the standard
    deviation to 1/sqrt(10) = 0.3162....
    """
    _require_positive(n)
    variance = Fraction(n + 4, 10 * n)
    return BStats(n=n, mean=Fraction(0), variance=variance, std=math.sqrt(variance))
