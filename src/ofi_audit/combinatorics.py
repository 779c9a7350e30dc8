"""Counting and score-distribution analysis for confusion matrices.

A confusion matrix with ``n`` observations is a quadruple
``(tp, fn, fp, tn)`` of non-negative integers with cell sum ``n``. Over the
set of all such quadruples this module provides

* enumeration (:func:`enumerate_cms`),
* closed-form counts: per-cell value counts follow triangular numbers
  (:func:`count_value`) and the total number of quadruples is
  ``(n+1)(n+2)(n+3)/6`` (:func:`total_combinations`),
* the exact multiplicity of every marginal-benefit score ``(fp - fn)/n``,
  without enumeration, from the one closed form
  ``floor((n - |d| + 2)^2 / 4)`` for d = fp - fn, given for any range of
  d (:func:`score_counts`); over all of [-n, n] it is
  :func:`pair_score_counts`, wrapped by
  :func:`marginal_benefit_distribution`,
* that distribution as CSV text in fixed-size pieces, each made on its
  own from the closed form and the gcds of its scores with n
  (:func:`distribution_csv_chunks`), so its memory does not grow with n,
  and
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
from itertools import chain, repeat
from operator import floordiv, mul
from typing import Iterator

from . import DIST_MAX

#: Standard deviation of a symmetric triangular distribution on [-1, 1].
TRIANGULAR_STD = 1 / math.sqrt(6)

#: Rows per piece of :func:`distribution_csv_chunks` text. A piece's
#: lists, its tuple of values and its text (about 14 KB at 512 rows) are
#: freed as the next is made, so no size of piece grows the memory with
#: n; what moves ``dist``'s peak RSS is how far the text's growth while
#: it is formatted fragments the C heap. Through ``dist`` (CPython 3.11,
#: glibc, 2 vCPUs) the peak read 16.3-16.5 MB at n = 10^5 for every size
#: from 256 to 1024 rows, and at n = 10^6 16.5 MB at 256 rows, 16.8 at
#: 384, 17.4-17.5 at 512 and 17.8-17.9 at 1024. The text took about 10%
#: longer at 256 rows than at 1024, 3-6% at 384 and 1-4% at 512.
CSV_CHUNK_ROWS = 512


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


def _quarter_squares(a: int, b: int) -> list[int]:
    """floor(x^2/4) for every x in [a, b): m^2 at x = 2m and m(m+1) at
    x = 2m + 1, each form built with one ``map`` over its own m."""
    values = [0] * (b - a)
    evens = range((a + 1) // 2, (b + 1) // 2)
    values[a % 2 :: 2] = map(mul, evens, evens)
    values[1 - a % 2 :: 2] = map(mul, range(a // 2, b // 2), range(a // 2 + 1, b // 2 + 1))
    return values


def score_counts(n: int, start: int, stop: int) -> list[int]:
    """Multiplicity of every score difference d = fp - fn in [start, stop)
    over all quadruples with cell sum n, for -n <= start <= stop <= n + 1.

    The pairs (fp, fn) with fp - fn = d have fp + fn = |d| + 2k for
    k < m = (n - |d|)//2 + 1, and each leaves n - fp - fn + 1 completions
    for (tp, tn). Summing over k gives m(n + 2 - |d| - m), which is
    floor((n - |d| + 2)^2 / 4): m^2 where n - |d| = 2m - 2 and m(m + 1)
    where n - |d| = 2m - 1. The d below 0 take it with n - |d| rising,
    the rest with it falling.
    """
    below = _quarter_squares(n + 2 + start, n + 2 + min(stop, 0))
    above = _quarter_squares(n + 3 - stop, n + 3 - max(start, 0))
    above.reverse()
    return below + above


def pair_score_counts(n: int) -> array:
    """Multiplicity of every score difference fp - fn over all quadruples
    with cell sum n, indexed d + n, as an int64 ``array("q")``: the
    closed form of :func:`score_counts` over [-n, n]."""
    return array("q", score_counts(n, -n, n + 1))


def prime_powers(n: int) -> list[tuple[int, int]]:
    """(p^k, p) for every prime power p^k > 1 that divides n, by trial
    division; at most log2(n) of them."""
    _require_positive(n)
    powers = []
    p = 2
    while p * p <= n:
        q = p
        while n % p == 0:
            powers.append((q, p))
            n //= p
            q *= p
        p += 1
    if n > 1:
        powers.append((n, n))
    return powers


def score_gcds(powers: list[tuple[int, int]], start: int, stop: int) -> list[int]:
    """gcd(|d|, n) for every d in [start, stop), where ``powers`` is
    :func:`prime_powers` of n.

    From 1, every d that p^k divides is multiplied by p, one slice per
    prime power, so the cost is at most log2(n) slices, however long the
    range, with no Euclid run per d. d = 0 takes every power: gcd(0, n)
    is n.
    """
    gcds = [1] * (stop - start)
    for q, p in powers:
        first = -start % q
        gcds[first::q] = map(mul, gcds[first::q], repeat(p))
    return gcds


def _require_dist_size(n: int) -> None:
    _require_positive(n)
    if n > DIST_MAX:
        raise ValueError(
            f"n must be <= {DIST_MAX}, got {n}; the total count would overflow int64"
        )


def marginal_benefit_distribution(n: int) -> ScoreDistribution:
    """Distribution of the marginal-benefit score over all quadruples.

    Computed in closed form without enumerating quadruples (see
    :func:`score_counts`), in O(n) time and memory.
    Raises ValueError for n outside [1, DIST_MAX].
    """
    _require_dist_size(n)
    return ScoreDistribution(n=n, counts=pair_score_counts(n))


def distribution_csv_chunks(n: int) -> Iterator[str]:
    """The distribution of size n as CSV text: a header, then rows
    (score_numerator, score_denominator, multiplicity) in ascending score
    order with scores in lowest terms, CSV_CHUNK_ROWS rows per piece.

    Each piece is made on its own from closed forms, its multiplicities
    by :func:`score_counts` and its scores' gcds by :func:`score_gcds`,
    so no array spans the 2n + 1 scores and the memory does not grow
    with n. The text ",n/g," is made once for each divisor g of n.
    Raises ValueError for n outside [1, DIST_MAX] before any text.
    """
    _require_dist_size(n)
    powers = prime_powers(n)
    small = [g for g in range(1, math.isqrt(n) + 1) if n % g == 0]
    denominators = {g: f",{n // g}," for g in small + [n // g for g in small]}

    def piece(start: int) -> str:
        stop = min(start + CSV_CHUNK_ROWS, n + 1)
        gcds = score_gcds(powers, start, stop)
        rows = zip(map(floordiv, range(start, stop), gcds),
                   map(denominators.__getitem__, gcds), score_counts(n, start, stop))
        return ("%d%s%d\n" * (stop - start)) % tuple(chain.from_iterable(rows))

    header = "score_numerator,score_denominator,multiplicity\n"
    return chain([header], map(piece, range(-n, n + 1, CSV_CHUNK_ROWS)))


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
