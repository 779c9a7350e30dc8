"""Reference values computed by full enumeration.

Nothing here uses the closed forms from :mod:`ofi_audit.combinatorics`;
these routines exist so the closed forms can be checked against an
independent computation (by the test suite and the ``verify`` CLI
subcommand).

Two routes give the same :class:`Enumeration` record. :func:`stream`
walks the tuple stream from :func:`ofi_audit.combinatorics.enumerate_cms`
once and scores each quadruple with the exact metric. It pulls the walk
in fixed batches and does its counting and tallying with C-level
iterator and ``Counter`` calls, but the scoring itself stays one exact
:class:`~ofi_audit.metrics.BinaryConfusion` and one ``Fraction`` per
quadruple, so its cost grows with the cubic count of quadruples and
``verify`` runs it only up to n = 40. :func:`enumerations` gives the
record of every size up to n_max from one walk of the pairs (fn, fp)
with fn + fp <= n_max, one row fn + fp = r at a time, and two packed
running sums over the rows: the triples (tp, fn, fp) of each sum, and
the quadruples of each size. That walk handles n_max in the hundreds
and is itself checked against the stream route.

Both routes run on the standard library and give records of plain
values: ints, tuples of ints, an int64 ``array("q")`` and exact
``Fraction`` moments; :meth:`Enumeration.plain` turns one into what
``marshal`` writes, and :meth:`Enumeration.from_plain` turns it back.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, starmap
from operator import mul
from typing import Iterator

from .combinatorics import enumerate_cms
from .metrics import BinaryConfusion, marginal_benefit

#: Quadruples :func:`stream` takes from the walk at a time. Larger
#: batches run no faster, and at 1024 the batch and its column iterators
#: already raise the peak RSS of ``verify`` by about 0.2 MB.
STREAM_BATCH = 256


@dataclass(frozen=True)
class Enumeration:
    """What full enumeration says about the quadruples with cell sum n.

    ``cell_counts[c][x]`` counts the quadruples whose cell c equals x:
    four tuples of n + 1 ints, cells ordered (tp, fn, fp, tn).
    ``histogram[d + n]`` is the multiplicity of the score d/n, for d in
    [-n, n], in an int64 ``array("q")``, and ``mean`` and ``variance``
    are the score's exact population moments.
    """

    count: int
    cell_counts: tuple[tuple[int, ...], ...]
    histogram: array
    mean: Fraction
    variance: Fraction

    def plain(self) -> tuple:
        """The record as ints, tuples and bytes, which ``marshal`` writes."""
        return (self.count, self.cell_counts, self.histogram.tobytes(),
                self.mean.as_integer_ratio(), self.variance.as_integer_ratio())

    @classmethod
    def from_plain(cls, plain: tuple) -> Enumeration:
        """The record that :meth:`plain` gave ``plain`` for."""
        count, cell_counts, raw, mean, variance = plain
        return cls(count, cell_counts, array("q", raw), Fraction(*mean), Fraction(*variance))


def enumerations(n_min: int, n_max: int) -> Iterator[Enumeration]:
    """The record of each size n in n_min..n_max in turn, from one walk
    of the pairs (fn, fp) with fn + fp <= n_max.

    Row r holds the pairs with fn + fp = r. Each row is walked once and
    its fn, fp and fp - fn counts packed into one int, a 64-bit lane per
    count. Two running sums of these ints give every size: ``triples``,
    the sum of rows 0..s, counts the triples (tp, fn, fp) of sum s, tp
    being s - r in row r; ``quadruples``, the sum of ``triples`` over
    s <= n, counts the quadruples of size n, tn being n - s. No lane
    holds more than the quadruples of one size, so none carries into the
    next. The moments come from the integer sums of d = fp - fn and d^2.
    """
    triples = quadruples = 0
    lengths: list[int] = []
    for n in range(n_max + 1):
        # lane 4x counts fn = x, 4x + 1 fp = x, 4x + 2 fp - fn = x and
        # 4x + 3 fn - fp = x > 0, so row n fills only lanes below 4(n + 1)
        row = array("q", bytes(32 * (n + 1)))
        length = 0
        for fn in range(n + 1):
            fp = n - fn
            d = fp - fn
            row[4 * fn] += 1
            row[4 * fp + 1] += 1
            row[4 * d + 2 if d >= 0 else 3 - 4 * d] += 1
            length += 1
        triples += int.from_bytes(row.tobytes(), sys.byteorder)
        quadruples += triples
        lengths.append(length)
        if n < max(n_min, 1):
            continue
        # a lane past size n would overflow here
        lanes = array("q", quadruples.to_bytes(32 * (n + 1), sys.byteorder))
        # the scores d = -n..-1 from lanes 4|d| + 3, then 0..n
        histogram = lanes[:3:-4] + lanes[2::4]
        # the quadruples with tp = x, and those with tn = x, number the
        # pairs with fn + fp <= n - x
        within = tuple(accumulate(lengths))[::-1]
        count = sum(within)
        ds = range(-n, n + 1)
        mean = Fraction(sum(map(mul, histogram, ds)), count * n)
        variance = Fraction(sum(map(mul, histogram, map(mul, ds, ds))), count * n * n) - mean**2
        cell_counts = (within, tuple(lanes[::4]), tuple(lanes[1::4]), within)
        yield Enumeration(count, cell_counts, histogram, mean, variance)


def stream(n: int) -> Enumeration:
    """The record from one walk of the tuple stream, scoring each
    quadruple with the exact marginal-benefit metric; the moments are
    taken over the exact scores, without integer-sum shortcuts.

    The walk is pulled in batches of STREAM_BATCH quadruples, so the
    counting and tallying run in C while at most one batch is held. Every
    quadruple still becomes a :class:`BinaryConfusion` scored by
    :func:`marginal_benefit`; each score is tallied under its lowest-terms
    (numerator, denominator) pair, which hashes faster than a Fraction.
    """
    cells: list[Counter[int]] = [Counter() for _ in range(4)]
    scores: Counter[tuple[int, int]] = Counter()
    walk = enumerate_cms(n)
    while batch := list(islice(walk, STREAM_BATCH)):
        for counts, column in zip(cells, zip(*batch)):
            counts.update(column)
        scores.update(
            map(Fraction.as_integer_ratio, map(marginal_benefit, starmap(BinaryConfusion, batch)))
        )

    exact = {Fraction(p, q): k for (p, q), k in scores.items()}
    count = sum(exact.values())
    mean = sum((s * k for s, k in exact.items()), Fraction(0)) / count
    variance = sum(((s - mean) ** 2 * k for s, k in exact.items()), Fraction(0)) / count
    # the score p/q is d/n with d = p * (n // q) when q divides n; a score
    # off that grid, or outside [-1, 1], has no bin and stays out, so the
    # histogram cannot equal one that holds every quadruple
    score_counts = array("q", [0]) * (2 * n + 1)
    for (p, q), k in scores.items():
        d = p * (n // q)
        if n % q == 0 and -n <= d <= n:
            score_counts[d + n] = k
    cell_counts = tuple(tuple(map(counts.__getitem__, range(n + 1))) for counts in cells)
    return Enumeration(count, cell_counts, score_counts, mean, variance)
