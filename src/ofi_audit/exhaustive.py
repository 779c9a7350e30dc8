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
record of every size up to n_max from one pass of the kernel
:func:`enum_by_sum` over the triples (tp, fn, fp) with tp + fn + fp <=
n_max, taken in order of their sum s: the quadruples with cell sum n are
the triples with s <= n, tn being n - s. That pass handles n_max in the
hundreds and is itself checked against the stream route.

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
from itertools import islice, starmap
from operator import add, mul
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


def enum_by_sum(n_max: int) -> Iterator[tuple[tuple[array, array, array], array]]:
    """Count the triples (tp, fn, fp) with tp + fn + fp = s, for each sum
    s in 0..n_max in turn.

    Yields ``(cell_counts, score_counts)`` in int64 ``array("q")``s:
    ``cell_counts[c][x]``, how many of the triples have cell c equal to
    x, cells ordered (tp, fn, fp); ``score_counts[d + n_max]``, how many
    have fp - fn = d.

    Row r holds the pairs (fn, fp) with fn + fp = r. Each row is walked
    once and its fn, fp and fp - fn counts packed into one int, a 64-bit
    lane per count; no lane holds more than the triples of one sum, so
    none carries into the next. The triples of sum s are the rows r <= s
    with tp = s - r: they take one C-level int addition per row, and
    their tp counts are the rows' lengths, the triples walked in each.
    """
    size = n_max + 1
    rows: list[int] = []
    lengths = array("q")
    for r in range(size):
        # lane 4x counts fn = x, 4x + 1 fp = x, 4x + 2 fp - fn = x and
        # 4x + 3 fn - fp = x > 0, so row r fills only lanes below 4(r + 1)
        row = array("q", bytes(32 * (r + 1)))
        length = 0
        for fn in range(r + 1):
            fp = r - fn
            d = fp - fn
            row[4 * fn] += 1
            row[4 * fp + 1] += 1
            row[4 * d + 2 if d >= 0 else 3 - 4 * d] += 1
            length += 1
        rows.append(int.from_bytes(row.tobytes(), sys.byteorder))
        lengths.append(length)
    for s in range(size):
        layer = array("q", sum(rows[: s + 1]).to_bytes(32 * size, sys.byteorder))
        tp = lengths[s::-1] + array("q", bytes(8 * (n_max - s)))
        # the scores d = -n_max..-1 from lanes 4|d| + 3, then 0..n_max
        yield (tp, layer[::4], layer[1::4]), layer[:3:-4] + layer[2::4]


def enumerations(n_min: int, n_max: int) -> Iterator[Enumeration]:
    """The record of each size n in n_min..n_max in turn, from one pass
    of :func:`enum_by_sum`.

    The quadruples with cell sum n are the triples with sum s <= n, tn
    being n - s, so running totals over s give every size; the moments
    come from the integer sums of d = fp - fn and d^2.
    """
    size = n_max + 1
    cells = [[0] * size] * 3
    scores = [0] * (2 * size - 1)
    d = range(-n_max, n_max + 1)
    d_sq = list(map(mul, d, d))
    # triples per sum s; a quadruple of size n has tn = x exactly when s = n - x
    per_sum: list[int] = []
    for n, (layer_cells, layer_scores) in enumerate(enum_by_sum(n_max)):
        # with the triples of sum n added, the totals cover size n
        cells = [list(map(add, total, layer)) for total, layer in zip(cells, layer_cells)]
        scores = list(map(add, scores, layer_scores))
        per_sum.append(sum(layer_cells[0]))
        if n < max(n_min, 1):
            continue
        count = sum(per_sum)
        mean = Fraction(sum(map(mul, scores, d)), count * n)
        variance = Fraction(sum(map(mul, scores, d_sq)), count * n * n) - mean**2
        cell_counts = (*(tuple(total[: n + 1]) for total in cells), tuple(reversed(per_sum)))
        counts = array("q", scores[n_max - n : n_max + n + 1])
        yield Enumeration(count, cell_counts, counts, mean, variance)


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
