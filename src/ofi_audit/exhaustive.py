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
record of every size up to n_max from one pass of the int64 numpy kernel
:func:`enum_by_sum` over the triples (tp, fn, fp) with tp + fn + fp <=
n_max, taken in order of their sum s: the quadruples with cell sum n are
the triples with s <= n, tn being n - s. That pass handles n_max in the
hundreds and is itself checked against the stream route.

numpy stays inside the kernel and the running totals that
:func:`enumerations` keeps over its layers, the package's only use of it,
and each imports it when it runs: importing this module, or running
:func:`stream`, loads no numpy. So ``verify`` can fork a child that
streams the largest sizes of the stream span while the parent loads
numpy and enumerates, and sends its records when it is done (or is
lost, and the parent streams those sizes itself). Both routes
give records of plain values: ints, tuples of ints, an int64
``array("q")`` and exact ``Fraction`` moments; :meth:`Enumeration.plain`
turns one into what ``marshal`` writes, and
:meth:`Enumeration.from_plain` turns it back.
"""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice, starmap
from typing import TYPE_CHECKING, Iterator

from .combinatorics import ScoreDistribution, enumerate_cms
from .metrics import BinaryConfusion, marginal_benefit

if TYPE_CHECKING:
    import numpy as np

#: Quadruples :func:`stream` takes from the walk at a time. Larger
#: batches run no faster, and at 1024 the batch and its column iterators
#: already raise the peak RSS of ``verify`` by about 0.2 MB.
STREAM_BATCH = 256


@dataclass(frozen=True)
class Enumeration:
    """What full enumeration says about the quadruples with cell sum n.

    ``cell_counts[c][x]`` counts the quadruples whose cell c equals x:
    four tuples of n + 1 ints, cells ordered (tp, fn, fp, tn).
    ``histogram`` holds the multiplicity of every score (fp - fn)/n, and
    ``mean`` and ``variance`` are the score's exact population moments.
    """

    count: int
    cell_counts: tuple[tuple[int, ...], ...]
    histogram: ScoreDistribution
    mean: Fraction
    variance: Fraction

    def plain(self) -> tuple:
        """The record as ints, tuples and bytes, which ``marshal`` writes."""
        histogram = self.histogram
        return (self.count, self.cell_counts, histogram.n, histogram.counts.tobytes(),
                self.mean.as_integer_ratio(), self.variance.as_integer_ratio())

    @classmethod
    def from_plain(cls, plain: tuple) -> Enumeration:
        """The record that :meth:`plain` gave ``plain`` for."""
        count, cell_counts, n, raw, mean, variance = plain
        return cls(count, cell_counts, ScoreDistribution(n, array("q", raw)),
                   Fraction(*mean), Fraction(*variance))


def enum_by_sum(n_max: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Count the triples (tp, fn, fp) with tp + fn + fp = s, for each sum
    s in 0..n_max in turn.

    Yields ``(cell_counts, score_counts)``: ``cell_counts[c, x]``, how
    many of the triples have cell c equal to x, shape (3, n_max + 1) with
    cells ordered (tp, fn, fp); and ``score_counts[d + n_max]``, how many
    have fp - fn = d, shape (2 * n_max + 1,).
    """
    import numpy as np

    size = n_max + 1
    r = np.arange(size, dtype=np.int64)
    for s in range(size):
        tp_axis, fn_axis = r[: s + 1, None], r[None, : s + 1]
        valid = tp_axis + fn_axis <= s
        tp = np.broadcast_to(tp_axis, valid.shape)[valid]
        fn = np.broadcast_to(fn_axis, valid.shape)[valid]
        fp = s - tp - fn
        cell_counts = np.stack([np.bincount(v, minlength=size) for v in (tp, fn, fp)])
        yield cell_counts, np.bincount(fp - fn + n_max, minlength=2 * size - 1)


def enumerations(n_min: int, n_max: int) -> Iterator[Enumeration]:
    """The record of each size n in n_min..n_max in turn, from one pass
    of :func:`enum_by_sum`.

    The quadruples with cell sum n are the triples with sum s <= n, tn
    being n - s, so running totals over s give every size; the moments
    come from the integer sums of d = fp - fn and d^2.
    """
    import numpy as np

    size = n_max + 1
    cells = np.zeros((3, size), dtype=np.int64)
    scores = np.zeros(2 * size - 1, dtype=np.int64)
    d = np.arange(-n_max, n_max + 1, dtype=np.int64)
    d_sq = d * d
    # triples per sum s; a quadruple of size n has tn = x exactly when s = n - x
    per_sum: list[int] = []
    for n, (layer_cells, layer_scores) in enumerate(enum_by_sum(n_max)):
        # with the triples of sum n added, the totals cover size n
        cells += layer_cells
        scores += layer_scores
        per_sum.append(int(layer_cells[0].sum()))
        if n < max(n_min, 1):
            continue
        count = sum(per_sum)
        mean = Fraction(int(scores @ d), count * n)
        variance = Fraction(int(scores @ d_sq), count * n * n) - mean**2
        cell_counts = (*map(tuple, cells[:, : n + 1].tolist()), tuple(reversed(per_sum)))
        counts = array("q", scores[n_max - n : n_max + n + 1].tobytes())
        yield Enumeration(count, cell_counts, ScoreDistribution(n, counts), mean, variance)


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
    return Enumeration(count, cell_counts, ScoreDistribution(n, score_counts), mean, variance)
