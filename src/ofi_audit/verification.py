"""Identity checks between the closed forms and full enumeration.

:func:`run_identity_checks` evaluates every identity over a range of
sample sizes and reports one result per identity, with the first n it
fails at. One pass over the triples (tp, fn, fp) with tp + fn + fp <=
n_max gives the enumeration of every size in the range; it is
O(n_max^3), so ranges are guarded at n <= 500 (about 21 million triples
at the cap). The checks read the records' plain ints, tuples and
``array("q")`` counts directly, without numpy.

Up to n = 40 each size is also walked by the definitional stream, the
larger part of a run. The ``verify`` command checks its range with
:func:`check_range` before anything loads numpy, and may then fork a
child that streams the largest of those sizes while this process
enumerates, and sends its records when it is done: it hands
:func:`run_identity_checks` a ``stream`` that returns the child's record
of such a size, and each record is compared at the n where it would have
been streamed, so the report is the one a single process gives. The
child is only a speed-up: when it is lost, this process streams those
sizes itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from . import exhaustive
from .combinatorics import (
    count_value,
    marginal_benefit_distribution,
    total_combinations,
)

#: Largest n the verify command will enumerate.
ENUMERATION_MAX = 500

#: Largest n for the pure-Python tuple-stream cross-check.
STREAM_CHECK_MAX = 40

#: (identity name, description) in report order.
IDENTITIES: tuple[tuple[str, str], ...] = (
    ("cardinality", "enumerated quadruple count equals (n+1)(n+2)(n+3)/6"),
    ("cell-counts", "enumerated per-cell value counts match the triangular closed form"),
    ("count-sum", "per-cell counts summed over all values equal the total count"),
    ("count-increment", "count growth per added sample equals n - x + 2"),
    ("distribution", "closed-form distribution matches the enumeration histogram"),
    ("distribution-total", "distribution multiplicities sum to the total count"),
    ("distribution-symmetry", "multiplicities at s and -s agree"),
    ("distribution-mode", "zero is the unique most frequent score"),
    ("moments", "enumerated mean is 0 and variance is (n+4)/(10n) exactly"),
    ("stream-equivalence", f"tuple stream agrees with the enumeration kernels (n <= {STREAM_CHECK_MAX})"),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    passed: bool
    detail: str


Stream = Callable[[int], exhaustive.Enumeration]


def _check_single_n(
    n: int, record: exhaustive.Enumeration, stream: Stream
) -> Iterator[tuple[str, str]]:
    """Run every identity at one n against its enumeration record, and
    the record ``stream`` gives against it up to STREAM_CHECK_MAX.
    Yields (identity name, failure text) for each identity that fails."""
    expected_total = total_combinations(n)
    if record.count != expected_total:
        yield "cardinality", f"n={n}: enumerated {record.count}, closed form {expected_total}"

    expected_cells = tuple(count_value(x, n) for x in range(n + 1))
    for cell, counts in enumerate(record.cell_counts):
        if counts != expected_cells:
            x = next(x for x, value in enumerate(expected_cells) if counts[x] != value)
            yield "cell-counts", (
                f"n={n}: cell {cell} value {x}: enumerated "
                f"{counts[x]}, closed form {expected_cells[x]}"
            )
            break

    if sum(expected_cells) != expected_total:
        yield "count-sum", f"n={n}: sum of counts differs from total"

    # count_value(x, n) grows by n - x + 2 when n grows by one
    for x, before in enumerate(expected_cells):
        increment = count_value(x, n + 1) - before
        if increment != n - x + 2:
            yield "count-increment", f"n={n}, x={x}: increment {increment} != {n - x + 2}"
            break

    dist = marginal_benefit_distribution(n)
    if dist != record.histogram:
        yield "distribution", f"n={n}: closed form and enumeration disagree"

    total = sum(dist.counts)
    if total != expected_total:
        yield "distribution-total", f"n={n}: multiplicities sum to {total}, expected {expected_total}"

    # counts[i] is the multiplicity of the score (i - n)/n
    counts = dist.counts
    i = next((i for i in range(n) if counts[i] != counts[2 * n - i]), None)
    if i is not None:
        yield "distribution-symmetry", (
            f"n={n}: counts[{Fraction(i - n, n)}]={counts[i]} "
            f"but counts[{Fraction(n - i, n)}]={counts[2 * n - i]}"
        )

    i = next((i for i, count in enumerate(counts) if count >= counts[n] and i != n), None)
    if i is not None:
        yield "distribution-mode", (
            f"n={n}: counts[{Fraction(i - n, n)}]={counts[i]} >= counts[0]={counts[n]}"
        )

    if record.mean != 0 or record.variance != Fraction(n + 4, 10 * n):
        yield "moments", (
            f"n={n}: enumerated mean {record.mean}, variance {record.variance}, "
            f"expected 0 and {Fraction(n + 4, 10 * n)}"
        )

    if n <= STREAM_CHECK_MAX and stream(n) != record:
        yield "stream-equivalence", f"n={n}: stream route disagrees with kernels"


def check_range(n_min: int, n_max: int) -> None:
    """Raise ValueError for an empty range or one past the enumeration
    guard."""
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if n_max > ENUMERATION_MAX:
        raise ValueError(
            f"n_max {n_max} exceeds the enumeration guard {ENUMERATION_MAX}; "
            f"full enumeration is O(n^3)"
        )


def run_identity_checks(
    n_min: int = 1, n_max: int = STREAM_CHECK_MAX, stream: Stream | None = None
) -> list[CheckResult]:
    """Evaluate every identity for each n in [n_min, n_max].

    ``stream(n)`` gives the stream route's record of size n, by default
    :func:`exhaustive.stream`. Raises ValueError for a range that
    :func:`check_range` refuses, before any enumeration starts.
    """
    check_range(n_min, n_max)
    stream = stream or exhaustive.stream

    ns = range(n_min, n_max + 1)
    records = exhaustive.enumerations(n_min, n_max)
    first_failures: dict[str, str] = {}
    for n, record in zip(ns, records, strict=True):
        for name, failure in _check_single_n(n, record, stream):
            first_failures.setdefault(name, failure)

    stream_span = [n for n in ns if n <= STREAM_CHECK_MAX]
    results = []
    for name, description in IDENTITIES:
        if name == "stream-equivalence" and not stream_span:
            results.append(
                CheckResult(name, description, True, "skipped: range starts above the stream bound")
            )
        elif name in first_failures:
            results.append(CheckResult(name, description, False, first_failures[name]))
        else:
            span = (
                f"n in [{stream_span[0]}, {stream_span[-1]}]"
                if name == "stream-equivalence"
                else f"n in [{n_min}, {n_max}]"
            )
            results.append(CheckResult(name, description, True, span))
    return results
