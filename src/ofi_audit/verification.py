"""Identity checks between the closed forms and full enumeration.

:func:`run_identity_checks` evaluates every identity over a range of
sample sizes and reports one result per identity. One pass over the
triples (tp, fn, fp) with tp + fn + fp <= n_max gives the enumeration of
every size in the range; it is O(n_max^3), so ranges are guarded at
n <= 500 (about 21 million triples at the cap).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

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


def count_sum_identity(n: int) -> bool:
    """Whether the per-cell counts over all values sum to the total count.

    Always true; checked by the ``count-sum`` identity.
    """
    return sum(count_value(x, n) for x in range(n + 1)) == total_combinations(n)


def count_increment(x: int, n: int) -> int:
    """Growth of count_value(x, .) when n increases by one.

    Computed as the difference of the two counts, which reject x outside
    [0, n]; the ``count-increment`` identity checks that it equals
    n - x + 2.
    """
    before = count_value(x, n)
    return count_value(x, n + 1) - before


@dataclass(frozen=True)
class CheckResult:
    name: str
    description: str
    passed: bool
    detail: str


def _check_single_n(n: int, record: exhaustive.Enumeration) -> dict[str, str | None]:
    """Run every identity at one n against its enumeration record.
    Returns failure text per identity, None where the identity holds."""
    failures: dict[str, str | None] = {name: None for name, _ in IDENTITIES}

    expected_total = total_combinations(n)
    if record.count != expected_total:
        failures["cardinality"] = f"n={n}: enumerated {record.count}, closed form {expected_total}"

    expected_cells = np.array([count_value(x, n) for x in range(n + 1)])
    wrong = np.argwhere(record.cell_counts != expected_cells)
    if wrong.size:
        cell, x = (int(i) for i in wrong[0])
        failures["cell-counts"] = (
            f"n={n}: cell {cell} value {x}: enumerated "
            f"{record.cell_counts[cell, x]}, closed form {count_value(x, n)}"
        )

    if not count_sum_identity(n):
        failures["count-sum"] = f"n={n}: sum of counts differs from total"

    for x in range(n + 1):
        if count_increment(x, n) != n - x + 2:
            failures["count-increment"] = (
                f"n={n}, x={x}: increment {count_increment(x, n)} != {n - x + 2}"
            )
            break

    dist = marginal_benefit_distribution(n)
    if dist != record.histogram:
        failures["distribution"] = f"n={n}: closed form and enumeration disagree"

    if dist.total() != expected_total:
        failures["distribution-total"] = (
            f"n={n}: multiplicities sum to {dist.total()}, expected {expected_total}"
        )

    # counts[i] is the multiplicity of the score (i - n)/n
    counts = dist.counts
    asymmetric = np.flatnonzero(counts != counts[::-1])
    if asymmetric.size:
        i = int(asymmetric[0])
        failures["distribution-symmetry"] = (
            f"n={n}: counts[{Fraction(i - n, n)}]={counts[i]} "
            f"but counts[{Fraction(n - i, n)}]={counts[2 * n - i]}"
        )

    rivals = np.flatnonzero(counts >= counts[n])
    rivals = rivals[rivals != n]
    if rivals.size:
        i = int(rivals[0])
        failures["distribution-mode"] = (
            f"n={n}: counts[{Fraction(i - n, n)}]={counts[i]} >= counts[0]={counts[n]}"
        )

    if record.mean != 0 or record.variance != Fraction(n + 4, 10 * n):
        failures["moments"] = (
            f"n={n}: enumerated mean {record.mean}, variance {record.variance}, "
            f"expected 0 and {Fraction(n + 4, 10 * n)}"
        )

    if n <= STREAM_CHECK_MAX and exhaustive.stream(n) != record:
        failures["stream-equivalence"] = f"n={n}: stream route disagrees with kernels"

    return failures


def run_identity_checks(n_min: int = 1, n_max: int = STREAM_CHECK_MAX) -> list[CheckResult]:
    """Evaluate every identity for each n in [n_min, n_max].

    Raises ValueError for an empty or infeasible range, before any
    enumeration starts.
    """
    if n_min < 1 or n_min > n_max:
        raise ValueError(f"need 1 <= n_min <= n_max, got [{n_min}, {n_max}]")
    if n_max > ENUMERATION_MAX:
        raise ValueError(
            f"n_max {n_max} exceeds the enumeration guard {ENUMERATION_MAX}; "
            f"full enumeration is O(n^3)"
        )

    ns = range(n_min, n_max + 1)
    records = exhaustive.enumerations(n_min, n_max)
    per_n = [_check_single_n(n, record) for n, record in zip(ns, records, strict=True)]

    stream_span = [n for n in ns if n <= STREAM_CHECK_MAX]
    results = []
    for name, description in IDENTITIES:
        if name == "stream-equivalence" and not stream_span:
            results.append(
                CheckResult(name, description, True, "skipped: range starts above the stream bound")
            )
            continue
        first_failure = next(
            (failures[name] for failures in per_n if failures[name]), None
        )
        if first_failure:
            results.append(CheckResult(name, description, False, first_failure))
        else:
            span = (
                f"n in [{stream_span[0]}, {stream_span[-1]}]"
                if name == "stream-equivalence"
                else f"n in [{n_min}, {n_max}]"
            )
            results.append(CheckResult(name, description, True, span))
    return results
