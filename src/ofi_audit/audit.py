"""Pairwise bias grids, combined findings and report serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import zip_longest
from typing import Collection, Iterable, Iterator

from .formatting import digit_limit_text, format_fraction, ratio_text
from .ingestion import GroupTable
from .metrics import (
    DEFAULT_OFI_THRESHOLD,
    FOUR_FIFTHS_HIGH,
    FOUR_FIFTHS_LOW,
    BiasVerdict,
    BinaryConfusion,
    ThresholdError,
    _check_di_band,
    _check_ofi_threshold,
    benefit,
    di_rule,
    expected_benefit,
    marginal_benefit,
    ofi_rule,
)


class InsufficientGroupsError(ValueError):
    """Pairwise analysis needs at least two groups."""


class Diagnosis(Enum):
    """Combined reading of one group pair's OFI and DI."""

    ALGORITHMIC_BIAS = "algorithmic_bias"
    SYSTEMIC_DISPARITY = "systemic_disparity"
    NO_FINDING = "no_finding"


def _diagnosis(ofi_v: BiasVerdict, di_v: BiasVerdict) -> Diagnosis:
    # an OFI flag means the decision procedure itself is biased; otherwise
    # a DI flag points at a disparity from outside the procedure (e.g. in
    # the underlying rates); no flag from either rule is no finding
    if ofi_v is not BiasVerdict.NO_BIAS_INDICATED:
        return Diagnosis.ALGORITHMIC_BIAS
    if di_v in (BiasVerdict.BIAS_TOWARD_FIRST, BiasVerdict.BIAS_TOWARD_SECOND):
        return Diagnosis.SYSTEMIC_DISPARITY
    return Diagnosis.NO_FINDING


def _cell_row(
    metric: str, own: tuple[int, int], others: Iterable[tuple[int, int]]
) -> list[tuple[int, int]]:
    # the one home of a grid cell: the integer pair (x, y) whose ratio is
    # the cell, for a group's reduced score own = p/q against each of
    # others. OFI: (a_i·m_j - a_j·m_i, m_i·m_j) for B = a/m. DI:
    # (c_i·n_j, c_j·n_i) for b = c/n, where y = 0 is undefined, or the
    # contextual 1 when x = 0 too.
    p_i, q_i = own
    if metric == "ofi":
        return [(p_i * q_j - p_j * q_i, q_i * q_j) for p_j, q_j in others]
    return [(p_i * q_j, p_j * q_i) for p_j, q_j in others]


_UNDEFINED_TEXT = "undef"
_CONTEXTUAL_TEXT = "1 (contextual)"


@dataclass(frozen=True)
class PairwiseMatrix:
    """Square grid of a two-group metric over every ordered group pair.

    The grid is held as one score per group of ``group_order``: the
    marginal benefit B (OFI) or the benefit b (DI). Cell (i, j) compares
    group_order[i] against group_order[j]: an OFI cell is B_i - B_j,
    antisymmetric with a zero diagonal, and a DI cell is the three-state
    DI rule over b_i and b_j, with reciprocal finite off-diagonal cells.
    Cells are computed from the scores' integer parts when they are read.
    """

    metric: str
    group_order: tuple[str, ...]
    scores: tuple[Fraction, ...]
    _parts: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        scores = tuple(map(Fraction, self.scores))
        if len(scores) != len(self.group_order):
            raise ValueError(
                f"{len(self.group_order)} groups need as many scores, got {len(scores)}"
            )
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "_parts", tuple((s.numerator, s.denominator) for s in scores))

    def integer_rows(self) -> Iterator[list[tuple[int, int]]]:
        """Yield each grid row as its cells' integer pairs (x, y), each
        cell being x/y; a DI cell with y = 0 is undefined, or the
        contextual 1 when x = 0 too. The pairs need not be in lowest
        terms."""
        for own in self._parts:
            yield _cell_row(self.metric, own, self._parts)

    def _text_rows(self) -> Iterator[list[str]]:
        # each row's cells as the exact text of the report and the grid CSV
        # (only a DI cell has y = 0)
        for row in self.integer_rows():
            yield [
                ratio_text(x, y) if y else _UNDEFINED_TEXT if x else _CONTEXTUAL_TEXT
                for x, y in row
            ]


def _check_digits(label: str, value: Fraction) -> None:
    # reports and the CLI write every threshold as its exact text, and
    # Python caps the digits of an int it converts to text
    try:
        format_fraction(value)
    except ValueError:
        raise ThresholdError(digit_limit_text(label)) from None


@dataclass(frozen=True)
class AuditConfig:
    """Thresholds and optional group ordering for a report."""

    ofi_threshold: Fraction = DEFAULT_OFI_THRESHOLD
    di_low: Fraction = FOUR_FIFTHS_LOW
    di_high: Fraction = FOUR_FIFTHS_HIGH
    group_order: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "ofi_threshold", Fraction(self.ofi_threshold))
        object.__setattr__(self, "di_low", Fraction(self.di_low))
        object.__setattr__(self, "di_high", Fraction(self.di_high))
        _check_digits("OFI threshold", self.ofi_threshold)
        _check_digits("DI low edge", self.di_low)
        _check_digits("DI high edge", self.di_high)
        _check_ofi_threshold(self.ofi_threshold)
        _check_di_band(self.di_low, self.di_high)
        if self.group_order is not None:
            object.__setattr__(self, "group_order", tuple(self.group_order))


@dataclass(frozen=True)
class GroupMetrics:
    benefit: Fraction
    expected_benefit: Fraction
    marginal_benefit: Fraction


@dataclass(frozen=True)
class AuditReport:
    """Everything an audit computes, ready for serialization.

    The report keeps the table it was built from, every group of it. The
    grids hold one score per group of the group order, and the pair
    verdicts are decided from them and the config by
    :func:`_verdict_rows` when they are written.
    """

    table: GroupTable
    group_metrics: dict[str, GroupMetrics]
    ofi_grid: PairwiseMatrix
    di_grid: PairwiseMatrix
    config: AuditConfig

    @property
    def record_count(self) -> int:
        """The number of records over every group of the table."""
        return self.table.total.n

    @property
    def group_sizes(self) -> dict[str, int]:
        """Each group of the group order and its number of records."""
        return {name: self.table.groups[name].n for name in self.ofi_grid.group_order}


def _verdict_rows(
    report: AuditReport,
) -> Iterator[tuple[str, list[tuple[str, BiasVerdict, BiasVerdict]]]]:
    # per grid row, its group and the (second group, OFI verdict, DI
    # verdict) of each pair it starts, decided on the grids' integer
    # pairs; the config's thresholds were validated when it was built
    config = report.config
    threshold, low, high = config.ofi_threshold, config.di_low, config.di_high
    names = report.ofi_grid.group_order
    rows = zip(names, report.ofi_grid.integer_rows(), report.di_grid.integer_rows())
    for i, (first, ofi_row, di_row) in enumerate(rows):
        yield first, [
            (second, ofi_rule(ofi_x, ofi_y, threshold), di_rule(di_x, di_y, low, high))
            for j, (second, (ofi_x, ofi_y), (di_x, di_y)) in enumerate(zip(names, ofi_row, di_row))
            if j != i
        ]


def _group_order(available: Collection[str], group_order: Iterable[str]) -> tuple[str, ...]:
    # the groups of a report, checked against the names that have counts
    names = tuple(group_order)
    if len(names) < 2:
        raise InsufficientGroupsError(
            f"pairwise ofi needs at least 2 groups, have {len(names)}"
        )
    for index, name in enumerate(names):
        if name not in available:
            raise ValueError(f"unknown group {name!r}")
        if name in names[:index]:
            raise ValueError(f"duplicate group {name!r} in group order")
    return names


def build_report(table: GroupTable, config: AuditConfig | None = None) -> AuditReport:
    """Compute all per-group metrics, from which both grids and all pair
    findings follow.

    Groups come in lexicographic order, or in the config's group order,
    which may also select a subset (at least two distinct groups); a
    grid's diagonal compares each group with itself.

    Each group's benefit b = (tp + fp)/n and marginal benefit
    B = (fp - fn)/n are computed once, and the report keeps these per
    group beside the table: every grid cell and pair verdict is computed
    from their numerators and denominators when it is read or written. A
    verdict is an exact integer comparison: OFI is
    (a_i·m_j - a_j·m_i)/(m_i·m_j) for B = a/m, DI is (c_i·n_j)/(c_j·n_i)
    for b = c/n.
    """
    config = config or AuditConfig()
    names = _group_order(table.groups, config.group_order or sorted(table.groups))
    group_metrics = {}
    for name in names:
        cm = table.groups[name]
        group_metrics[name] = GroupMetrics(
            benefit=benefit(cm),
            expected_benefit=expected_benefit(cm),
            marginal_benefit=marginal_benefit(cm),
        )
    # OFI compares the groups' marginal benefits, DI their benefits
    return AuditReport(
        table=table,
        group_metrics=group_metrics,
        ofi_grid=PairwiseMatrix(
            "ofi", names, tuple(gm.marginal_benefit for gm in group_metrics.values())
        ),
        di_grid=PairwiseMatrix("di", names, tuple(gm.benefit for gm in group_metrics.values())),
        config=config,
    )


# ---------------------------------------------------------------------------
# Serialization, schema 3. dataset.confusion maps every group of the
# table to its counts [tp, fn, fp, tn]; with the config they are the
# report's one source, and every other field follows from them. Every
# rational is the exact text that the grid CSVs also write: "num/den", an
# integer such as "0", "undef" for an undefined DI cell or
# "1 (contextual)". A pair is the list
# [first, second, ofi_verdict, di_verdict, diagnosis]. The report is the
# text of json.dumps(doc, indent=2, sort_keys=True), written out in
# pieces: the small sections go through json.dumps, and the O(k^2) grid
# rows and pairs are laid out below, one grid row at a time, at the depth
# json.dumps would indent them to. Cell text never needs JSON escaping;
# group names go through json.dumps.
# ---------------------------------------------------------------------------

_SCHEMA = 3

# a pair's verdicts and diagnosis, after its two group names
_PAIR_TAIL = """,
      "%s",
      "%s",
      "%s"
    ]"""


def _section(value) -> str:
    # a value one level below the top, so every line after the first is
    # indented two more spaces
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  ")


def _items(chunks: Iterable[str]) -> Iterator[str]:
    # the chunks of a JSON list's items, with the separators between them
    separator = ""
    for chunk in chunks:
        yield separator + chunk
        separator = ",\n"


def _grid_rows(grid: PairwiseMatrix) -> Iterator[str]:
    for row in grid._text_rows():
        yield '      [\n        "' + '",\n        "'.join(row) + '"\n      ]'


def _pair_rows(report: AuditReport) -> Iterator[str]:
    # one chunk per grid row: the pairs that its group starts
    quoted = {name: json.dumps(name) for name in report.ofi_grid.group_order}
    tails = {
        (ofi_v, di_v): _PAIR_TAIL % (ofi_v.value, di_v.value, _diagnosis(ofi_v, di_v).value)
        for ofi_v in BiasVerdict
        for di_v in BiasVerdict
    }
    for first, row in _verdict_rows(report):
        head = "    [\n      " + quoted[first] + ",\n      "
        yield ",\n".join(
            head + quoted[second] + tails[ofi_v, di_v] for second, ofi_v, di_v in row
        )


def report_chunks(report: AuditReport) -> Iterator[str]:
    """Yield :func:`serialize_report`'s text in pieces: one per grid row
    and one per group's pairs, so a caller can write a large report
    without holding it whole.
    """
    config = report.config
    yield '{\n  "config": ' + _section({
        "ofi_threshold": format_fraction(config.ofi_threshold),
        "di_low": format_fraction(config.di_low),
        "di_high": format_fraction(config.di_high),
        "group_order": list(config.group_order) if config.group_order is not None else None,
    })
    yield ',\n  "dataset": ' + _section({
        "confusion": {
            name: [cm.tp, cm.fn, cm.fp, cm.tn] for name, cm in report.table.groups.items()
        },
        "record_count": report.record_count,
        "group_sizes": report.group_sizes,
    })
    yield ',\n  "grids": {\n    "di": [\n'
    yield from _items(_grid_rows(report.di_grid))
    yield '\n    ],\n    "ofi": [\n'
    yield from _items(_grid_rows(report.ofi_grid))
    yield '\n    ]\n  },\n  "group_metrics": ' + _section({
        name: {
            "benefit": format_fraction(gm.benefit),
            "expected_benefit": format_fraction(gm.expected_benefit),
            "marginal_benefit": format_fraction(gm.marginal_benefit),
        }
        for name, gm in report.group_metrics.items()
    })
    yield ',\n  "group_order": ' + _section(list(report.ofi_grid.group_order))
    yield ',\n  "pairs": [\n'
    yield from _items(_pair_rows(report))
    yield f'\n  ],\n  "schema": {_SCHEMA}\n}}\n'


def serialize_report(report: AuditReport) -> str:
    """Serialize a report to deterministic, human-diffable JSON.

    Key order is stable and two runs over the same input are
    byte-identical. :func:`parse_report` inverts it.
    """
    return "".join(report_chunks(report))


def parse_report(text: str) -> AuditReport:
    """Rebuild an AuditReport from :func:`serialize_report` output.

    Only schema 3 is read. The report is rebuilt from its config and its
    per-group counts by :func:`build_report`, and it must then serialize
    to ``text`` byte for byte. ValueError is raised for any other schema,
    for a config or counts that cannot be read or that
    :func:`build_report` refuses, and for any other difference, naming
    the first line that differs.
    """
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"report must be a JSON object, got {type(doc).__name__}")
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"report schema must be {_SCHEMA}, got {doc.get('schema')!r}")
    try:
        config_doc = doc["config"]
        group_order = config_doc["group_order"]
        config = AuditConfig(
            ofi_threshold=Fraction(config_doc["ofi_threshold"]),
            di_low=Fraction(config_doc["di_low"]),
            di_high=Fraction(config_doc["di_high"]),
            group_order=None if group_order is None else tuple(group_order),
        )
        table = GroupTable({
            name: BinaryConfusion(*counts)
            for name, counts in doc["dataset"]["confusion"].items()
        })
        report = build_report(table, config)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"report config or counts cannot be read: {exc!r}") from None
    rendered = serialize_report(report)
    if rendered != text:
        # a side that has ended reads as None
        lines = enumerate(zip_longest(text.split("\n"), rendered.split("\n")), 1)
        number, (got, want) = next((number, pair) for number, pair in lines if pair[0] != pair[1])
        raise ValueError(
            f"report line {number} is {got!r}, but its counts and config give {want!r}"
        )
    return report


def grid_csv_chunks(matrix: PairwiseMatrix) -> Iterator[str]:
    """Render a grid as CSV, one line at a time, with the group order as
    header row and column.

    Cells are exact: Fractions as num/den text, undefined DI as "undef"
    and contextual DI as "1 (contextual)".
    """
    buffer = io.StringIO()
    # the writer quotes a name that holds a character of its line
    # terminator, so a CR is quoted only under "\r\n"; each name is written
    # beside an empty field, as a row of one empty field is written '""'
    writer = csv.writer(buffer, lineterminator="\r\n")
    names = []
    for name in matrix.group_order:
        writer.writerow([name, ""])
        names.append(buffer.getvalue()[:-3])
        buffer.seek(0)
        buffer.truncate()
    # no cell text holds a delimiter, a quote or a line separator
    yield ",".join(["group", *names]) + "\n"
    for name, row in zip(names, matrix._text_rows()):
        yield ",".join([name, *row]) + "\n"
