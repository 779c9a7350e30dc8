"""Pairwise bias grids, combined findings and report serialization."""

from __future__ import annotations

import csv
import io
import json
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator

from .formatting import format_fraction
from .ingestion import GroupTable
from .metrics import (
    DEFAULT_OFI_THRESHOLD,
    FOUR_FIFTHS_HIGH,
    FOUR_FIFTHS_LOW,
    BiasVerdict,
    DiKind,
    DiScore,
    ThresholdError,
    benefit,
    di_from_rates,
    di_rule,
    expected_benefit,
    marginal_benefit,
    ofi_rule,
    ofi_verdict,
)


class InsufficientGroupsError(ValueError):
    """Pairwise analysis needs at least two groups."""


class Diagnosis(Enum):
    """Combined reading of one group pair's OFI and DI."""

    ALGORITHMIC_BIAS = "algorithmic_bias"
    SYSTEMIC_DISPARITY = "systemic_disparity"
    NO_FINDING = "no_finding"


def _diagnosis(ofi_v: BiasVerdict, di_v: BiasVerdict) -> Diagnosis:
    if ofi_v is not BiasVerdict.NO_BIAS_INDICATED:
        return Diagnosis.ALGORITHMIC_BIAS
    if di_v in (BiasVerdict.BIAS_TOWARD_FIRST, BiasVerdict.BIAS_TOWARD_SECOND):
        return Diagnosis.SYSTEMIC_DISPARITY
    return Diagnosis.NO_FINDING


def diagnose(
    ofi_value: Fraction,
    di_verdict: BiasVerdict,
    threshold: Fraction = DEFAULT_OFI_THRESHOLD,
) -> Diagnosis:
    """Three-way diagnosis for a pair.

    |OFI| above the threshold means the decision procedure itself is
    biased. Otherwise a DI flag points at a disparity that originates
    outside the procedure (e.g. in the underlying rates). No flag from
    either rule is no finding. The OFI half is :func:`ofi_verdict`.
    """
    return _diagnosis(ofi_verdict(ofi_value, threshold), di_verdict)


@dataclass(frozen=True)
class PairwiseMatrix:
    """Square grid of a two-group metric over every ordered group pair.

    ``cells[i][j]`` compares group_order[i] against group_order[j]. OFI
    grids hold Fractions and are antisymmetric with a zero diagonal; DI
    grids hold DiScores with reciprocal finite off-diagonal cells.
    """

    metric: str
    group_order: tuple[str, ...]
    cells: tuple[tuple[Fraction | DiScore, ...], ...]

    def value_at(self, first: str, second: str) -> Fraction | DiScore:
        i = self.group_order.index(first)
        j = self.group_order.index(second)
        return self.cells[i][j]


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
        for label, value in (
            ("OFI threshold", self.ofi_threshold),
            ("DI low edge", self.di_low),
            ("DI high edge", self.di_high),
        ):
            # the report writes each value as its exact text, and Python
            # caps the digits of an int it converts to text
            try:
                format_fraction(value)
            except ValueError:
                raise ThresholdError(
                    f"{label} has more than {sys.get_int_max_str_digits()} digits"
                ) from None
        if self.ofi_threshold <= 0:
            raise ThresholdError(f"OFI threshold must be > 0, got {self.ofi_threshold}")
        if self.di_low <= 0 or self.di_high <= 0 or self.di_low > self.di_high:
            raise ThresholdError(f"bad DI band [{self.di_low}, {self.di_high}]")
        if self.group_order is not None:
            object.__setattr__(self, "group_order", tuple(self.group_order))


@dataclass(frozen=True)
class GroupMetrics:
    benefit: Fraction
    expected_benefit: Fraction
    marginal_benefit: Fraction


@dataclass(frozen=True)
class PairFinding:
    """Rule verdicts and diagnosis for one ordered group pair.

    The pair's OFI and DI values live in the report's grids, at
    ``value_at(first, second)``.
    """

    first: str
    second: str
    ofi_verdict: BiasVerdict
    di_verdict: BiasVerdict
    diagnosis: Diagnosis


@dataclass(frozen=True)
class AuditReport:
    """Everything an audit computes, ready for serialization."""

    record_count: int
    group_sizes: dict[str, int]
    group_metrics: dict[str, GroupMetrics]
    ofi_grid: PairwiseMatrix
    di_grid: PairwiseMatrix
    pairs: tuple[PairFinding, ...]
    config: AuditConfig


def _group_order(table: GroupTable, group_order: tuple[str, ...] | None) -> tuple[str, ...]:
    names = tuple(group_order) if group_order else tuple(sorted(table.groups))
    if len(names) < 2:
        raise InsufficientGroupsError(
            f"pairwise ofi needs at least 2 groups, have {len(names)}"
        )
    for index, name in enumerate(names):
        if name not in table.groups:
            raise ValueError(f"unknown group {name!r}")
        if name in names[:index]:
            raise ValueError(f"duplicate group {name!r} in group order")
    return names


def _grid(metric: str, names: tuple[str, ...], scores: list[Fraction]) -> PairwiseMatrix:
    # scores are the groups' marginal benefits (OFI) or benefits (DI)
    if metric == "ofi":
        cells = tuple(tuple(bi - bj for bj in scores) for bi in scores)
    else:
        cells = tuple(tuple(di_from_rates(ri, rj) for rj in scores) for ri in scores)
    return PairwiseMatrix(metric=metric, group_order=names, cells=cells)


def build_report(table: GroupTable, config: AuditConfig | None = None) -> AuditReport:
    """Compute both grids, all per-group metrics, and per-pair findings.

    Groups come in lexicographic order, or in the config's group order,
    which may also select a subset (at least two distinct groups); a
    grid's diagonal compares each group with itself.

    Each group's benefit b = (tp + fp)/n and marginal benefit
    B = (fp - fn)/n are computed once; both grids come from them. A
    pair's verdicts are exact integer comparisons over their numerators
    and denominators: OFI is (a_i·m_j - a_j·m_i)/(m_i·m_j) for B = a/m,
    DI is (c_i·n_j)/(c_j·n_i) for b = c/n. The config's thresholds were
    validated when it was built, so no pair checks them again.
    """
    config = config or AuditConfig()
    names = _group_order(table, config.group_order)
    group_metrics = {}
    for name in names:
        cm = table.groups[name]
        group_metrics[name] = GroupMetrics(
            benefit=benefit(cm),
            expected_benefit=expected_benefit(cm),
            marginal_benefit=marginal_benefit(cm),
        )
    ofi_grid = _grid("ofi", names, [gm.marginal_benefit for gm in group_metrics.values()])
    di_grid = _grid("di", names, [gm.benefit for gm in group_metrics.values()])

    parts = [
        (name, gm.marginal_benefit.numerator, gm.marginal_benefit.denominator,
         gm.benefit.numerator, gm.benefit.denominator)
        for name, gm in group_metrics.items()
    ]
    threshold, low, high = config.ofi_threshold, config.di_low, config.di_high
    pairs = []
    for gi, a_i, m_i, c_i, n_i in parts:
        for gj, a_j, m_j, c_j, n_j in parts:
            if gi == gj:
                continue
            ofi_v = ofi_rule(a_i * m_j - a_j * m_i, m_i * m_j, threshold)
            di_v = di_rule(c_i * n_j, c_j * n_i, low, high)
            pairs.append(PairFinding(gi, gj, ofi_v, di_v, _diagnosis(ofi_v, di_v)))

    return AuditReport(
        record_count=table.total.n,
        group_sizes={name: table.groups[name].n for name in names},
        group_metrics=group_metrics,
        ofi_grid=ofi_grid,
        di_grid=di_grid,
        pairs=tuple(pairs),
        config=config,
    )


# ---------------------------------------------------------------------------
# Serialization, schema 2. Every rational is the exact text that
# _grid_cell_text also writes into the grid CSVs: "num/den", an integer
# such as "0", "undef" for an undefined DI cell or "1 (contextual)". A
# pair is the list [first, second, ofi_verdict, di_verdict, diagnosis].
# The report is the text of json.dumps(doc, indent=2, sort_keys=True),
# written out in pieces: the small sections go through json.dumps, and the
# O(k^2) grid rows and pairs are laid out below at the depth json.dumps
# would indent them to. Cell text never needs JSON escaping; group names
# go through json.dumps.
# ---------------------------------------------------------------------------

_SCHEMA = 2
PAIR_BATCH = 1024

_UNDEFINED_TEXT = "undef"
_CONTEXTUAL_TEXT = "1 (contextual)"

_PAIR = """    [
      %s,
      %s,
      "%s",
      "%s",
      "%s"
    ]"""


def _grid_cell_text(value: Fraction | DiScore) -> str:
    if isinstance(value, DiScore):
        if value.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR:
            return _UNDEFINED_TEXT
        if value.kind is DiKind.CONTEXTUAL_ONE:
            return _CONTEXTUAL_TEXT
        assert value.value is not None
        value = value.value
    return format_fraction(value)


def _parse_cell_text(text: str, di: bool = False) -> Fraction | DiScore:
    # the inverse of _grid_cell_text: a DI grid cell with di=True, any
    # other rational without
    if not di:
        return Fraction(text)
    if text == _UNDEFINED_TEXT:
        return DiScore.zero_denominator()
    if text == _CONTEXTUAL_TEXT:
        return DiScore.contextual_one()
    return DiScore.finite(Fraction(text))


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
    for row in grid.cells:
        yield '      [\n        "' + '",\n        "'.join(map(_grid_cell_text, row)) + '"\n      ]'


def report_chunks(report: AuditReport) -> Iterator[str]:
    """Yield :func:`serialize_report`'s text in pieces: one per grid row
    and one per :data:`PAIR_BATCH` pairs, so a caller can write a large
    report without holding it whole.
    """
    config = report.config
    yield '{\n  "config": ' + _section({
        "ofi_threshold": _grid_cell_text(config.ofi_threshold),
        "di_low": _grid_cell_text(config.di_low),
        "di_high": _grid_cell_text(config.di_high),
        "group_order": list(config.group_order) if config.group_order is not None else None,
    })
    yield ',\n  "dataset": ' + _section({
        "record_count": report.record_count,
        "group_sizes": dict(report.group_sizes),
    })
    yield ',\n  "grids": {\n    "di": [\n'
    yield from _items(_grid_rows(report.di_grid))
    yield '\n    ],\n    "ofi": [\n'
    yield from _items(_grid_rows(report.ofi_grid))
    yield '\n    ]\n  },\n  "group_metrics": ' + _section({
        name: {
            "benefit": _grid_cell_text(gm.benefit),
            "expected_benefit": _grid_cell_text(gm.expected_benefit),
            "marginal_benefit": _grid_cell_text(gm.marginal_benefit),
        }
        for name, gm in report.group_metrics.items()
    })
    yield ',\n  "group_order": ' + _section(list(report.ofi_grid.group_order))
    yield ',\n  "pairs": [\n'
    quoted = lru_cache(maxsize=None)(json.dumps)  # each name escaped once
    pairs = report.pairs
    yield from _items(
        ",\n".join(
            _PAIR % (quoted(p.first), quoted(p.second), p.ofi_verdict.value,
                     p.di_verdict.value, p.diagnosis.value)
            for p in pairs[start:start + PAIR_BATCH]
        )
        for start in range(0, len(pairs), PAIR_BATCH)
    )
    yield f'\n  ],\n  "schema": {_SCHEMA}\n}}\n'


def serialize_report(report: AuditReport) -> str:
    """Serialize a report to deterministic, human-diffable JSON.

    Key order is stable and two runs over the same input are
    byte-identical. :func:`parse_report` inverts it.
    """
    return "".join(report_chunks(report))


def parse_report(text: str) -> AuditReport:
    """Rebuild an AuditReport from :func:`serialize_report` output.

    Only schema 2 is read; a report of any other schema raises ValueError.
    """
    doc = json.loads(text)
    if doc.get("schema") != _SCHEMA:
        raise ValueError(f"report schema must be {_SCHEMA}, got {doc.get('schema')!r}")
    names = tuple(doc["group_order"])
    config_doc = doc["config"]
    config = AuditConfig(
        ofi_threshold=_parse_cell_text(config_doc["ofi_threshold"]),
        di_low=_parse_cell_text(config_doc["di_low"]),
        di_high=_parse_cell_text(config_doc["di_high"]),
        group_order=tuple(config_doc["group_order"])
        if config_doc["group_order"] is not None
        else None,
    )

    def grid(metric: str) -> PairwiseMatrix:
        di = metric == "di"
        cells = tuple(
            tuple(_parse_cell_text(text, di) for text in row) for row in doc["grids"][metric]
        )
        return PairwiseMatrix(metric=metric, group_order=names, cells=cells)

    pairs = tuple(
        PairFinding(first, second, BiasVerdict(ofi_v), BiasVerdict(di_v), Diagnosis(diagnosis))
        for first, second, ofi_v, di_v, diagnosis in doc["pairs"]
    )
    return AuditReport(
        record_count=doc["dataset"]["record_count"],
        group_sizes=dict(doc["dataset"]["group_sizes"]),
        group_metrics={
            name: GroupMetrics(
                benefit=_parse_cell_text(gm["benefit"]),
                expected_benefit=_parse_cell_text(gm["expected_benefit"]),
                marginal_benefit=_parse_cell_text(gm["marginal_benefit"]),
            )
            for name, gm in doc["group_metrics"].items()
        },
        ofi_grid=grid("ofi"),
        di_grid=grid("di"),
        pairs=pairs,
        config=config,
    )


def grid_csv_chunks(matrix: PairwiseMatrix) -> Iterator[str]:
    """Yield :func:`grid_to_csv`'s text one line at a time."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")

    def line(cells: list[str]) -> str:
        writer.writerow(cells)
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    yield line(["group", *matrix.group_order])
    for name, row in zip(matrix.group_order, matrix.cells):
        yield line([name, *map(_grid_cell_text, row)])


def grid_to_csv(matrix: PairwiseMatrix) -> str:
    """Render a grid as CSV with the group order as header row and column.

    Cells are exact: Fractions as num/den text, undefined DI as "undef"
    and contextual DI as "1 (contextual)".
    """
    return "".join(grid_csv_chunks(matrix))
