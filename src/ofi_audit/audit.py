"""Pairwise bias grids, combined findings and report serialization."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

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
    expected_benefit,
    four_fifths_verdict,
    marginal_benefit,
    ofi_verdict,
)

GRID_METRICS = ("ofi", "di")


class InsufficientGroupsError(ValueError):
    """Pairwise analysis needs at least two groups."""


class Diagnosis(Enum):
    """Combined reading of one group pair's OFI and DI."""

    ALGORITHMIC_BIAS = "algorithmic_bias"
    SYSTEMIC_DISPARITY = "systemic_disparity"
    NO_FINDING = "no_finding"


def diagnose(
    ofi_value: Fraction,
    di_verdict: BiasVerdict,
    threshold: Fraction = DEFAULT_OFI_THRESHOLD,
) -> Diagnosis:
    """Three-way diagnosis for a pair.

    |OFI| above the threshold means the decision procedure itself is
    biased. Otherwise a DI flag points at a disparity that originates
    outside the procedure (e.g. in the underlying rates). No flag from
    either rule is no finding.
    """
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ThresholdError(f"OFI threshold must be > 0, got {threshold}")
    if abs(Fraction(ofi_value)) > threshold:
        return Diagnosis.ALGORITHMIC_BIAS
    if di_verdict in (BiasVerdict.BIAS_TOWARD_FIRST, BiasVerdict.BIAS_TOWARD_SECOND):
        return Diagnosis.SYSTEMIC_DISPARITY
    return Diagnosis.NO_FINDING


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


def pairwise(
    table: GroupTable,
    metric: str,
    group_order: tuple[str, ...] | None = None,
) -> PairwiseMatrix:
    """Fill the full square grid of OFI or DI over the table's groups.

    Order defaults to lexicographic; a caller-supplied order may also
    select a subset (at least two distinct groups). The diagonal compares
    each group with itself. Each group's marginal benefit (for OFI) or
    benefit (for DI) is computed once; a cell is B_i - B_j or the DI rule
    over the two rates.
    """
    if metric not in GRID_METRICS:
        raise ValueError(f"metric must be one of {GRID_METRICS}, got {metric!r}")
    names = tuple(group_order) if group_order else tuple(sorted(table.groups))
    if len(names) < 2:
        raise InsufficientGroupsError(
            f"pairwise {metric} needs at least 2 groups, have {len(names)}"
        )
    for index, name in enumerate(names):
        if name not in table.groups:
            raise ValueError(f"unknown group {name!r}")
        if name in names[:index]:
            raise ValueError(f"duplicate group {name!r} in group order")
    if metric == "ofi":
        scores = [marginal_benefit(table.groups[name]) for name in names]
        cells = tuple(tuple(bi - bj for bj in scores) for bi in scores)
    else:
        rates = [benefit(table.groups[name]) for name in names]
        cells = tuple(tuple(di_from_rates(ri, rj) for rj in rates) for ri in rates)
    return PairwiseMatrix(metric=metric, group_order=names, cells=cells)


def build_report(table: GroupTable, config: AuditConfig | None = None) -> AuditReport:
    """Compute both grids, all per-group metrics, and per-pair findings."""
    config = config or AuditConfig()
    ofi_grid = pairwise(table, "ofi", config.group_order)
    di_grid = pairwise(table, "di", config.group_order)
    names = ofi_grid.group_order

    group_metrics = {}
    for name in names:
        cm = table.groups[name]
        group_metrics[name] = GroupMetrics(
            benefit=benefit(cm),
            expected_benefit=expected_benefit(cm),
            marginal_benefit=marginal_benefit(cm),
        )

    pairs = []
    for i, gi in enumerate(names):
        for j, gj in enumerate(names):
            if i == j:
                continue
            ofi_value = ofi_grid.cells[i][j]
            di_v = four_fifths_verdict(di_grid.cells[i][j], config.di_low, config.di_high)
            pairs.append(
                PairFinding(
                    first=gi,
                    second=gj,
                    ofi_verdict=ofi_verdict(ofi_value, config.ofi_threshold),
                    di_verdict=di_v,
                    diagnosis=diagnose(ofi_value, di_v, config.ofi_threshold),
                )
            )

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
# Serialization. Rationals are emitted as {"num", "den", "approx"}; the
# approx field is display-only and ignored when parsing back.
# ---------------------------------------------------------------------------

def _fraction_doc(value: Fraction) -> dict:
    return {
        "num": value.numerator,
        "den": value.denominator,
        "approx": float(value),
    }


def _parse_fraction_doc(doc: dict) -> Fraction:
    return Fraction(doc["num"], doc["den"])


def _di_doc(di: DiScore) -> dict:
    if di.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR:
        return {"kind": di.kind.value}
    assert di.value is not None
    return {"kind": di.kind.value, **_fraction_doc(di.value)}


def _parse_di_doc(doc: dict) -> DiScore:
    kind = DiKind(doc["kind"])
    if kind is DiKind.UNDEFINED_ZERO_DENOMINATOR:
        return DiScore.zero_denominator()
    if kind is DiKind.CONTEXTUAL_ONE:
        return DiScore.contextual_one()
    return DiScore.finite(_parse_fraction_doc(doc))


def serialize_report(report: AuditReport) -> str:
    """Serialize a report to deterministic, human-diffable JSON.

    Key order is stable and two runs over the same input are
    byte-identical. :func:`parse_report` inverts it.
    """
    names = list(report.ofi_grid.group_order)
    doc = {
        "dataset": {
            "record_count": report.record_count,
            "group_sizes": dict(report.group_sizes),
        },
        "config": {
            "ofi_threshold": _fraction_doc(report.config.ofi_threshold),
            "di_low": _fraction_doc(report.config.di_low),
            "di_high": _fraction_doc(report.config.di_high),
            "group_order": list(report.config.group_order)
            if report.config.group_order is not None
            else None,
        },
        "group_order": names,
        "group_metrics": {
            name: {
                "benefit": _fraction_doc(gm.benefit),
                "expected_benefit": _fraction_doc(gm.expected_benefit),
                "marginal_benefit": _fraction_doc(gm.marginal_benefit),
            }
            for name, gm in report.group_metrics.items()
        },
        "grids": {
            "ofi": [[_fraction_doc(v) for v in row] for row in report.ofi_grid.cells],
            "di": [[_di_doc(v) for v in row] for row in report.di_grid.cells],
        },
        "pairs": [
            {
                "first": p.first,
                "second": p.second,
                "ofi_verdict": p.ofi_verdict.value,
                "di_verdict": p.di_verdict.value,
                "diagnosis": p.diagnosis.value,
            }
            for p in report.pairs
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def parse_report(text: str) -> AuditReport:
    """Rebuild an AuditReport from :func:`serialize_report` output."""
    doc = json.loads(text)
    names = tuple(doc["group_order"])
    config_doc = doc["config"]
    config = AuditConfig(
        ofi_threshold=_parse_fraction_doc(config_doc["ofi_threshold"]),
        di_low=_parse_fraction_doc(config_doc["di_low"]),
        di_high=_parse_fraction_doc(config_doc["di_high"]),
        group_order=tuple(config_doc["group_order"])
        if config_doc["group_order"] is not None
        else None,
    )
    ofi_grid = PairwiseMatrix(
        metric="ofi",
        group_order=names,
        cells=tuple(
            tuple(_parse_fraction_doc(v) for v in row) for row in doc["grids"]["ofi"]
        ),
    )
    di_grid = PairwiseMatrix(
        metric="di",
        group_order=names,
        cells=tuple(
            tuple(_parse_di_doc(v) for v in row) for row in doc["grids"]["di"]
        ),
    )
    pairs = tuple(
        PairFinding(
            first=p["first"],
            second=p["second"],
            ofi_verdict=BiasVerdict(p["ofi_verdict"]),
            di_verdict=BiasVerdict(p["di_verdict"]),
            diagnosis=Diagnosis(p["diagnosis"]),
        )
        for p in doc["pairs"]
    )
    return AuditReport(
        record_count=doc["dataset"]["record_count"],
        group_sizes=dict(doc["dataset"]["group_sizes"]),
        group_metrics={
            name: GroupMetrics(
                benefit=_parse_fraction_doc(gm["benefit"]),
                expected_benefit=_parse_fraction_doc(gm["expected_benefit"]),
                marginal_benefit=_parse_fraction_doc(gm["marginal_benefit"]),
            )
            for name, gm in doc["group_metrics"].items()
        },
        ofi_grid=ofi_grid,
        di_grid=di_grid,
        pairs=pairs,
        config=config,
    )


def _grid_cell_text(value: Fraction | DiScore) -> str:
    if isinstance(value, DiScore):
        if value.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR:
            return "undef"
        if value.kind is DiKind.CONTEXTUAL_ONE:
            return "1 (contextual)"
        assert value.value is not None
        return format_fraction(value.value)
    return format_fraction(value)


def grid_to_csv(matrix: PairwiseMatrix) -> str:
    """Render a grid as CSV with the group order as header row and column.

    Cells are exact: Fractions as num/den text, undefined DI as "undef"
    and contextual DI as "1 (contextual)".
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["group", *matrix.group_order])
    for name, row in zip(matrix.group_order, matrix.cells):
        writer.writerow([name, *(_grid_cell_text(value) for value in row)])
    return out.getvalue()
