"""CSV ingestion of (group, label, prediction) records and aggregation
into per-group confusion matrices.

Inputs are delimiter-separated text with a header row; labels and
predictions must be the literal strings "0" or "1" after trimming. Values
outside the binary domain are hard errors, never coerced, and records
with a blank group are rejected rather than pooled.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from operator import index, itemgetter
from typing import Iterable, Iterator

from .metrics import BinaryConfusion


class SchemaError(ValueError):
    """A configured column is missing from the header."""


class RowValueError(ValueError):
    """A data row holds a value outside its domain."""

    def __init__(self, row: int, column: str, problem: str):
        self.row = row
        self.column = column
        super().__init__(f"row {row}, column {column!r}: {problem}")


class EmptyDatasetError(ValueError):
    """No data rows were found."""


@dataclass(frozen=True, slots=True)
class ColumnSchema:
    """Names of the group, label and prediction columns in the input."""

    group: str = "group"
    label: str = "label"
    prediction: str = "prediction"


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    """One individual's group, ground label and model prediction."""

    group: str
    label: int
    prediction: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", self.group.strip())
        if not self.group:
            raise ValueError("group identifier is empty")
        for name in ("label", "prediction"):
            value = index(getattr(self, name))
            if value not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1, got {value}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class GroupTable:
    """Per-group confusion matrices plus their cell-wise total."""

    groups: dict[str, BinaryConfusion]
    total: BinaryConfusion


def iter_records(
    source: Iterable[str],
    schema: ColumnSchema | None = None,
    delimiter: str = ",",
) -> Iterator[PredictionRecord]:
    """Yield one record per data row of delimiter-separated text.

    ``source`` is any iterable of text lines; open files with
    ``newline=""`` so that line separators inside quoted fields stay data,
    and with ``encoding="utf-8-sig"`` to accept a byte order mark. Blank
    lines are skipped. Rows with the same raw (group, label, prediction)
    cells share one record, validated when the cells first appear, so
    the first bad row is always reported. Raises SchemaError when a
    configured column is missing, RowValueError for a non-binary value, a
    missing cell or a blank group (carrying the 1-based data row number),
    ValueError naming the CSV line for text the csv module rejects, and
    EmptyDatasetError when no data rows follow the header.
    """
    schema = schema or ColumnSchema()
    reader = csv.reader(source, delimiter=delimiter)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input is empty: no header row") from None
    except csv.Error as exc:
        raise _csv_error(reader, exc) from exc

    positions: dict[str, int] = {}
    for pos, name in enumerate(header):
        positions.setdefault(name.strip(), pos)
    for column in (schema.group, schema.label, schema.prediction):
        if column not in positions:
            raise SchemaError(
                f"column {column!r} not found in header {[h.strip() for h in header]}"
            )

    cells = itemgetter(
        positions[schema.group], positions[schema.label], positions[schema.prediction]
    )
    seen: dict[tuple[str, str, str], PredictionRecord] = {}
    row_num = 0
    try:
        for row in reader:
            if not row:
                continue
            row_num += 1
            try:
                record = seen[cells(row)]
            except (KeyError, IndexError):
                record = _validate(row, positions, schema, row_num)
                seen[cells(row)] = record
            yield record
    except csv.Error as exc:
        raise _csv_error(reader, exc) from exc

    if not row_num:
        raise EmptyDatasetError("no data rows after the header")


def _csv_error(reader, exc: csv.Error) -> ValueError:
    return ValueError(f"CSV line {reader.line_num}: {exc}")


def _validate(
    row: list[str], positions: dict[str, int], schema: ColumnSchema, row_num: int
) -> PredictionRecord:
    group = _cell(row, positions[schema.group], schema.group, row_num).strip()
    if not group:
        raise RowValueError(row_num, schema.group, "group identifier is empty")
    label = _binary(_cell(row, positions[schema.label], schema.label, row_num),
                    schema.label, row_num)
    prediction = _binary(_cell(row, positions[schema.prediction], schema.prediction, row_num),
                         schema.prediction, row_num)
    return PredictionRecord(group, label, prediction)


def _cell(row: list[str], pos: int, column: str, row_num: int) -> str:
    if pos >= len(row):
        raise RowValueError(row_num, column, "missing value (short row)")
    return row[pos]


def _binary(raw: str, column: str, row_num: int) -> int:
    text = raw.strip()
    if text == "0":
        return 0
    if text == "1":
        return 1
    raise RowValueError(row_num, column, f"expected 0 or 1, got {raw!r}")


def _flipped(cm: BinaryConfusion) -> BinaryConfusion:
    return BinaryConfusion(tp=cm.tn, fn=cm.fp, fp=cm.fn, tn=cm.tp)


def flip_polarity(table: GroupTable) -> GroupTable:
    """Complement every label and prediction (0 <-> 1) of a table.

    On the counts this swaps tp with tn and fn with fp, in every group and
    in the total. Use this when the beneficial outcome is the negative
    label, e.g. to make a recidivism dataset's positive prediction mean
    "not a recidivist". Applying it twice restores the input.
    """
    return GroupTable(
        groups={name: _flipped(cm) for name, cm in table.groups.items()},
        total=_flipped(table.total),
    )


def aggregate(records: Iterable[PredictionRecord]) -> GroupTable:
    """Aggregate records into one confusion matrix per group.

    ``records`` may be any iterable, a generator from iter_records
    included; it is consumed once. Each record lands in tp/fn/fp/tn
    according to its (label, prediction) pair. The result is independent
    of record order; group identifiers compare case-sensitively after
    trimming (done at record construction).
    """
    cells: dict[str, list[int]] = {}
    for r in records:
        quad = cells.get(r.group)
        if quad is None:
            quad = cells[r.group] = [0, 0, 0, 0]
        # tp, fn, fp, tn sit at 3 - 2*label - prediction
        quad[3 - 2 * r.label - r.prediction] += 1
    if not cells:
        raise EmptyDatasetError("cannot aggregate an empty record list")
    groups = {name: BinaryConfusion(*cells[name]) for name in sorted(cells)}
    total = BinaryConfusion(
        sum(q[0] for q in cells.values()),
        sum(q[1] for q in cells.values()),
        sum(q[2] for q in cells.values()),
        sum(q[3] for q in cells.values()),
    )
    return GroupTable(groups=groups, total=total)
