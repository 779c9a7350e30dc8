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
    """Per-group confusion matrices."""

    groups: dict[str, BinaryConfusion]

    @classmethod
    def from_counts(cls, counts: dict[str, list[int]]) -> GroupTable:
        """The table of each group's ``[tp, fn, fp, tn]``, in name order."""
        return cls({name: BinaryConfusion(*counts[name]) for name in sorted(counts)})

    @property
    def total(self) -> BinaryConfusion:
        """The cell-wise sum over every group; all zero for no groups."""
        cms = self.groups.values()
        return BinaryConfusion(
            sum(cm.tp for cm in cms),
            sum(cm.fn for cm in cms),
            sum(cm.fp for cm in cms),
            sum(cm.tn for cm in cms),
        )


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
    reader = csv.reader(source, delimiter=delimiter)
    return _records(reader, schema or ColumnSchema())


def header_positions(reader: Iterator[list[str]], schema: ColumnSchema) -> dict[str, int]:
    """Read the header row from a csv reader and map each trimmed column
    name to its first position. Raises SchemaError when there is no
    header or a configured column is missing from it."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("input is empty: no header row") from None
    positions: dict[str, int] = {}
    for pos, name in enumerate(header):
        positions.setdefault(name.strip(), pos)
    for column in (schema.group, schema.label, schema.prediction):
        if column not in positions:
            raise SchemaError(
                f"column {column!r} not found in header {[h.strip() for h in header]}"
            )
    return positions


def count_rows(reader, positions: dict[str, int], schema: ColumnSchema) -> dict[str, list[int]]:
    """Each group's ``[tp, fn, fp, tn]`` over the rows a csv reader yields
    after its header, validated as iter_records validates them and with
    its errors, EmptyDatasetError for no data rows included."""
    return _tally(_records(reader, schema, positions))


def _records(
    reader, schema: ColumnSchema, positions: dict[str, int] | None = None
) -> Iterator[PredictionRecord]:
    # one record per data row of the csv ``reader``, whose header is read
    # first unless its positions are given
    try:
        if positions is None:
            positions = header_positions(reader, schema)
        cells = itemgetter(
            positions[schema.group], positions[schema.label], positions[schema.prediction]
        )
        seen: dict[tuple[str, str, str], PredictionRecord] = {}
        row_num = 0
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

    On the counts this swaps tp with tn and fn with fp in every group, and
    so in the total. Use this when the beneficial outcome is the negative
    label, e.g. to make a recidivism dataset's positive prediction mean
    "not a recidivist". Applying it twice restores the input.
    """
    return GroupTable({name: _flipped(cm) for name, cm in table.groups.items()})


def aggregate(records: Iterable[PredictionRecord]) -> GroupTable:
    """Aggregate records into one confusion matrix per group.

    ``records`` may be any iterable, a generator from iter_records
    included; it is consumed once. Each record lands in tp/fn/fp/tn
    according to its (label, prediction) pair. The result is independent
    of record order; group identifiers compare case-sensitively after
    trimming (done at record construction).
    """
    cells = _tally(records)
    if not cells:
        raise EmptyDatasetError("cannot aggregate an empty record list")
    return GroupTable.from_counts(cells)


def _tally(records: Iterable[PredictionRecord]) -> dict[str, list[int]]:
    cells: dict[str, list[int]] = {}
    for r in records:
        quad = cells.get(r.group)
        if quad is None:
            quad = cells[r.group] = [0, 0, 0, 0]
        # tp, fn, fp, tn sit at 3 - 2*label - prediction
        quad[3 - 2 * r.label - r.prediction] += 1
    return cells
