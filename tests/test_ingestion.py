"""Parsing, polarity flipping and per-group aggregation."""

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ofi_audit.ingestion import (
    ColumnSchema,
    EmptyDatasetError,
    GroupTable,
    PredictionRecord,
    RowValueError,
    SchemaError,
    aggregate,
    flip_polarity,
    iter_records,
)
from ofi_audit.metrics import BinaryConfusion, benefit, expected_benefit, marginal_benefit

RECID_SCHEMA = ColumnSchema(group="race", label="two_year_recid", prediction="prediction")

records_strategy = st.lists(
    st.builds(
        PredictionRecord,
        group=st.sampled_from(["a", "b", "c"]),
        label=st.integers(0, 1),
        prediction=st.integers(0, 1),
    ),
    min_size=1,
    max_size=60,
)


class TestPredictionRecord:
    def test_trims_group(self):
        assert PredictionRecord("  i ", 0, 1).group == "i"

    def test_rejects_blank_group(self):
        with pytest.raises(ValueError):
            PredictionRecord("   ", 0, 1)

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            PredictionRecord("i", 2, 0)


class TestParseRecords:
    def test_custom_column_names(self):
        lines = ["race,two_year_recid,prediction", "African-American,0,1"]
        records = list(iter_records(lines, RECID_SCHEMA))
        assert records == [PredictionRecord("African-American", 0, 1)]

    def test_order_preserved(self):
        lines = ["group,label,prediction", "a,1,1", "b,0,1", "a,0,0", "b,1,0"]
        records = list(iter_records(lines))
        assert [r.group for r in records] == ["a", "b", "a", "b"]
        assert [(r.label, r.prediction) for r in records] == [(1, 1), (0, 1), (0, 0), (1, 0)]

    def test_extra_columns_ignored_and_values_trimmed(self):
        lines = ["id,group,label,prediction", "17, i , 1 , 0 "]
        assert list(iter_records(lines)) == [PredictionRecord("i", 1, 0)]

    def test_custom_delimiter(self):
        lines = ["group;label;prediction", "i;1;1"]
        assert list(iter_records(lines, delimiter=";")) == [PredictionRecord("i", 1, 1)]

    def test_missing_column_names_it(self):
        with pytest.raises(SchemaError, match="'prediction'"):
            list(iter_records(["group,label", "a,1"]))

    def test_non_binary_value_reports_row(self):
        lines = ["group,label,prediction", "a,1,1", "a,1,yes"]
        with pytest.raises(RowValueError, match="row 2") as err:
            list(iter_records(lines))
        assert err.value.row == 2
        assert err.value.column == "prediction"

    def test_blank_group_rejected(self):
        lines = ["group,label,prediction", " ,1,1"]
        with pytest.raises(RowValueError, match="group"):
            list(iter_records(lines))

    def test_short_row(self):
        lines = ["group,label,prediction", "a,1"]
        with pytest.raises(RowValueError, match="missing value"):
            list(iter_records(lines))

    def test_empty_after_header(self):
        with pytest.raises(EmptyDatasetError):
            list(iter_records(["group,label,prediction"]))

    def test_no_header(self):
        with pytest.raises(SchemaError):
            list(iter_records([]))

    def test_same_cells_share_one_record(self):
        lines = ["group,label,prediction", "a,1,0", "b,1,0", "a,1,0", "a ,1,0"]
        records = list(iter_records(lines))
        assert records[0] is records[2]
        assert records[3] == records[0] and records[3] is not records[0]

    def test_bad_row_after_valid_rows_of_its_group_reports_its_row(self):
        lines = ["group,label,prediction", "a,1,1", "a,0,1", "b,0,0", "a,2,1", "a,2,1"]
        stream = iter_records(lines)
        assert [next(stream) for _ in range(3)] == list(iter_records(lines[:4]))
        with pytest.raises(RowValueError, match="row 4") as err:
            next(stream)
        assert (err.value.row, err.value.column) == (4, "label")
        with pytest.raises(RowValueError, match="row 4"):
            list(iter_records(lines))

    @pytest.mark.parametrize("text, message", [
        ('group,label,prediction\n"x"y,1,0\n', "CSV line 2: ',' expected after '\"'"),
        ('group,label,prediction\n"x,1,0\n', "CSV line 2: unexpected end of data"),
    ], ids=["text-after-a-closing-quote", "quote-open-at-the-end"])
    def test_malformed_quoting_is_refused_at_its_line(self, text, message):
        # neither is read as some other group ("xy") or row (a short one)
        lines = io.StringIO(text, newline="")
        with pytest.raises(ValueError) as err:
            list(iter_records(lines))
        assert type(err.value) is ValueError and str(err.value) == message

    @pytest.mark.parametrize("row, column, problem", [
        (" ,yes,1", "group", "group identifier is empty"),
        (" ,1", "group", "group identifier is empty"),
        ("a,2", "label", "expected 0 or 1, got '2'"),
    ])
    def test_first_bad_cell_of_a_row_in_column_order_is_reported(self, row, column, problem):
        with pytest.raises(RowValueError) as err:
            list(iter_records(["group,label,prediction", row]))
        assert str(err.value) == f"row 1, column {column!r}: {problem}"


def complemented(records):
    """The reference for flip_polarity: every label and prediction flipped."""
    return [PredictionRecord(r.group, 1 - r.label, 1 - r.prediction) for r in records]


class TestFlipPolarity:
    def test_complements_both_fields(self):
        flipped = flip_polarity(aggregate([PredictionRecord("g", 1, 0)]))
        assert flipped == aggregate([PredictionRecord("g", 0, 1)])

    @given(records_strategy)
    def test_involution(self, records):
        table = aggregate(records)
        assert flip_polarity(table) == aggregate(complemented(records))
        assert flip_polarity(flip_polarity(table)) == table

    def test_flip_swaps_confusion_cells(self):
        rng = random.Random(7)
        records = [
            PredictionRecord(rng.choice("gh"), rng.randint(0, 1), rng.randint(0, 1))
            for _ in range(40)
        ]
        plain = aggregate(records)
        flipped = flip_polarity(plain)
        assert flipped == aggregate(complemented(records))
        pairs = [(plain.total, flipped.total)]
        pairs += [(cm, flipped.groups[name]) for name, cm in plain.groups.items()]
        for cm, swapped in pairs:
            assert (swapped.tp, swapped.fn, swapped.fp, swapped.tn) == (
                cm.tn, cm.fp, cm.fn, cm.tp
            )


class TestAggregate:
    def test_scenario_a_reconstruction(self):
        records = (
            [PredictionRecord("i", 1, 1)]
            + [PredictionRecord("i", 0, 0)] * 5
            + [PredictionRecord("j", 1, 1)] * 7
            + [PredictionRecord("j", 0, 1)]
            + [PredictionRecord("j", 0, 0)] * 10
        )
        table = aggregate(records)
        assert table.groups["i"] == BinaryConfusion(1, 0, 0, 5)
        assert table.groups["j"] == BinaryConfusion(7, 0, 1, 10)
        assert table.total == BinaryConfusion(8, 0, 1, 15)

    def test_empty_table_total_is_all_zero(self):
        assert GroupTable({}).total == BinaryConfusion(0, 0, 0, 0)

    def test_single_record(self):
        table = aggregate([PredictionRecord("g", 1, 0)])
        assert table.groups["g"] == BinaryConfusion(0, 1, 0, 0)

    def test_empty(self):
        with pytest.raises(EmptyDatasetError):
            aggregate([])
        with pytest.raises(EmptyDatasetError):
            aggregate(iter(()))

    def test_consumes_a_record_stream(self):
        lines = ["group,label,prediction", "a,1,1", "b,0,1", "a,0,0", "b,1,0"]
        assert aggregate(iter_records(lines)) == aggregate(list(iter_records(lines)))

    @given(records_strategy)
    def test_sizes_sum_to_record_count(self, records):
        table = aggregate(records)
        assert sum(cm.n for cm in table.groups.values()) == len(records)
        assert table.total.n == len(records)

    @given(records_strategy)
    def test_group_means_match_rates(self, records):
        table = aggregate(records)
        for name, cm in table.groups.items():
            members = [r for r in records if r.group == name]
            assert benefit(cm) == Fraction(sum(r.prediction for r in members), len(members))
            assert expected_benefit(cm) == Fraction(sum(r.label for r in members), len(members))

    @given(records_strategy)
    def test_flip_negates_marginal_benefit(self, records):
        plain = aggregate(records)
        flipped = flip_polarity(plain)
        assert flipped == aggregate(complemented(records))
        for name, cm in plain.groups.items():
            assert marginal_benefit(flipped.groups[name]) == -marginal_benefit(cm)

    @given(records_strategy, st.randoms(use_true_random=False))
    def test_order_independent(self, records, rng):
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert aggregate(shuffled) == aggregate(records)
