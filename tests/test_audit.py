"""Pairwise grids, diagnosis logic and report serialization."""

import itertools
from fractions import Fraction

import pytest

from ofi_audit.audit import (
    AuditConfig,
    Diagnosis,
    InsufficientGroupsError,
    build_report,
    diagnose,
    grid_to_csv,
    pairwise,
    parse_report,
    serialize_report,
)
from ofi_audit.ingestion import PredictionRecord, aggregate
from ofi_audit.metrics import (
    BiasVerdict,
    BinaryConfusion,
    DiKind,
    DiScore,
    ThresholdError,
    four_fifths_verdict,
    ofi_verdict,
)


def table_from(groups: dict[str, BinaryConfusion]):
    records = []
    for name, cm in groups.items():
        records += [PredictionRecord(name, 1, 1)] * cm.tp
        records += [PredictionRecord(name, 1, 0)] * cm.fn
        records += [PredictionRecord(name, 0, 1)] * cm.fp
        records += [PredictionRecord(name, 0, 0)] * cm.tn
    return aggregate(records)


SCENARIO_A = {"i": BinaryConfusion(1, 0, 0, 5), "j": BinaryConfusion(7, 0, 1, 10)}
SCENARIO_B = {"i": BinaryConfusion(0, 1, 0, 5), "j": BinaryConfusion(0, 7, 0, 11)}


class TestPairwise:
    def test_ofi_grid_scenario_a(self):
        grid = pairwise(table_from(SCENARIO_A), "ofi")
        assert grid.group_order == ("i", "j")
        assert grid.cells == (
            (Fraction(0), Fraction(-1, 18)),
            (Fraction(1, 18), Fraction(0)),
        )

    def test_di_grid_scenario_a(self):
        grid = pairwise(table_from(SCENARIO_A), "di")
        assert grid.cells == (
            (DiScore.finite(Fraction(1)), DiScore.finite(Fraction(3, 8))),
            (DiScore.finite(Fraction(8, 3)), DiScore.finite(Fraction(1))),
        )

    def test_identical_groups_give_zero_ofi_grid(self):
        cm = BinaryConfusion(2, 1, 1, 4)
        grid = pairwise(table_from({"a": cm, "b": cm, "c": cm}), "ofi")
        assert all(v == 0 for row in grid.cells for v in row)

    def test_caller_order(self):
        grid = pairwise(table_from(SCENARIO_A), "ofi", group_order=("j", "i"))
        assert grid.cells[0][1] == Fraction(1, 18)

    def test_antisymmetry_and_reciprocity(self):
        table = table_from(
            {
                "a": BinaryConfusion(3, 1, 2, 4),
                "b": BinaryConfusion(0, 2, 5, 3),
                "c": BinaryConfusion(1, 1, 1, 1),
            }
        )
        ofi_grid = pairwise(table, "ofi")
        di_grid = pairwise(table, "di")
        size = len(ofi_grid.group_order)
        for i in range(size):
            assert ofi_grid.cells[i][i] == 0
            for j in range(size):
                assert ofi_grid.cells[i][j] == -ofi_grid.cells[j][i]
                forward, backward = di_grid.cells[i][j], di_grid.cells[j][i]
                if forward.is_finite and backward.is_finite:
                    assert forward.value * backward.value == 1

    def test_needs_two_groups(self):
        with pytest.raises(InsufficientGroupsError):
            pairwise(table_from({"solo": BinaryConfusion(1, 0, 0, 1)}), "ofi")

    def test_unknown_metric_and_group(self):
        table = table_from(SCENARIO_A)
        with pytest.raises(ValueError, match="metric"):
            pairwise(table, "tpr")
        with pytest.raises(ValueError, match="unknown group"):
            pairwise(table, "ofi", group_order=("i", "k"))

    def test_duplicate_group_in_order(self):
        table = table_from(SCENARIO_A)
        with pytest.raises(ValueError, match="duplicate group 'i'"):
            pairwise(table, "ofi", group_order=("i", "i"))
        with pytest.raises(ValueError, match="duplicate group 'j'"):
            pairwise(table, "di", group_order=("j", "i", "j"))
        # a subset of distinct groups stays valid
        three = table_from({**SCENARIO_A, "k": BinaryConfusion(2, 1, 1, 2)})
        assert pairwise(three, "ofi", group_order=("i", "j")).group_order == ("i", "j")


class TestDiagnose:
    def test_truth_table(self):
        threshold = Fraction(3, 10)
        flagged = {BiasVerdict.BIAS_TOWARD_FIRST, BiasVerdict.BIAS_TOWARD_SECOND}
        ofi_values = [Fraction(0), Fraction(3, 10), Fraction(-3, 10),
                      Fraction(2, 5), Fraction(-2, 5), Fraction(2), Fraction(-2)]
        for ofi_value, di_verdict in itertools.product(ofi_values, BiasVerdict):
            got = diagnose(ofi_value, di_verdict, threshold)
            if abs(ofi_value) > threshold:
                assert got is Diagnosis.ALGORITHMIC_BIAS
            elif di_verdict in flagged:
                assert got is Diagnosis.SYSTEMIC_DISPARITY
            else:
                assert got is Diagnosis.NO_FINDING

    def test_zero_ofi_with_strong_di_is_systemic(self):
        # equal marginal benefits, triple the positive-prediction rate
        table = table_from(
            {"a": BinaryConfusion(3, 0, 0, 1), "b": BinaryConfusion(1, 0, 0, 3)}
        )
        report = build_report(table)
        finding = next(p for p in report.pairs if p.first == "a")
        assert finding.ofi_value == 0
        assert finding.di == DiScore.finite(Fraction(3))
        assert finding.diagnosis is Diagnosis.SYSTEMIC_DISPARITY

    def test_threshold_validation(self):
        with pytest.raises(ThresholdError):
            diagnose(Fraction(0), BiasVerdict.NO_BIAS_INDICATED, Fraction(0))


class TestBuildReport:
    def test_scenario_b_threshold_sensitivity(self):
        table = table_from(SCENARIO_B)
        default = build_report(table)
        finding = next(p for p in default.pairs if p.first == "i")
        assert finding.ofi_value == Fraction(4, 18)
        assert finding.di.kind is DiKind.CONTEXTUAL_ONE
        assert finding.diagnosis is Diagnosis.NO_FINDING

        lowered = build_report(table, AuditConfig(ofi_threshold=Fraction(1, 5)))
        finding = next(p for p in lowered.pairs if p.first == "i")
        assert finding.diagnosis is Diagnosis.ALGORITHMIC_BIAS

    def test_identical_groups_no_finding(self):
        cm = BinaryConfusion(2, 2, 2, 2)
        report = build_report(table_from({"a": cm, "b": cm, "c": cm}))
        assert all(p.diagnosis is Diagnosis.NO_FINDING for p in report.pairs)

    def test_every_ordered_pair_present_once(self):
        report = build_report(
            table_from(
                {
                    "a": BinaryConfusion(1, 0, 0, 1),
                    "b": BinaryConfusion(0, 1, 1, 0),
                    "c": BinaryConfusion(1, 1, 1, 1),
                }
            )
        )
        assert sorted((p.first, p.second) for p in report.pairs) == sorted(
            (a, b) for a in "abc" for b in "abc" if a != b
        )

    def test_verdicts_recompute_from_grid_and_config(self):
        report = build_report(table_from(SCENARIO_A))
        for p in report.pairs:
            assert p.ofi_verdict == ofi_verdict(
                report.ofi_grid.value_at(p.first, p.second), report.config.ofi_threshold
            )
            assert p.di_verdict == four_fifths_verdict(
                report.di_grid.value_at(p.first, p.second),
                report.config.di_low,
                report.config.di_high,
            )

    def test_summary_fields(self):
        report = build_report(table_from(SCENARIO_A))
        assert report.record_count == 24
        assert report.group_sizes == {"i": 6, "j": 18}
        assert report.group_metrics["j"].benefit == Fraction(8, 18)


class TestSerialization:
    def test_fraction_shape(self):
        report = build_report(
            table_from(
                {"i": BinaryConfusion(1, 1, 0, 5), "j": BinaryConfusion(1, 7, 0, 11)}
            )
        )
        text = serialize_report(report)
        assert '"num": 30' in text and '"den": 133' in text
        assert f'"approx": {30 / 133!r}' in text

    def test_round_trip(self):
        report = build_report(table_from(SCENARIO_B))
        assert parse_report(serialize_report(report)) == report

    def test_round_trip_zero_denominator(self):
        table = table_from(
            {"i": BinaryConfusion(1, 0, 0, 5), "j": BinaryConfusion(0, 7, 0, 11)}
        )
        report = build_report(table)
        assert any(
            p.di.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR for p in report.pairs
        )
        assert parse_report(serialize_report(report)) == report

    def test_deterministic_bytes(self):
        table_one = table_from(SCENARIO_A)
        # same data, different record order
        records = []
        for name, cm in reversed(SCENARIO_A.items()):
            records += [PredictionRecord(name, 0, 0)] * cm.tn
            records += [PredictionRecord(name, 0, 1)] * cm.fp
            records += [PredictionRecord(name, 1, 0)] * cm.fn
            records += [PredictionRecord(name, 1, 1)] * cm.tp
        table_two = aggregate(records)
        assert serialize_report(build_report(table_one)) == serialize_report(
            build_report(table_two)
        )


class TestGridCsv:
    def test_layout_and_exact_cells(self):
        report = build_report(table_from(SCENARIO_A))
        ofi_csv = grid_to_csv(report.ofi_grid)
        assert ofi_csv.splitlines()[0] == "group,i,j"
        assert ofi_csv.splitlines()[1] == "i,0,-1/18"
        di_csv = grid_to_csv(report.di_grid)
        assert di_csv.splitlines()[1] == "i,1,3/8"

    def test_undefined_and_contextual_cells(self):
        table = table_from(
            {"i": BinaryConfusion(1, 0, 0, 5), "j": BinaryConfusion(0, 7, 0, 11)}
        )
        di_csv = grid_to_csv(build_report(table).di_grid)
        assert "undef" in di_csv
        assert "1 (contextual)" in di_csv
