"""Pairwise grids, diagnosis logic and report serialization."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
from ofi_audit.ingestion import GroupTable, PredictionRecord, aggregate
from ofi_audit.metrics import (
    BiasVerdict,
    BinaryConfusion,
    DiKind,
    DiScore,
    ThresholdError,
    disparate_impact,
    four_fifths_verdict,
    ofi,
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


counts = st.integers(min_value=0, max_value=6)
# a group with no positive prediction makes contextual and undefined DI cells
group_cms = st.one_of(
    st.builds(BinaryConfusion, counts, counts, counts, counts),
    st.builds(BinaryConfusion, st.just(0), counts, st.just(0), counts),
).filter(lambda cm: cm.n > 0)


@st.composite
def tables_and_orders(draw):
    cms = draw(st.lists(group_cms, min_size=2, max_size=6))
    names = tuple(f"g{k}" for k in range(len(cms)))
    groups = dict(zip(names, cms))
    total = BinaryConfusion(*(sum(column) for column in zip(*(cm.as_tuple() for cm in cms))))
    order = tuple(draw(st.permutations(names)))
    order = order[: draw(st.integers(min_value=2, max_value=len(order)))]
    return GroupTable(groups=groups, total=total), order


class TestGridMatchesTwoGroupMetrics:
    """The per-group derivation agrees with ofi and disparate_impact."""

    @settings(max_examples=150, deadline=None)
    @given(tables_and_orders())
    # a vs b is undefined, b vs c contextual and b vs a finite
    @example(
        (
            GroupTable(
                groups={
                    "a": BinaryConfusion(1, 2, 1, 1),
                    "b": BinaryConfusion(0, 1, 0, 3),
                    "c": BinaryConfusion(0, 2, 0, 2),
                },
                total=BinaryConfusion(1, 5, 1, 6),
            ),
            ("c", "a", "b"),
        )
    )
    def test_every_cell_equals_the_two_group_function(self, case):
        table, caller_order = case
        for order in (None, caller_order):
            ofi_grid = pairwise(table, "ofi", order)
            di_grid = pairwise(table, "di", order)
            names = ofi_grid.group_order
            assert names == (order or tuple(sorted(table.groups)))
            for gi, gj in itertools.product(names, repeat=2):
                cm_i, cm_j = table.groups[gi], table.groups[gj]
                assert ofi_grid.value_at(gi, gj) == ofi(cm_i, cm_j)
                assert di_grid.value_at(gi, gj) == disparate_impact(cm_i, cm_j)


# thresholds and band edges that the small tables above hit exactly, and
# arbitrary positive rationals
edges = st.one_of(
    st.sampled_from([Fraction(1, 4), Fraction(3, 10), Fraction(1, 2), Fraction(4, 5),
                     Fraction(1), Fraction(5, 4), Fraction(2)]),
    st.fractions(min_value=Fraction(1, 50), max_value=3, max_denominator=60)
    .filter(lambda f: f > 0),
)


@st.composite
def audits(draw):
    table, order = draw(tables_and_orders())
    low, high = sorted(draw(st.lists(edges, min_size=2, max_size=2)))
    return table, AuditConfig(draw(edges), low, high, draw(st.sampled_from([None, order])))


def fraction_verdict(value, low, high):
    # the band rules read straight off the paper, over Fractions
    if value is None:
        return BiasVerdict.UNDEFINED
    if value > high:
        return BiasVerdict.BIAS_TOWARD_FIRST
    if value < low:
        return BiasVerdict.BIAS_TOWARD_SECOND
    return BiasVerdict.NO_BIAS_INDICATED


# on the exact edge: OFI 3/10 and -3/10 against 3/10, DI 4/5 and 5/4
ON_EDGE = {"a": BinaryConfusion(1, 0, 3, 6), "b": BinaryConfusion(5, 0, 0, 5)}
# OFI ±1/4, DI 1/2 and 2
ON_WIDE_EDGE = {"a": BinaryConfusion(1, 0, 0, 3), "b": BinaryConfusion(1, 0, 1, 2)}
# zero rates: contextual, zero and undefined DI cells
ZERO_RATES = {"a": BinaryConfusion(0, 2, 0, 3), "b": BinaryConfusion(0, 1, 0, 7),
              "c": BinaryConfusion(1, 0, 3, 6)}


class TestVerdictsMatchFractionVerdicts:
    """build_report's integer verdicts agree with the Fraction functions."""

    @settings(max_examples=200, deadline=None)
    @given(audits())
    @example((table_from(ON_EDGE), AuditConfig()))
    @example((table_from(ON_WIDE_EDGE), AuditConfig(Fraction(1, 4), Fraction(1, 2), 2)))
    @example((table_from(ZERO_RATES), AuditConfig()))
    def test_every_pair_equals_the_fraction_verdicts(self, case):
        table, config = case
        threshold, low, high = config.ofi_threshold, config.di_low, config.di_high
        report = build_report(table, config)
        assert len(report.pairs) == len(report.ofi_grid.group_order) ** 2 - len(
            report.ofi_grid.group_order
        )
        for p in report.pairs:
            cm_i, cm_j = table.groups[p.first], table.groups[p.second]
            ofi_value, di = ofi(cm_i, cm_j), disparate_impact(cm_i, cm_j)
            assert p.ofi_verdict == ofi_verdict(ofi_value, threshold)
            assert p.di_verdict == four_fifths_verdict(di, low, high)
            assert p.diagnosis == diagnose(ofi_value, p.di_verdict, threshold)
            assert p.ofi_verdict == fraction_verdict(ofi_value, -threshold, threshold)
            assert p.di_verdict == fraction_verdict(di.value, low, high)


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
        assert report.ofi_grid.value_at("a", "b") == 0
        assert report.di_grid.value_at("a", "b") == DiScore.finite(Fraction(3))
        assert finding.diagnosis is Diagnosis.SYSTEMIC_DISPARITY

    def test_threshold_validation(self):
        with pytest.raises(ThresholdError):
            diagnose(Fraction(0), BiasVerdict.NO_BIAS_INDICATED, Fraction(0))


class TestBuildReport:
    def test_scenario_b_threshold_sensitivity(self):
        table = table_from(SCENARIO_B)
        default = build_report(table)
        finding = next(p for p in default.pairs if p.first == "i")
        assert default.ofi_grid.value_at("i", "j") == Fraction(4, 18)
        assert default.di_grid.value_at("i", "j").kind is DiKind.CONTEXTUAL_ONE
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
        text = serialize_report(report)
        assert parse_report(text) == report
        # a pair carries verdicts only; its values live in the grids
        for pair in json.loads(text)["pairs"]:
            assert set(pair) == {"first", "second", "ofi_verdict", "di_verdict", "diagnosis"}

    def test_round_trip_zero_denominator(self):
        table = table_from(
            {"i": BinaryConfusion(1, 0, 0, 5), "j": BinaryConfusion(0, 7, 0, 11)}
        )
        report = build_report(table)
        assert any(
            report.di_grid.value_at(p.first, p.second).kind
            is DiKind.UNDEFINED_ZERO_DENOMINATOR
            for p in report.pairs
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


def fraction_doc(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator, "approx": float(value)}


def reference_doc(report) -> dict:
    # the report as one nested document, laid out by the json module
    def di_doc(di: DiScore) -> dict:
        if di.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR:
            return {"kind": di.kind.value}
        return {"kind": di.kind.value, **fraction_doc(di.value)}

    config = report.config
    return {
        "dataset": {
            "record_count": report.record_count,
            "group_sizes": dict(report.group_sizes),
        },
        "config": {
            "ofi_threshold": fraction_doc(config.ofi_threshold),
            "di_low": fraction_doc(config.di_low),
            "di_high": fraction_doc(config.di_high),
            "group_order": None if config.group_order is None else list(config.group_order),
        },
        "group_order": list(report.ofi_grid.group_order),
        "group_metrics": {
            name: {
                "benefit": fraction_doc(gm.benefit),
                "expected_benefit": fraction_doc(gm.expected_benefit),
                "marginal_benefit": fraction_doc(gm.marginal_benefit),
            }
            for name, gm in report.group_metrics.items()
        },
        "grids": {
            "ofi": [[fraction_doc(v) for v in row] for row in report.ofi_grid.cells],
            "di": [[di_doc(v) for v in row] for row in report.di_grid.cells],
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


big_counts = st.one_of(st.integers(0, 6), st.integers(0, 10**15))
# no positive prediction (tp = fp = 0) makes undefined and contextual DI
wide_cms = st.one_of(
    st.builds(BinaryConfusion, big_counts, big_counts, big_counts, big_counts),
    st.builds(BinaryConfusion, st.just(0), big_counts, st.just(0), big_counts),
).filter(lambda cm: cm.n > 0)


@st.composite
def named_audits(draw):
    names = draw(st.lists(st.text(), min_size=2, max_size=6, unique=True))
    cms = draw(st.lists(wide_cms, min_size=len(names), max_size=len(names)))
    total = BinaryConfusion(*(sum(column) for column in zip(*(cm.as_tuple() for cm in cms))))
    table = GroupTable(groups=dict(zip(names, cms)), total=total)
    order = tuple(draw(st.permutations(names)))
    order = order[: draw(st.integers(min_value=2, max_value=len(order)))]
    low, high = sorted(draw(st.lists(edges, min_size=2, max_size=2)))
    return build_report(table, AuditConfig(draw(edges), low, high, draw(st.sampled_from([None, order]))))


class TestReportLayout:
    """The streamed report is the json module's indent=2, sorted-key text."""

    @settings(max_examples=150, deadline=None)
    @given(named_audits())
    @example(build_report(table_from(ZERO_RATES)))
    def test_matches_the_json_module(self, report):
        expected = json.dumps(reference_doc(report), indent=2, sort_keys=True) + "\n"
        assert serialize_report(report) == expected


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
