"""Pairwise grids, diagnosis logic and report serialization."""

import csv
import io
import itertools
import json
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofi_audit.audit import (
    AuditConfig,
    Diagnosis,
    InsufficientGroupsError,
    _diagnosis,
    build_report,
    grid_csv_chunks,
    parse_report,
    serialize_report,
)
from ofi_audit.formatting import format_fixed
from ofi_audit.heatmap import HIGH_COLOR, LOW_COLOR, MID_COLOR, heatmap_chunks
from ofi_audit.ingestion import GroupTable, PredictionRecord, aggregate
from ofi_audit.metrics import (
    BiasVerdict,
    BinaryConfusion,
    DiKind,
    DiScore,
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


def total_of(cms) -> BinaryConfusion:
    return BinaryConfusion(sum(cm.tp for cm in cms), sum(cm.fn for cm in cms),
                           sum(cm.fp for cm in cms), sum(cm.tn for cm in cms))


def grids(table, order=None):
    report = build_report(table, AuditConfig(group_order=order))
    return report.ofi_grid, report.di_grid


SCENARIO_A = {"i": BinaryConfusion(1, 0, 0, 5), "j": BinaryConfusion(7, 0, 1, 10)}
SCENARIO_B = {"i": BinaryConfusion(0, 1, 0, 5), "j": BinaryConfusion(0, 7, 0, 11)}
# sizes near 10^12 and 10^13: "base" against "edge" has OFI exactly -3/10
# and against "four_fifths" DI exactly 5/4; "none" predicts no one
ON_EDGE_HUGE = {
    "base": BinaryConfusion(234_566_791_225, 98_765_432_101, 222_222_221_118, 444_445_555_595),
    "edge": BinaryConfusion(2_098_754_343_137, 1_234_567_890_123, 5_469_135_780_410,
                            1_197_541_986_720),
    "four_fifths": BinaryConfusion(333_328_893_307, 876_543_210_987, 1_493_827_156_065,
                                   2_296_300_739_836),
    "none": BinaryConfusion(0, 333_333_333_331, 0, 666_666_666_697),
}


class TestPairwise:
    def test_ofi_grid_scenario_a(self):
        grid, _ = grids(table_from(SCENARIO_A))
        assert grid.group_order == ("i", "j")
        assert grid.cells == (
            (Fraction(0), Fraction(-1, 18)),
            (Fraction(1, 18), Fraction(0)),
        )

    def test_di_grid_scenario_a(self):
        _, grid = grids(table_from(SCENARIO_A))
        assert grid.cells == (
            (DiScore.finite(Fraction(1)), DiScore.finite(Fraction(3, 8))),
            (DiScore.finite(Fraction(8, 3)), DiScore.finite(Fraction(1))),
        )

    def test_identical_groups_give_zero_ofi_grid(self):
        cm = BinaryConfusion(2, 1, 1, 4)
        grid, _ = grids(table_from({"a": cm, "b": cm, "c": cm}))
        assert all(v == 0 for row in grid.cells for v in row)

    def test_caller_order(self):
        grid, _ = grids(table_from(SCENARIO_A), ("j", "i"))
        assert grid.cells[0][1] == Fraction(1, 18)

    def test_antisymmetry_and_reciprocity(self):
        table = table_from(
            {
                "a": BinaryConfusion(3, 1, 2, 4),
                "b": BinaryConfusion(0, 2, 5, 3),
                "c": BinaryConfusion(1, 1, 1, 1),
            }
        )
        ofi_grid, di_grid = grids(table)
        size = len(ofi_grid.group_order)
        for i in range(size):
            assert ofi_grid.cells[i][i] == 0
            for j in range(size):
                assert ofi_grid.cells[i][j] == -ofi_grid.cells[j][i]
                forward, backward = di_grid.cells[i][j], di_grid.cells[j][i]
                if forward.kind is DiKind.FINITE and backward.kind is DiKind.FINITE:
                    assert forward.value * backward.value == 1

    def test_needs_two_groups(self):
        with pytest.raises(InsufficientGroupsError):
            grids(table_from({"solo": BinaryConfusion(1, 0, 0, 1)}))

    def test_unknown_metric_and_group(self):
        with pytest.raises(ValueError, match="unknown group"):
            grids(table_from(SCENARIO_A), ("i", "k"))

    def test_duplicate_group_in_order(self):
        table = table_from(SCENARIO_A)
        with pytest.raises(ValueError, match="duplicate group 'i'"):
            grids(table, ("i", "i"))
        with pytest.raises(ValueError, match="duplicate group 'j'"):
            grids(table, ("j", "i", "j"))
        # a subset of distinct groups stays valid
        three = table_from({**SCENARIO_A, "k": BinaryConfusion(2, 1, 1, 2)})
        assert grids(three, ("i", "j"))[0].group_order == ("i", "j")


# small counts meet thresholds and rounding ties exactly; counts up to
# 10^15 take a cell's integer parts past 2^63
counts = st.one_of(st.integers(min_value=0, max_value=6), st.integers(min_value=0, max_value=10**15))
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
    order = tuple(draw(st.permutations(names)))
    order = order[: draw(st.integers(min_value=2, max_value=len(order)))]
    return GroupTable(groups=groups, total=total_of(cms)), order


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
    @example((GroupTable(ON_EDGE_HUGE, total_of(ON_EDGE_HUGE.values())),
              ("none", "four_fifths", "base", "edge")))
    # OFI 1/8 and 3/8 round half to even at two places: 0.12 and 0.38
    @example((table_from({"a": BinaryConfusion(0, 0, 1, 7), "b": BinaryConfusion(0, 0, 3, 5),
                          "c": BinaryConfusion(5, 0, 0, 5)}), ("c", "b", "a")))
    def test_every_cell_equals_the_two_group_function(self, case):
        table, caller_order = case
        for order in (None, caller_order):
            ofi_grid, di_grid = grids(table, order)
            names = ofi_grid.group_order
            assert names == (order or tuple(sorted(table.groups)))
            doc = json.loads(serialize_report(build_report(table, AuditConfig(group_order=order))))
            for grid, two_group, text in ((ofi_grid, ofi, str), (di_grid, disparate_impact, di_text)):
                expected = [[two_group(table.groups[gi], table.groups[gj]) for gj in names]
                            for gi in names]
                assert grid.cells == tuple(map(tuple, expected))
                for (i, gi), (j, gj) in itertools.product(enumerate(names), repeat=2):
                    assert grid.value_at(gi, gj) == expected[i][j]
                texts = [[text(value) for value in row] for row in expected]
                assert doc["grids"][grid.metric] == texts
                header, *rows = csv.reader(io.StringIO("".join(grid_csv_chunks(grid))))
                assert header == ["group", *names]
                assert rows == [[gi, *row] for gi, row in zip(names, texts)]
                assert heatmap_cells(grid) == [
                    reference_heatmap_cell(grid.metric, value) for row in expected for value in row
                ]


def heatmap_cells(grid) -> list[tuple[str, str]]:
    # each SVG cell's text and fill, row by row
    root = ElementTree.fromstring("".join(heatmap_chunks(grid)))
    fills = [el.get("fill") for el in root.iter() if el.get("class") == "cell"]
    texts = [el.text for el in root.iter() if el.get("class") == "cell-value"]
    return list(zip(texts, fills, strict=True))


def reference_heatmap_cell(metric: str, value) -> tuple[str, str]:
    # the heatmap's rule as it was written per Fraction: a float position
    # on the diverging palette, clamped at its edges, and the text rounded
    # from the exact value
    if metric == "di":
        value = value.value
    if value is None:
        return "undef", "url(#undef-hatch)"
    center, span = (1.0, 1.0) if metric == "di" else (0.0, 2.0)
    t = max(-1.0, min(1.0, (value.numerator / value.denominator - center) / span))
    edge, t = (LOW_COLOR, -t) if t < 0 else (HIGH_COLOR, t)
    rgb = [round(m + (e - m) * t) for m, e in zip(rgb_of(MID_COLOR), rgb_of(edge))]
    return format_fixed(value, 2), "#{:02x}{:02x}{:02x}".format(*rgb)


def rgb_of(color: str) -> list[int]:
    return [int(color[k:k + 2], 16) for k in (1, 3, 5)]


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


def fraction_diagnosis(ofi_value, di_verdict, threshold):
    # the paper's three-way reading of a pair: |OFI| past the threshold is
    # algorithmic bias, else a DI flag is systemic disparity
    if abs(ofi_value) > threshold:
        return Diagnosis.ALGORITHMIC_BIAS
    if di_verdict in (BiasVerdict.BIAS_TOWARD_FIRST, BiasVerdict.BIAS_TOWARD_SECOND):
        return Diagnosis.SYSTEMIC_DISPARITY
    return Diagnosis.NO_FINDING


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
    @example((GroupTable(ON_EDGE_HUGE, total_of(ON_EDGE_HUGE.values())), AuditConfig()))
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
            assert p.diagnosis == fraction_diagnosis(ofi_value, p.di_verdict, threshold)
            assert p.ofi_verdict == fraction_verdict(ofi_value, -threshold, threshold)
            assert p.di_verdict == fraction_verdict(di.value, low, high)


class TestDiagnose:
    def test_truth_table(self):
        threshold = Fraction(3, 10)
        ofi_values = [Fraction(0), Fraction(3, 10), Fraction(-3, 10),
                      Fraction(2, 5), Fraction(-2, 5), Fraction(2), Fraction(-2)]
        for ofi_value, di_verdict in itertools.product(ofi_values, BiasVerdict):
            got = _diagnosis(ofi_verdict(ofi_value, threshold), di_verdict)
            assert got is fraction_diagnosis(ofi_value, di_verdict, threshold)

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
        # every rational is its exact text, with no float beside it
        assert json.loads(text)["grids"]["ofi"][0][1] == "30/133"
        assert "approx" not in text and "." not in text

    def test_round_trip(self):
        report = build_report(table_from(SCENARIO_B))
        text = serialize_report(report)
        assert parse_report(text) == report
        # a pair carries verdicts only; its values live in the grids
        doc = json.loads(text)
        assert doc["schema"] == 2
        for pair, finding in zip(doc["pairs"], report.pairs, strict=True):
            assert pair == [finding.first, finding.second, finding.ofi_verdict.value,
                            finding.di_verdict.value, finding.diagnosis.value]

    def test_rejects_other_schemas(self):
        doc = json.loads(serialize_report(build_report(table_from(SCENARIO_A))))
        del doc["schema"]
        with pytest.raises(ValueError, match="schema must be 2, got None"):
            parse_report(json.dumps(doc))
        doc["schema"] = 1
        with pytest.raises(ValueError, match="schema must be 2, got 1"):
            parse_report(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["grids"]["ofi"][0].__setitem__(1, "1/19"),
         "report ofi grid cell ('i', 'j') is '1/19', but the group metrics give '-1/18'"),
        (lambda doc: doc["grids"]["di"][1].__setitem__(0, "3/8"),
         "report di grid cell ('j', 'i') is '3/8', but the group metrics give '8/3'"),
        (lambda doc: doc["pairs"][1].__setitem__(3, "no_bias_indicated"),
         "report pair 1 is ['j', 'i', 'no_bias_indicated', 'no_bias_indicated', "
         "'systemic_disparity'], but the group metrics give ['j', 'i', 'no_bias_indicated', "
         "'bias_toward_first', 'systemic_disparity']"),
    ], ids=["ofi-cell", "di-cell", "pair-verdict"])
    def test_rejects_grids_and_pairs_the_group_metrics_do_not_give(self, edit, message):
        # both are derived from the group metrics and the config on read,
        # so an edited cell or verdict would otherwise be silently rewritten
        doc = json.loads(serialize_report(build_report(table_from(SCENARIO_A))))
        edit(doc)
        with pytest.raises(ValueError) as raised:
            parse_report(json.dumps(doc))
        assert str(raised.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc.update(
            group_order=["a"], grids={"di": [["1"]], "ofi": [["0"]]}, pairs=[],
            group_metrics={"a": doc["group_metrics"]["a"]},
        ), "pairwise ofi needs at least 2 groups, have 1"),
        (lambda doc: doc["group_order"].__setitem__(1, "c"), "unknown group 'c'"),
        (lambda doc: doc["group_order"].__setitem__(1, "a"), "duplicate group 'a' in group order"),
        (lambda doc: doc["group_metrics"].__setitem__("k", doc["group_metrics"]["a"]),
         "report has group metrics for groups not in its order: ['k']"),
        (lambda doc: doc["group_metrics"]["a"].__setitem__("expected_benefit", "1/3"),
         "report group 'a' has expected_benefit 1/3, but benefit - marginal_benefit is 1"),
    ], ids=["one-group", "unknown-group", "duplicate-group", "extra-group-metrics",
            "expected-benefit"])
    def test_rejects_group_orders_and_metrics_build_report_would_not_give(self, edit, message):
        # group a has benefit 1 and marginal benefit 0, so expected benefit 1
        table = table_from({"a": BinaryConfusion(1, 0, 0, 0), "b": BinaryConfusion(1, 0, 0, 1)})
        doc = json.loads(serialize_report(build_report(table)))
        edit(doc)
        with pytest.raises(ValueError) as raised:
            parse_report(json.dumps(doc))
        assert str(raised.value) == message

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


def di_text(di: DiScore) -> str:
    if di.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR:
        return "undef"
    if di.kind is DiKind.CONTEXTUAL_ONE:
        return "1 (contextual)"
    return str(di.value)


def reference_doc(report) -> dict:
    # the report as one nested document, laid out by the json module
    config = report.config
    return {
        "schema": 2,
        "dataset": {
            "record_count": report.record_count,
            "group_sizes": dict(report.group_sizes),
        },
        "config": {
            "ofi_threshold": str(config.ofi_threshold),
            "di_low": str(config.di_low),
            "di_high": str(config.di_high),
            "group_order": None if config.group_order is None else list(config.group_order),
        },
        "group_order": list(report.ofi_grid.group_order),
        "group_metrics": {
            name: {
                "benefit": str(gm.benefit),
                "expected_benefit": str(gm.expected_benefit),
                "marginal_benefit": str(gm.marginal_benefit),
            }
            for name, gm in report.group_metrics.items()
        },
        "grids": {
            "ofi": [[str(v) for v in row] for row in report.ofi_grid.cells],
            "di": [[di_text(v) for v in row] for row in report.di_grid.cells],
        },
        "pairs": [
            [p.first, p.second, p.ofi_verdict.value, p.di_verdict.value, p.diagnosis.value]
            for p in report.pairs
        ],
    }


@st.composite
def named_audits(draw):
    names = draw(st.lists(st.text(), min_size=2, max_size=6, unique=True))
    cms = draw(st.lists(group_cms, min_size=len(names), max_size=len(names)))
    table = GroupTable(groups=dict(zip(names, cms)), total=total_of(cms))
    order = tuple(draw(st.permutations(names)))
    order = order[: draw(st.integers(min_value=2, max_value=len(order)))]
    low, high = sorted(draw(st.lists(edges, min_size=2, max_size=2)))
    return build_report(table, AuditConfig(draw(edges), low, high, draw(st.sampled_from([None, order]))))


class TestReportLayout:
    """The streamed report is the json module's indent=2, sorted-key text,
    and parse_report reads it back to the same report."""

    @settings(max_examples=150, deadline=None)
    @given(named_audits())
    @example(build_report(table_from(ZERO_RATES)))
    def test_matches_the_json_module(self, report):
        expected = json.dumps(reference_doc(report), indent=2, sort_keys=True) + "\n"
        text = serialize_report(report)
        assert text == expected
        assert parse_report(text) == report


class TestGridCsv:
    def test_layout_and_exact_cells(self):
        report = build_report(table_from(SCENARIO_A))
        ofi_csv = "".join(grid_csv_chunks(report.ofi_grid))
        assert ofi_csv.splitlines()[0] == "group,i,j"
        assert ofi_csv.splitlines()[1] == "i,0,-1/18"
        di_csv = "".join(grid_csv_chunks(report.di_grid))
        assert di_csv.splitlines()[1] == "i,1,3/8"

    def test_undefined_and_contextual_cells(self):
        table = table_from(
            {"i": BinaryConfusion(1, 0, 0, 5), "j": BinaryConfusion(0, 7, 0, 11)}
        )
        di_csv = "".join(grid_csv_chunks(build_report(table).di_grid))
        assert "undef" in di_csv
        assert "1 (contextual)" in di_csv
