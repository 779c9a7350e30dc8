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
from reference import heatmap_cell_loops

from ofi_audit.audit import (
    AuditConfig,
    Diagnosis,
    InsufficientGroupsError,
    _diagnosis,
    _verdict_rows,
    build_report,
    grid_csv_chunks,
    parse_report,
    serialize_report,
)
from ofi_audit.heatmap import heatmap_chunks
from ofi_audit.ingestion import GroupTable, PredictionRecord, aggregate
from ofi_audit.metrics import (
    BiasVerdict,
    BinaryConfusion,
    DiKind,
    DiScore,
    benefit,
    di_rule,
    disparate_impact,
    four_fifths_verdict,
    marginal_benefit,
    ofi,
    ofi_rule,
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
        assert [[Fraction(x, y) for x, y in row] for row in grid.integer_rows()] == [
            [Fraction(0), Fraction(-1, 18)],
            [Fraction(1, 18), Fraction(0)],
        ]

    def test_di_grid_scenario_a(self):
        _, grid = grids(table_from(SCENARIO_A))
        # every cell finite: y > 0
        assert [[Fraction(x, y) for x, y in row] for row in grid.integer_rows()] == [
            [Fraction(1), Fraction(3, 8)],
            [Fraction(8, 3), Fraction(1)],
        ]

    def test_identical_groups_give_zero_ofi_grid(self):
        cm = BinaryConfusion(2, 1, 1, 4)
        grid, _ = grids(table_from({"a": cm, "b": cm, "c": cm}))
        assert all(x == 0 for row in grid.integer_rows() for x, _ in row)

    def test_caller_order(self):
        grid, _ = grids(table_from(SCENARIO_A), ("j", "i"))
        assert Fraction(*next(grid.integer_rows())[1]) == Fraction(1, 18)

    def test_antisymmetry_and_reciprocity(self):
        table = table_from(
            {
                "a": BinaryConfusion(3, 1, 2, 4),
                "b": BinaryConfusion(0, 2, 5, 3),
                "c": BinaryConfusion(1, 1, 1, 1),
            }
        )
        ofi_grid, di_grid = grids(table)
        ofi_rows, di_rows = list(ofi_grid.integer_rows()), list(di_grid.integer_rows())
        size = len(ofi_rows)
        for i in range(size):
            assert ofi_rows[i][i][0] == 0
            for j in range(size):
                assert Fraction(*ofi_rows[i][j]) == -Fraction(*ofi_rows[j][i])
                (x, y), (x_back, y_back) = di_rows[i][j], di_rows[j][i]
                if y and y_back:  # both finite
                    assert Fraction(x, y) * Fraction(x_back, y_back) == 1

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
    return GroupTable(groups), order


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
            ),
            ("c", "a", "b"),
        )
    )
    @example((GroupTable(ON_EDGE_HUGE),
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
                rows = grid.integer_rows()
                if grid.metric == "ofi":
                    got = [[Fraction(x, y) for x, y in row] for row in rows]
                else:
                    # y = 0 is undefined, or the contextual 1 when x = 0 too
                    got = [[DiScore.finite(Fraction(x, y)) if y else DiScore.contextual_one()
                            if x == 0 else DiScore.zero_denominator() for x, y in row]
                           for row in rows]
                assert got == expected
                texts = [[text(value) for value in row] for row in expected]
                assert doc["grids"][grid.metric] == texts
                header, *rows = csv.reader(io.StringIO("".join(grid_csv_chunks(grid))))
                assert header == ["group", *names]
                assert rows == [[gi, *row] for gi, row in zip(names, texts)]
                assert heatmap_cells(grid) == [
                    reference_heatmap_cell(grid.metric, value) for row in expected for value in row
                ]


def heatmap_cells(grid) -> list[tuple[str, str, str]]:
    # each SVG cell's fill, text color and text, row by row
    root = ElementTree.fromstring("".join(heatmap_chunks(grid)))
    rects = [el for el in root.iter() if el.get("class") == "cell"]
    texts = [el for el in root.iter() if el.get("class") == "cell-value"]
    return [(rect.get("fill"), text.get("fill"), text.text)
            for rect, text in zip(rects, texts, strict=True)]


def reference_heatmap_cell(metric: str, value) -> tuple[str, str, str]:
    # the one-cell reference rule, given a two-group function's value as
    # the heatmap's integer pair: a DI with no value is 0/0 when
    # contextual, else 1/0
    if metric == "di":
        if value.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR:
            return heatmap_cell_loops(metric, 1, 0)
        if value.kind is DiKind.CONTEXTUAL_ONE:
            return heatmap_cell_loops(metric, 0, 0)
        value = value.value
    return heatmap_cell_loops(metric, value.numerator, value.denominator)


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
    """_verdict_rows' integer verdicts agree with the Fraction functions."""

    @settings(max_examples=200, deadline=None)
    @given(audits())
    @example((table_from(ON_EDGE), AuditConfig()))
    @example((table_from(ON_WIDE_EDGE), AuditConfig(Fraction(1, 4), Fraction(1, 2), 2)))
    @example((table_from(ZERO_RATES), AuditConfig()))
    @example((GroupTable(ON_EDGE_HUGE), AuditConfig()))
    def test_every_pair_equals_the_fraction_verdicts(self, case):
        table, config = case
        threshold, low, high = config.ofi_threshold, config.di_low, config.di_high
        report = build_report(table, config)
        names = report.ofi_grid.group_order
        rows = list(_verdict_rows(report))
        # every ordered pair of distinct groups, row by row of the grids
        assert [(first, [second for second, _, _ in row]) for first, row in rows] == [
            (gi, [gj for gj in names if gj != gi]) for gi in names
        ]
        for first, row in rows:
            for second, ofi_v, di_v in row:
                cm_i, cm_j = table.groups[first], table.groups[second]
                ofi_value, di = ofi(cm_i, cm_j), disparate_impact(cm_i, cm_j)
                assert ofi_v == ofi_verdict(ofi_value, threshold)
                assert di_v == four_fifths_verdict(di, low, high)
                assert _diagnosis(ofi_v, di_v) == fraction_diagnosis(ofi_value, di_v, threshold)
                assert ofi_v == fraction_verdict(ofi_value, -threshold, threshold)
                assert di_v == fraction_verdict(di.value, low, high)


# small cells: tied scores and zero benefits are common
small_cms = st.builds(BinaryConfusion, *[st.integers(min_value=0, max_value=3)] * 4).filter(
    lambda cm: cm.n > 0
)


@st.composite
def ranked_audits(draw):
    """A table with repeated groups, and a config whose threshold and band
    edges are drawn from the table's own cells as often as not, so that an
    edge equals a cell value exactly."""
    cms = draw(st.lists(small_cms, min_size=2, max_size=7))
    cms += draw(st.lists(st.sampled_from(cms), max_size=3))
    names = tuple(f"g{k}" for k in range(len(cms)))
    marginals = [marginal_benefit(cm) for cm in cms]
    benefits = [benefit(cm) for cm in cms]
    ofi_cells = sorted({abs(a - b) for a in marginals for b in marginals} - {0})
    di_cells = sorted({a / b for a in benefits for b in benefits if a and b})
    threshold = draw(st.one_of(edges, st.sampled_from([*ofi_cells, Fraction(3, 10)])))
    low, high = sorted(draw(st.lists(
        st.one_of(edges, st.sampled_from([*di_cells, Fraction(11, 10), Fraction(2)])),
        min_size=2, max_size=2,
    )))
    order = tuple(draw(st.permutations(names)))
    return GroupTable(dict(zip(names, cms))), AuditConfig(threshold, low, high, order)


class TestVerdictsByRank:
    """_verdict_rows decides each pair by rank as the integer rules decide
    it on the pair's grid cells."""

    @settings(max_examples=200, deadline=None)
    @given(ranked_audits())
    # ties, zero benefits on either side of a pair, and a DI band that
    # excludes 1, so that a contextual 1 is flagged
    @example((table_from({"a": BinaryConfusion(0, 1, 0, 1), "b": BinaryConfusion(0, 2, 0, 2),
                          "c": BinaryConfusion(1, 0, 1, 2), "d": BinaryConfusion(1, 0, 1, 2)}),
              AuditConfig(Fraction(1, 4), Fraction(11, 10), Fraction(2))))
    # OFI 1/2 against the threshold 1/2, DI 1/2 and 2 against the band [1/2, 2]
    @example((table_from({"a": BinaryConfusion(1, 0, 0, 1), "b": BinaryConfusion(0, 0, 1, 0),
                          "c": BinaryConfusion(0, 1, 0, 1)}),
              AuditConfig(Fraction(1, 2), Fraction(1, 2), Fraction(2))))
    def test_every_pair_equals_the_integer_rules(self, case):
        table, config = case
        report = build_report(table, config)
        names = report.ofi_grid.group_order
        rows = zip(names, report.ofi_grid.integer_rows(), report.di_grid.integer_rows())
        assert list(_verdict_rows(report)) == [
            (first, [
                (second, ofi_rule(ofi_x, ofi_y, config.ofi_threshold),
                 di_rule(di_x, di_y, config.di_low, config.di_high))
                for j, (second, (ofi_x, ofi_y), (di_x, di_y))
                in enumerate(zip(names, ofi_row, di_row)) if j != i
            ])
            for i, (first, ofi_row, di_row) in enumerate(rows)
        ]


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
        # the (a, b) cell of each grid, and that pair's verdicts
        assert Fraction(*next(report.ofi_grid.integer_rows())[1]) == 0
        assert Fraction(*next(report.di_grid.integer_rows())[1]) == 3
        [(_, ofi_v, di_v)] = next(_verdict_rows(report))[1]
        assert _diagnosis(ofi_v, di_v) is Diagnosis.SYSTEMIC_DISPARITY


class TestBuildReport:
    def test_scenario_b_threshold_sensitivity(self):
        table = table_from(SCENARIO_B)
        default = build_report(table)
        # the (i, j) cell of each grid, and that pair's verdicts
        assert Fraction(*next(default.ofi_grid.integer_rows())[1]) == Fraction(4, 18)
        assert next(default.di_grid.integer_rows())[1] == (0, 0)  # the contextual 1
        [(_, ofi_v, di_v)] = next(_verdict_rows(default))[1]
        assert _diagnosis(ofi_v, di_v) is Diagnosis.NO_FINDING

        lowered = build_report(table, AuditConfig(ofi_threshold=Fraction(1, 5)))
        [(_, ofi_v, di_v)] = next(_verdict_rows(lowered))[1]
        assert _diagnosis(ofi_v, di_v) is Diagnosis.ALGORITHMIC_BIAS

    def test_identical_groups_no_finding(self):
        cm = BinaryConfusion(2, 2, 2, 2)
        report = build_report(table_from({"a": cm, "b": cm, "c": cm}))
        assert all(_diagnosis(ofi_v, di_v) is Diagnosis.NO_FINDING
                   for _, row in _verdict_rows(report) for _, ofi_v, di_v in row)

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
        pairs = [(first, second) for first, row in _verdict_rows(report) for second, _, _ in row]
        assert sorted(pairs) == sorted(
            (a, b) for a in "abc" for b in "abc" if a != b
        )

    def test_verdicts_recompute_from_grid_and_config(self):
        report = build_report(table_from(SCENARIO_A))
        config, names = report.config, report.ofi_grid.group_order
        grid_rows = zip(report.ofi_grid.integer_rows(), report.di_grid.integer_rows())
        for (_, row), (ofi_row, di_row) in zip(_verdict_rows(report), grid_rows, strict=True):
            for second, ofi_v, di_v in row:
                j = names.index(second)
                assert ofi_v == ofi_verdict(Fraction(*ofi_row[j]), config.ofi_threshold)
                # every DI cell of scenario A is finite
                assert di_v == four_fifths_verdict(
                    DiScore.finite(Fraction(*di_row[j])), config.di_low, config.di_high
                )

    def test_summary_fields(self):
        report = build_report(table_from(SCENARIO_A))
        assert report.record_count == 24
        assert report.group_sizes == {"i": 6, "j": 18}
        assert report.group_metrics["j"].benefit == Fraction(8, 18)
        # record_count counts every group, group_sizes only those in order
        subset = build_report(table_from({**SCENARIO_A, "k": BinaryConfusion(2, 1, 1, 2)}),
                              AuditConfig(group_order=("j", "i")))
        assert subset.record_count == 30
        assert subset.group_sizes == {"j": 18, "i": 6}
        assert parse_report(serialize_report(subset)) == subset


SECTIONS = ("config", "dataset", "grids", "group_metrics", "group_order", "pairs", "schema")


def without(section: str):
    return lambda doc: {key: value for key, value in doc.items() if key != section}


def with_counts(counts):
    # group i's confusion entry replaced by counts
    def edit(doc):
        doc["dataset"]["confusion"]["i"] = counts
        return doc
    return edit


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
        assert doc["schema"] == 3
        assert doc["dataset"]["confusion"] == {"i": [0, 1, 0, 5], "j": [0, 7, 0, 11]}
        assert doc["pairs"] == [
            [first, second, ofi_v.value, di_v.value, _diagnosis(ofi_v, di_v).value]
            for first, row in _verdict_rows(report) for second, ofi_v, di_v in row
        ]

    def test_rejects_other_schemas(self):
        doc = json.loads(serialize_report(build_report(table_from(SCENARIO_A))))
        del doc["schema"]
        with pytest.raises(ValueError, match="schema must be 3, got None"):
            parse_report(json.dumps(doc))
        doc["schema"] = 2
        with pytest.raises(ValueError, match="schema must be 3, got 2"):
            parse_report(json.dumps(doc))

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["grids"]["ofi"][0].__setitem__(1, "1/19"),
         """report line 43 is '        "1/19"', """
         """but its counts and config give '        "-1/18"'"""),
        (lambda doc: doc["grids"]["di"][1].__setitem__(0, "3/8"),
         """report line 36 is '        "3/8",', but its counts and config give '        "8/3",'"""),
        (lambda doc: doc["pairs"][1].__setitem__(3, "no_bias_indicated"),
         """report line 79 is '      "no_bias_indicated",', """
         """but its counts and config give '      "bias_toward_first",'"""),
        (lambda doc: doc["group_metrics"].__setitem__("k", doc["group_metrics"]["i"]),
         "report line 61 is '    },', but its counts and config give '    }'"),
        (lambda doc: doc["group_metrics"]["i"].__setitem__("expected_benefit", "1/3"),
         """report line 54 is '      "expected_benefit": "1/3",', """
         """but its counts and config give '      "expected_benefit": "1/6",'"""),
        (lambda doc: doc["dataset"].__setitem__("record_count", 25),
         """report line 27 is '    "record_count": 25', """
         """but its counts and config give '    "record_count": 24'"""),
        (lambda doc: doc["dataset"]["group_sizes"].__setitem__("i", 7),
         """report line 24 is '      "i": 7,', but its counts and config give '      "i": 6,'"""),
    ], ids=["ofi-cell", "di-cell", "pair-verdict", "extra-group-metrics", "expected-benefit",
            "record-count", "group-sizes"])
    def test_rejects_lines_the_counts_and_config_do_not_give(self, edit, message):
        # every field but the counts and the config is derived from them on
        # read, so an edited one would otherwise be silently rewritten
        doc = json.loads(serialize_report(build_report(table_from(SCENARIO_A))))
        edit(doc)
        with pytest.raises(ValueError) as raised:
            parse_report(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert str(raised.value) == message

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: doc["config"].__setitem__("group_order", ["a"]),
         "pairwise ofi needs at least 2 groups, have 1"),
        (lambda doc: doc["dataset"]["confusion"].pop("b"),
         "pairwise ofi needs at least 2 groups, have 1"),
        (lambda doc: doc["dataset"]["confusion"].__setitem__("b", [0, 0, 0, 0]),
         "group 'b' has no observations (n=0)"),
        (lambda doc: doc["config"].__setitem__("group_order", ["a", "c"]), "unknown group 'c'"),
        (lambda doc: doc["config"].__setitem__("group_order", ["a", "a"]),
         "duplicate group 'a' in group order"),
        # build_report lays the groups out in the config's order, so the
        # top-level order ["a", "b"] no longer matches
        (lambda doc: doc["config"].__setitem__("group_order", ["b", "a"]),
         """report line 36 is '        "2"', but its counts and config give '        "1/2"'"""),
    ], ids=["one-group", "one-counted-group", "empty-group", "unknown-group", "duplicate-group",
            "config-order-disagrees"])
    def test_rejects_group_orders_build_report_would_not_give(self, edit, message):
        table = table_from({"a": BinaryConfusion(1, 0, 0, 0), "b": BinaryConfusion(1, 0, 0, 1)})
        doc = json.loads(serialize_report(build_report(table)))
        edit(doc)
        with pytest.raises(ValueError) as raised:
            parse_report(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        assert str(raised.value) == message

    def test_rejects_another_layout_of_the_same_document(self):
        text = serialize_report(build_report(table_from(SCENARIO_A)))
        doc = json.loads(text)
        with pytest.raises(ValueError) as raised:
            parse_report(json.dumps(doc, indent=4, sort_keys=True) + "\n")
        assert str(raised.value) == (
            """report line 2 is '    "config": {', but its counts and config give '  "config": {'"""
        )
        with pytest.raises(ValueError) as raised:
            parse_report(text.rstrip("\n"))
        assert str(raised.value) == "report line 85 is None, but its counts and config give ''"

    @pytest.mark.parametrize("edit", [
        *map(without, SECTIONS),
        lambda doc: [],
        lambda doc: None,
        lambda doc: 3,
        lambda doc: "report",
        with_counts([1, 0, 0]),
        with_counts([1, 0, 0, 5, 0]),
        with_counts(None),
        with_counts("1005"),
        with_counts(["1", 0, 0, 5]),
        with_counts([1.5, 0, 0, 5]),
        with_counts({"tp": 1}),
        lambda doc: doc["dataset"].__setitem__("confusion", []) or doc,
        lambda doc: doc.__setitem__("dataset", []) or doc,
        lambda doc: doc.__setitem__("config", []) or doc,
        lambda doc: doc["config"].__setitem__("ofi_threshold", None) or doc,
        lambda doc: doc["config"].__setitem__("ofi_threshold", float("inf")) or doc,
        lambda doc: doc["config"].__setitem__("group_order", 2) or doc,
        lambda doc: doc["config"].__setitem__("group_order", [["i"], "j"]) or doc,
    ], ids=[*(f"no-{section}" for section in SECTIONS),
            "list", "null", "number", "string", "counts-short", "counts-long", "counts-null",
            "counts-string", "count-string", "count-float", "counts-object",
            "confusion-list", "dataset-list", "config-list", "threshold-null", "threshold-infinity",
            "group-order-number", "group-order-nested"])
    def test_malformed_report_raises_value_error(self, edit):
        doc = edit(json.loads(serialize_report(build_report(table_from(SCENARIO_A)))))
        with pytest.raises(ValueError):
            parse_report(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def test_round_trip_zero_denominator(self):
        table = table_from(
            {"i": BinaryConfusion(1, 0, 0, 5), "j": BinaryConfusion(0, 7, 0, 11)}
        )
        report = build_report(table)
        # an undefined DI cell: a zero denominator under a nonzero numerator
        assert any(y == 0 and x != 0 for row in report.di_grid.integer_rows() for x, y in row)
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


def reference_pair(first: str, second: str, groups, config) -> list[str]:
    # a pair's verdicts and diagnosis, from the Fraction functions
    ofi_value = ofi(groups[first], groups[second])
    ofi_v = ofi_verdict(ofi_value, config.ofi_threshold)
    di_v = four_fifths_verdict(disparate_impact(groups[first], groups[second]),
                               config.di_low, config.di_high)
    diagnosis = fraction_diagnosis(ofi_value, di_v, config.ofi_threshold)
    return [first, second, ofi_v.value, di_v.value, diagnosis.value]


def reference_doc(report) -> dict:
    # the report as one nested document, laid out by the json module: the
    # counts of every group of the table, and the sizes of those in order;
    # the grids and pairs come from the two-group Fraction functions
    config = report.config
    groups = report.table.groups
    names = report.ofi_grid.group_order
    return {
        "schema": 3,
        "dataset": {
            "confusion": {name: [cm.tp, cm.fn, cm.fp, cm.tn] for name, cm in groups.items()},
            "record_count": sum(cm.n for cm in groups.values()),
            "group_sizes": {name: groups[name].n for name in report.ofi_grid.group_order},
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
            "ofi": [[str(ofi(groups[a], groups[b])) for b in names] for a in names],
            "di": [[di_text(disparate_impact(groups[a], groups[b])) for b in names]
                   for a in names],
        },
        "pairs": [reference_pair(a, b, groups, config) for a in names for b in names if a != b],
    }


@st.composite
def named_audits(draw):
    names = draw(st.lists(st.text(), min_size=2, max_size=6, unique=True))
    cms = draw(st.lists(group_cms, min_size=len(names), max_size=len(names)))
    table = GroupTable(dict(zip(names, cms)))
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

    def test_names_are_quoted_as_a_csv_writer_quotes_each_row(self):
        # the reference writes whole rows; an empty name is written empty,
        # a CR only in quotes, and every line ends in LF alone
        names = ["", " sp ", 'q"uote', "a,b", "cr\rx", "lf\nx", "crlf\r\nx", "\u00e9"]
        report = build_report(
            GroupTable({name: BinaryConfusion(k + 1, k, 1, 2) for k, name in enumerate(names)})
        )
        for grid in (report.ofi_grid, report.di_grid):
            lines = []
            for row in [["group", *grid.group_order],
                        *([name, *cells] for name, cells in zip(grid.group_order, grid._text_rows()))]:
                buffer = io.StringIO()
                csv.writer(buffer, lineterminator="\r\n").writerow(row)
                lines.append(buffer.getvalue()[:-2] + "\n")
            assert "".join(grid_csv_chunks(grid)) == "".join(lines)
