"""Structural checks on the SVG heatmap output."""

import math
import re
from fractions import Fraction
from xml.etree import ElementTree

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import heatmap_cell_loops

from ofi_audit.audit import PairwiseMatrix, build_report
from ofi_audit.heatmap import HIGH_COLOR, LOW_COLOR, MID_COLOR, STEPS, heatmap_chunks
from ofi_audit.ingestion import GroupTable, PredictionRecord, aggregate
from ofi_audit.metrics import BinaryConfusion, DiScore


def two_group_table(i_cm: BinaryConfusion, j_cm: BinaryConfusion):
    records = []
    for name, cm in (("i", i_cm), ("j", j_cm)):
        records += [PredictionRecord(name, 1, 1)] * cm.tp
        records += [PredictionRecord(name, 1, 0)] * cm.fn
        records += [PredictionRecord(name, 0, 1)] * cm.fp
        records += [PredictionRecord(name, 0, 0)] * cm.tn
    return aggregate(records)


REPORT = build_report(
    two_group_table(BinaryConfusion(1, 0, 0, 5), BinaryConfusion(7, 0, 1, 10))
)
UNDEFINED_DI = build_report(
    two_group_table(BinaryConfusion(1, 0, 0, 5), BinaryConfusion(0, 7, 0, 11))
).di_grid
SVG = "{http://www.w3.org/2000/svg}"


def render(grid: PairwiseMatrix) -> str:
    return "".join(heatmap_chunks(grid))


def svg_elements(svg: str, cls: str) -> list:
    root = ElementTree.fromstring(svg)
    return [el for el in root.iter() if el.get("class") == cls]


def test_two_by_two_structure():
    svg = render(REPORT.ofi_grid)
    assert len(svg_elements(svg, "cell")) == 4
    assert len(svg_elements(svg, "axis-label")) == 4
    assert len(svg_elements(svg, "cell-value")) == 4
    labels = {el.text for el in svg_elements(svg, "axis-label")}
    assert labels == {"i", "j"}


def test_values_rendered_at_two_places():
    svg = render(REPORT.ofi_grid)
    values = {el.text for el in svg_elements(svg, "cell-value")}
    assert values == {"0.00", "-0.06", "0.06"}


def test_zero_ofi_cell_uses_center_color():
    svg = render(REPORT.ofi_grid)
    diagonal_fills = [
        el.get("fill")
        for el in svg_elements(svg, "cell")
        if el.get("x") == el.get("y")  # diagonal cells sit at equal offsets
    ]
    assert MID_COLOR in diagonal_fills


def test_di_centers_at_one():
    svg = render(REPORT.di_grid)
    fills = [el.get("fill") for el in svg_elements(svg, "cell")]
    assert fills.count(MID_COLOR) == 2  # the two diagonal DI = 1 cells


def test_undefined_di_is_hatched():
    svg = render(UNDEFINED_DI)
    assert 'url(#undef-hatch)' in svg
    assert "undef" in {el.text for el in svg_elements(svg, "cell-value")}


def test_extreme_values_clamp_to_palette_edges():
    # marginal benefits 1 and -1 give the OFI cells 2 and -2
    grid = PairwiseMatrix(metric="ofi", group_order=("a", "b"), scores=(Fraction(1), Fraction(-1)))
    assert [[Fraction(x, y) for x, y in row] for row in grid.integer_rows()] == [[0, 2], [-2, 0]]
    svg = render(grid)
    fills = {el.get("fill") for el in svg_elements(svg, "cell")}
    assert HIGH_COLOR in fills and LOW_COLOR in fills


def test_di_past_the_float_range_takes_the_high_edge():
    # a's rate is 1 and b's 1/(10^400 + 1): a DI of 10^400 + 1 has no float
    table = GroupTable({
        "a": BinaryConfusion(10**400, 0, 0, 0), "b": BinaryConfusion(1, 0, 0, 10**400)
    })
    cells = svg_elements(render(build_report(table).di_grid), "cell")
    assert [el.get("fill") for el in cells] == [MID_COLOR, HIGH_COLOR, LOW_COLOR, MID_COLOR]


def test_empty_matrix_rejected():
    empty = PairwiseMatrix(metric="ofi", group_order=(), scores=())
    with pytest.raises(ValueError):
        render(empty)


def test_deterministic_output():
    assert render(REPORT.di_grid) == render(REPORT.di_grid)


def test_contextual_di_renders_as_one():
    table = two_group_table(BinaryConfusion(0, 1, 0, 5), BinaryConfusion(0, 7, 0, 11))
    svg = render(build_report(table).di_grid)
    values = [el.text for el in svg_elements(svg, "cell-value")]
    assert values.count("1.00") == 4  # diagonal plus both contextual cells


def test_group_names_are_escaped():
    table = aggregate(
        [
            PredictionRecord("a<b", 1, 1), PredictionRecord("a<b", 0, 0),
            PredictionRecord("c&d", 1, 1), PredictionRecord("c&d", 0, 1),
        ]
    )
    svg = render(build_report(table).ofi_grid)
    ElementTree.fromstring(svg)  # parses only if escaping is correct
    assert "a&lt;b" in svg and "c&amp;d" in svg


def test_greater_than_and_carriage_return_are_escaped():
    grid = PairwiseMatrix(metric="ofi", group_order=("a>b", "c\rd"), scores=(Fraction(0),) * 2)
    svg = render(grid)
    assert ">a&gt;b</text>" in svg and ">c&#13;d</text>" in svg
    labels = [el.text for el in svg_elements(svg, "axis-label")]
    assert labels == ["a>b", "c\rd"] * 2  # a literal CR would parse back as LF


@pytest.mark.parametrize("grid", [REPORT.ofi_grid, REPORT.di_grid, UNDEFINED_DI],
                         ids=["ofi", "di", "undefined-di"])
def test_each_element_carries_only_what_varies(grid):
    svg = render(grid)
    for el in svg_elements(svg, "cell"):
        assert sorted(el.attrib) == ["class", "fill", "height", "width", "x", "y"]
    for el in svg_elements(svg, "cell-value"):
        assert sorted(el.attrib) == ["class", "fill", "x", "y"]
    # the hatch pattern in <defs> keeps its own stroke; nothing else styles itself
    styled = [
        (el.tag, name)
        for child in ElementTree.fromstring(svg) if child.tag != f"{SVG}defs"
        for el in child.iter()
        for name in el.attrib if name.startswith(("font-", "text-anchor", "stroke"))
    ]
    assert styled == []


def resolved(svg: str) -> list[tuple[str, dict[str, str], str]]:
    """Each classed element's tag, attributes and text once the <style>
    sheet is applied: the type rule first, then the class rules, which
    win; a length of n px is n user units."""
    root = ElementTree.fromstring(svg)
    rules = re.findall(r"(\S+) \{ ([^}]*) \}", root.find(f"{SVG}style").text)
    out = []
    for el in root.iter():
        if el.get("class") is None:
            continue
        attrs = dict(el.attrib)
        for selector, body in sorted(rules, key=lambda rule: rule[0].startswith(".")):
            if selector in (el.tag[len(SVG):], "." + el.get("class")):
                for declaration in body.split("; "):
                    name, value = declaration.split(": ")
                    attrs[name] = re.sub(r"^(\d+)px$", r"\1", value)
        out.append((el.tag[len(SVG):], attrs, el.text))
    return out


FONT = {"font-family": "Helvetica, Arial, sans-serif", "font-size": "12"}


def written_before(title: str, cells: list[tuple]) -> list[tuple[str, dict[str, str], str]]:
    """The classed elements of a 2x2 grid, with each attribute as the
    element itself carried it before the stylesheet."""
    elements = [
        ("text", {"class": "title", "x": "120", "y": "18", **FONT, "font-size": "14",
                  "font-weight": "bold"}, title),
        ("text", {"class": "axis-label", "x": "152.0", "y": "112", **FONT, "text-anchor": "end",
                  "transform": "rotate(-40 152.0 112)"}, "i"),
        ("text", {"class": "axis-label", "x": "216.0", "y": "112", **FONT, "text-anchor": "end",
                  "transform": "rotate(-40 216.0 112)"}, "j"),
        ("text", {"class": "axis-label", "x": "112", "y": "156.0", **FONT, "text-anchor": "end"}, "i"),
        ("text", {"class": "axis-label", "x": "112", "y": "220.0", **FONT, "text-anchor": "end"}, "j"),
    ]
    for x, y, fill, text_x, text_y, text_fill, value in cells:
        elements += [
            ("rect", {"class": "cell", "x": x, "y": y, "width": "64", "height": "64", "fill": fill,
                      "stroke": "#ffffff", "stroke-width": "1"}, None),
            ("text", {"class": "cell-value", "x": text_x, "y": text_y, **FONT,
                      "text-anchor": "middle", "fill": text_fill}, value),
        ]
    return elements


@pytest.mark.parametrize("grid, title, cells", [
    (REPORT.ofi_grid, "OFI", [
        ("120", "120", "#f7f7f7", "152.0", "156.0", "#1a1a1a", "0.00"),
        ("184", "120", "#f1f3f5", "216.0", "156.0", "#1a1a1a", "-0.06"),
        ("120", "184", "#f5f1f1", "152.0", "220.0", "#1a1a1a", "0.06"),
        ("184", "184", "#f7f7f7", "216.0", "220.0", "#1a1a1a", "0.00"),
    ]),
    (REPORT.di_grid, "DI", [
        ("120", "120", "#f7f7f7", "152.0", "156.0", "#1a1a1a", "1.00"),
        ("184", "120", "#719cc8", "216.0", "156.0", "#1a1a1a", "0.38"),
        ("120", "184", "#b2182b", "152.0", "220.0", "#ffffff", "2.67"),
        ("184", "184", "#f7f7f7", "216.0", "220.0", "#1a1a1a", "1.00"),
    ]),
], ids=["ofi", "di"])
def test_the_stylesheet_resolves_to_the_inline_attributes(grid, title, cells):
    assert resolved(render(grid)) == written_before(title, cells)


CELL = re.compile(
    r'<rect class="cell" [^>]* fill="([^"]*)"/>\n'
    r'  <text class="cell-value" [^>]* fill="([^"]*)">([^<]*)</text>'
)


def assert_cells_match_the_reference(grid: PairwiseMatrix) -> None:
    # every cell's fill, text color and text, row by row
    cells = CELL.findall(render(grid))
    assert cells == [
        heatmap_cell_loops(grid.metric, x, y) for row in grid.integer_rows() for x, y in row
    ]


def step_values(metric: str) -> list[Fraction]:
    """Grid cell values, each exact as a float, at the ends of the color
    steps [k, k + 1)/STEPS of t. For each step whose two ends mix apart:
    the value at its low end and the floats on either side of it, and the
    float just below its high end. Of the other steps, every 64th low end.
    """
    center, span = (1.0, 1.0) if metric == "di" else (0.0, 2.0)

    def colors(t: float) -> tuple[str, str]:
        return heatmap_cell_loops(metric, *Fraction(center + span * t).as_integer_ratio())[:2]

    values = []
    for k in range(-STEPS, STEPS + 1):
        v = center + span * k / STEPS
        if k < STEPS and colors(k / STEPS) != colors((k + 1) / STEPS):
            values += [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]
            values.append(math.nextafter(center + span * (k + 1) / STEPS, -math.inf))
        elif k % 64 == 0:
            values.append(v)
    # a benefit, and so a DI, is never negative
    return [Fraction(v) for v in values if v >= 0 or metric == "ofi"]


@pytest.mark.parametrize("metric", ["ofi", "di"])
def test_step_ends_color_as_each_cell_mixed_alone(metric):
    # group 0 scores 0 (OFI) or 1 (DI), so the (j, 0) cells are the values
    # themselves; the other cells are their differences or ratios, past
    # the palette's edges too
    base = Fraction(0) if metric == "ofi" else Fraction(1)
    values = step_values(metric)
    for start in range(0, len(values), 4):
        scores = (base, *values[start:start + 4])
        assert_cells_match_the_reference(
            PairwiseMatrix(metric, tuple(map(str, range(len(scores)))), scores)
        )


@pytest.mark.parametrize("metric, scores", [
    # DI 3/2 is t = 1/2, where a channel's mix can tie in round(); OFI 1
    # is t = 1/2 as well
    ("di", (Fraction(1), Fraction(3, 2))),
    ("ofi", (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2))),
    # t = ±1 and past it: OFI ±2 and the OFI 4 and -4 between them
    ("ofi", (Fraction(0), Fraction(2), Fraction(-2))),
    # DI 2 (t = 1), DI past 2, DI 0 (t = -1) and undefined and contextual
    # cells beside a zero benefit
    ("di", (Fraction(1), Fraction(2), Fraction(5, 2), Fraction(0))),
    # the num >= 2·den cell whose ratio has no float
    ("di", (Fraction(1), Fraction(1, 10**400 + 1))),
], ids=["di-tie", "ofi-tie", "ofi-edges", "di-edges", "di-overflow"])
def test_edge_cells_color_as_each_cell_mixed_alone(metric, scores):
    assert_cells_match_the_reference(
        PairwiseMatrix(metric, tuple(map(str, range(len(scores)))), scores)
    )


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from(["ofi", "di"]),
    st.lists(st.fractions(min_value=0, max_value=1, max_denominator=12), min_size=1, max_size=8),
)
def test_small_grids_color_as_each_cell_mixed_alone(metric, scores):
    # OFI scores in [-1, 1], DI scores (benefits) in [0, 1]
    if metric == "ofi":
        scores = [2 * s - 1 for s in scores]
    assert_cells_match_the_reference(
        PairwiseMatrix(metric, tuple(map(str, range(len(scores)))), tuple(scores))
    )
