"""Structural checks on the SVG heatmap output."""

import re
from fractions import Fraction
from xml.etree import ElementTree

import pytest

from ofi_audit.audit import PairwiseMatrix, build_report
from ofi_audit.heatmap import HIGH_COLOR, LOW_COLOR, MID_COLOR, heatmap_chunks
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
