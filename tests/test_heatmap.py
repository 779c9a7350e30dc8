"""Structural checks on the SVG heatmap output."""

from fractions import Fraction
from xml.etree import ElementTree

import pytest

from ofi_audit.audit import PairwiseMatrix, build_report
from ofi_audit.heatmap import HIGH_COLOR, LOW_COLOR, MID_COLOR, heatmap_chunks
from ofi_audit.ingestion import PredictionRecord, aggregate
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
    table = two_group_table(BinaryConfusion(1, 0, 0, 5), BinaryConfusion(0, 7, 0, 11))
    report = build_report(table)
    svg = render(report.di_grid)
    assert 'url(#undef-hatch)' in svg
    assert "undef" in {el.text for el in svg_elements(svg, "cell-value")}


def test_extreme_values_clamp_to_palette_edges():
    # marginal benefits 1 and -1 give the OFI cells 2 and -2
    grid = PairwiseMatrix(metric="ofi", group_order=("a", "b"), scores=(Fraction(1), Fraction(-1)))
    assert [[Fraction(x, y) for x, y in row] for row in grid.integer_rows()] == [[0, 2], [-2, 0]]
    svg = render(grid)
    fills = {el.get("fill") for el in svg_elements(svg, "cell")}
    assert HIGH_COLOR in fills and LOW_COLOR in fills


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
