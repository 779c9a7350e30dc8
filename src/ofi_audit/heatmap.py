"""Self-contained SVG heatmaps for pairwise metric grids.

The output is a single deterministic SVG document: one colored cell per
ordered group pair, group labels on both axes and the 2-decimal value
overlaid per cell. OFI grids use a diverging palette centered at 0 and
clamped to [-2, 2]; DI grids center at 1 and clamp to [0, 2]. Undefined
DI cells are hatched and labeled "undef".
"""

from __future__ import annotations

import re
from typing import Iterator

from .audit import PairwiseMatrix
from .formatting import fixed_text


CELL_SIZE = 64
LABEL_SPACE = 120
FONT_FAMILY = "Helvetica, Arial, sans-serif"
FONT_SIZE = 12
VALUE_PLACES = 2
LOW_COLOR = "#2166ac"
MID_COLOR = "#f7f7f7"
HIGH_COLOR = "#b2182b"


Rgb = tuple[int, int, int]

# characters XML 1.0 cannot carry, even as a character reference
_NOT_XML = re.compile(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(name: str) -> str:
    """A group name as SVG text content. CR is written as a character
    reference so that a parser does not fold it into LF; a character XML
    1.0 cannot carry raises ValueError."""
    bad = _NOT_XML.search(name)
    if bad:
        raise ValueError(
            f"group {name!r} holds U+{ord(bad.group()):04X}, which an SVG cannot carry"
        )
    return (
        name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace("\r", "&#13;")
    )


def _hex_to_rgb(color: str) -> Rgb:
    color = color.lstrip("#")
    return int(color[0:2], 16), int(color[2:4], 16), int(color[4:6], 16)


def _mix(c1: Rgb, c2: Rgb, t: float) -> Rgb:
    r1, g1, b1 = c1
    r2, g2, b2 = c2
    return (
        round(r1 + (r2 - r1) * t),
        round(g1 + (g2 - g1) * t),
        round(b1 + (b2 - b1) * t),
    )


def _is_dark(rgb: Rgb) -> bool:
    r, g, b = rgb
    return 0.299 * r + 0.587 * g + 0.114 * b < 140


def heatmap_chunks(matrix: PairwiseMatrix) -> Iterator[str]:
    """Render a pairwise grid as an SVG document, yielded in pieces: the
    header and axis labels, then one piece per grid row.

    The names are checked by this call, before any piece is rendered: an
    empty grid, or a group name that holds a character XML 1.0 cannot
    carry, raises ValueError here rather than partway through a write.
    """
    if not matrix.group_order:
        raise ValueError("cannot render an empty matrix")
    return _svg_pieces(matrix, [_escape(name) for name in matrix.group_order])


def _svg_pieces(matrix: PairwiseMatrix, labels: list[str]) -> Iterator[str]:
    size = len(labels)
    center, span = (1.0, 1.0) if matrix.metric == "di" else (0.0, 2.0)

    cell = CELL_SIZE
    left = LABEL_SPACE
    top = LABEL_SPACE
    width = left + size * cell + 10
    height = top + size * cell + 10

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">\n',
        "  <defs>\n"
        '    <pattern id="undef-hatch" width="8" height="8" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">\n'
        '      <rect width="8" height="8" fill="#e8e8e8"/>\n'
        '      <line x1="0" y1="0" x2="0" y2="8" stroke="#9a9a9a" stroke-width="3"/>\n'
        "    </pattern>\n"
        "  </defs>\n",
        f'  <text class="title" x="{left}" y="{FONT_SIZE + 6}" '
        f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE + 2}" '
        f'font-weight="bold">{_escape(matrix.metric.upper())}</text>\n',
    ]

    for j, label in enumerate(labels):
        x = left + j * cell + cell / 2
        parts.append(
            f'  <text class="axis-label" x="{x:.1f}" y="{top - 8}" '
            f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
            f'text-anchor="end" transform="rotate(-40 {x:.1f} {top - 8})">'
            f"{label}</text>\n"
        )
    for i, label in enumerate(labels):
        y = top + i * cell + cell / 2 + FONT_SIZE / 3
        parts.append(
            f'  <text class="axis-label" x="{left - 8}" y="{y:.1f}" '
            f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
            f'text-anchor="end">{label}</text>\n'
        )
    yield "".join(parts)

    # a diverging palette from the center color, linear in the value, clamped
    # at its edges; the high one, 2, is tested in ints: num / den may overflow
    low, mid, high = (_hex_to_rgb(c) for c in (LOW_COLOR, MID_COLOR, HIGH_COLOR))
    palette: dict[Rgb, tuple[str, str]] = {}  # fill and text color of each mix
    # the x attributes are the same down a column, the y attributes along a
    # row; a cell fills in its two x, its fill, its text color and its text
    columns = [(left + j * cell, f"{left + j * cell + cell / 2:.1f}") for j in range(size)]
    for i, row in enumerate(matrix.integer_rows()):
        y = top + i * cell
        template = (
            f'  <rect class="cell" x="%d" y="{y}" width="{cell}" '
            f'height="{cell}" fill="%s" stroke="#ffffff" stroke-width="1"/>\n'
            f'  <text class="cell-value" x="%s" y="{y + cell / 2 + FONT_SIZE / 3:.1f}" '
            f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
            f'text-anchor="middle" fill="%s">%s</text>\n'
        )
        parts = []
        for (rect_x, text_x), (num, den) in zip(columns, row):
            if den == 0:  # a DI cell: contextual when both rates are zero
                if num:
                    parts.append(template % (rect_x, "url(#undef-hatch)", text_x, "#333333", "undef"))
                    continue
                num = den = 1
            t = (num / den - center) / span if num < 2 * den else 1.0
            if t < 0:
                rgb = _mix(mid, low, 1.0 if t < -1.0 else -t)
            else:
                rgb = _mix(mid, high, 1.0 if t > 1.0 else t)
            colors = palette.get(rgb)
            if colors is None:
                colors = palette[rgb] = (
                    "#%02x%02x%02x" % rgb, "#ffffff" if _is_dark(rgb) else "#1a1a1a"
                )
            parts.append(template % (
                rect_x, colors[0], text_x, colors[1], fixed_text(num, den, VALUE_PLACES)
            ))
        yield "".join(parts)
    yield "</svg>\n"
