"""Self-contained SVG heatmaps for pairwise metric grids.

The output is a single deterministic SVG document: one colored cell per
ordered group pair, group labels on both axes and the 2-decimal value
overlaid per cell. OFI grids use a diverging palette centered at 0 and
clamped to [-2, 2]; DI grids center at 1 and clamp to [0, 2]. Undefined
DI cells are hatched and labeled "undef".
"""

from __future__ import annotations

from typing import Iterator
from xml.sax.saxutils import escape

from .audit import PairwiseMatrix
from .formatting import format_fixed
from .metrics import DiScore


CELL_SIZE = 64
LABEL_SPACE = 120
FONT_FAMILY = "Helvetica, Arial, sans-serif"
FONT_SIZE = 12
VALUE_PLACES = 2
LOW_COLOR = "#2166ac"
MID_COLOR = "#f7f7f7"
HIGH_COLOR = "#b2182b"


Rgb = tuple[int, int, int]


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
    """Yield :func:`render_heatmap`'s text: the header and axis labels,
    then one piece per grid row.
    """
    names = matrix.group_order
    if not names:
        raise ValueError("cannot render an empty matrix")
    size = len(names)
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
        f'font-weight="bold">{escape(matrix.metric.upper())}</text>\n',
    ]

    for j, name in enumerate(names):
        x = left + j * cell + cell / 2
        parts.append(
            f'  <text class="axis-label" x="{x:.1f}" y="{top - 8}" '
            f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
            f'text-anchor="end" transform="rotate(-40 {x:.1f} {top - 8})">'
            f"{escape(name)}</text>\n"
        )
    for i, name in enumerate(names):
        y = top + i * cell + cell / 2 + FONT_SIZE / 3
        parts.append(
            f'  <text class="axis-label" x="{left - 8}" y="{y:.1f}" '
            f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
            f'text-anchor="end">{escape(name)}</text>\n'
        )
    yield "".join(parts)

    # the diverging palette runs from the center color outward, linear in
    # the value and clamped at the palette edges
    low, mid, high = (_hex_to_rgb(c) for c in (LOW_COLOR, MID_COLOR, HIGH_COLOR))
    text_xs = [f"{left + j * cell + cell / 2:.1f}" for j in range(size)]
    for i, row in enumerate(matrix.cells):
        y = top + i * cell
        text_y = f"{y + cell / 2 + FONT_SIZE / 3:.1f}"
        parts = []
        for j, value in enumerate(row):
            if isinstance(value, DiScore):
                value = value.value
            if value is None:  # a zero-denominator DI
                fill = "url(#undef-hatch)"
                text = "undef"
                text_color = "#333333"
            else:
                t = max(-1.0, min(1.0, (value.numerator / value.denominator - center) / span))
                rgb = _mix(mid, low, -t) if t < 0 else _mix(mid, high, t)
                fill = "#{:02x}{:02x}{:02x}".format(*rgb)
                text = format_fixed(value, VALUE_PLACES)
                text_color = "#ffffff" if _is_dark(rgb) else "#1a1a1a"
            parts.append(
                f'  <rect class="cell" x="{left + j * cell}" y="{y}" width="{cell}" '
                f'height="{cell}" fill="{fill}" stroke="#ffffff" stroke-width="1"/>\n'
                f'  <text class="cell-value" x="{text_xs[j]}" y="{text_y}" '
                f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
                f'text-anchor="middle" fill="{text_color}">{text}</text>\n'
            )
        yield "".join(parts)
    yield "</svg>\n"


def render_heatmap(matrix: PairwiseMatrix) -> str:
    """Render a pairwise grid as an SVG document string."""
    return "".join(heatmap_chunks(matrix))
