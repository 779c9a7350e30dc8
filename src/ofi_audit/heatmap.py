"""Self-contained SVG heatmaps for pairwise metric grids.

The output is a single deterministic SVG document: one colored cell per
ordered group pair, group labels on both axes and the 2-decimal value
overlaid per cell. OFI grids use a diverging palette centered at 0 and
clamped to [-2, 2]; DI grids center at 1 and clamp to [0, 2]. Undefined
DI cells are hatched and labeled "undef".
"""

from __future__ import annotations

from fractions import Fraction
from xml.sax.saxutils import escape

from .audit import PairwiseMatrix
from .formatting import format_fixed
from .metrics import DiKind, DiScore


CELL_SIZE = 64
LABEL_SPACE = 120
FONT_FAMILY = "Helvetica, Arial, sans-serif"
FONT_SIZE = 12
VALUE_PLACES = 2
LOW_COLOR = "#2166ac"
MID_COLOR = "#f7f7f7"
HIGH_COLOR = "#b2182b"


def _hex_to_rgb(color: str) -> tuple[int, int, int]:
    color = color.lstrip("#")
    return int(color[0:2], 16), int(color[2:4], 16), int(color[4:6], 16)


def _mix(c1: str, c2: str, t: float) -> str:
    r1, g1, b1 = _hex_to_rgb(c1)
    r2, g2, b2 = _hex_to_rgb(c2)
    return "#{:02x}{:02x}{:02x}".format(
        round(r1 + (r2 - r1) * t),
        round(g1 + (g2 - g1) * t),
        round(b1 + (b2 - b1) * t),
    )


def _diverging_color(value: float, center: float, span: float) -> str:
    # linear interpolation from the center color outward, clamped at the
    # palette edges
    t = (value - center) / span
    t = max(-1.0, min(1.0, t))
    if t < 0:
        return _mix(MID_COLOR, LOW_COLOR, -t)
    return _mix(MID_COLOR, HIGH_COLOR, t)


def _is_dark(color: str) -> bool:
    r, g, b = _hex_to_rgb(color)
    return 0.299 * r + 0.587 * g + 0.114 * b < 140


def render_heatmap(matrix: PairwiseMatrix) -> str:
    """Render a pairwise grid as an SVG document string."""
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

    for i in range(size):
        for j in range(size):
            value = matrix.cells[i][j]
            x = left + j * cell
            y = top + i * cell
            undefined = (
                isinstance(value, DiScore)
                and value.kind is DiKind.UNDEFINED_ZERO_DENOMINATOR
            )
            if undefined:
                fill = "url(#undef-hatch)"
                text = "undef"
                text_color = "#333333"
            else:
                exact = value.value if isinstance(value, DiScore) else value
                assert isinstance(exact, Fraction)
                fill = _diverging_color(float(exact), center, span)
                text = format_fixed(exact, VALUE_PLACES)
                text_color = "#ffffff" if _is_dark(fill) else "#1a1a1a"
            parts.append(
                f'  <rect class="cell" x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#ffffff" stroke-width="1"/>\n'
            )
            parts.append(
                f'  <text class="cell-value" x="{x + cell / 2:.1f}" '
                f'y="{y + cell / 2 + FONT_SIZE / 3:.1f}" '
                f'font-family="{FONT_FAMILY}" font-size="{FONT_SIZE}" '
                f'text-anchor="middle" fill="{text_color}">{escape(text)}</text>\n'
            )

    parts.append("</svg>\n")
    return "".join(parts)
