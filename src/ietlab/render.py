"""Deterministic SVG pictures of strip decomposition levels.

Each level is drawn on a fixed square: the two boundary columns are shaded,
the marked span above every separation point is drawn as a box hanging from
the top edge, and every floor of every strip appears as a dash-bordered box
with the strip index at its center, stacked bottom-to-top in flow order.
Interval boundaries are ticked on the bottom edge, image-interval boundaries
on the top edge, and small orbit points of 0 are labeled underneath.

All coordinates pass through the correctly rounded decimal printer, so the
output is byte-identical across runs.

Layout constants:

    ==================  =======================================
    SQUARE              side of the drawing square, 400 units
    MARGIN              border around the square, 40 units
    SPAN_BOX_FRACTION   marked-box height at level j, 2^-(j+1)
    COLUMN_FILL         boundary-column fill, #dddddd
    SPAN_FILL           marked-box fill, #bbbbbb
    DASH                floor-border dash pattern, "4 2"
    FONT_SIZE           label size, 10 units
    MAX_ORBIT_LABELS    orbit labels drawn only up to depth 24
    ==================  =======================================
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import QuadReal, quad, quad_approx
from .iet import Iet, orbit
from .suspension import StripLevel

SQUARE = 400
MARGIN = 40
COLUMN_FILL = "#dddddd"
SPAN_FILL = "#bbbbbb"
DASH = "4 2"
FONT_SIZE = 10
MAX_ORBIT_LABELS = 24
_COORD_DIGITS = 2


def _px(unit: QuadReal, x: QuadReal) -> str:
    return quad_approx(MARGIN + x * unit, _COORD_DIGITS)


def _py(y: Fraction) -> str:
    return quad_approx(MARGIN + y, _COORD_DIGITS)


def render_strip_level(T: Iet, level: StripLevel) -> str:
    """Draw one strip level as a standalone SVG document."""
    side = SQUARE + 2 * MARGIN
    unit = SQUARE / T.total  # drawing units per unit of length
    top, bottom = 0, SQUARE
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}"'
        f' viewBox="0 0 {side} {side}" font-family="monospace" font-size="{FONT_SIZE}">',
        f'<rect x="{MARGIN}" y="{MARGIN}" width="{SQUARE}" height="{SQUARE}"'
        f' fill="none" stroke="black"/>',
    ]
    markers = {(m.delta, m.i): m.value for m in level.markers}
    left_col = markers[(1, 0)]
    right_col = markers[(0, T.n)]
    lines.append(_rect(unit, quad(0), left_col, top, bottom, COLUMN_FILL))
    lines.append(_rect(unit, right_col, T.total, top, bottom, COLUMN_FILL))
    box_height = Fraction(SQUARE, 2 ** (level.level + 1))
    for j in range(1, T.n):
        lines.append(_rect(unit, markers[(0, j)], markers[(1, j)], top, box_height, SPAN_FILL))
    for strip in level.strips:
        band = Fraction(SQUARE, strip.height)
        for position, floor in enumerate(strip.floors):
            y_top = bottom - (position + 1) * band
            lines.append(
                f'<rect x="{_px(unit, floor.left)}" y="{_py(y_top)}"'
                f' width="{_width(unit, floor.left, floor.right)}" height="{quad_approx(band, _COORD_DIGITS)}"'
                f' fill="none" stroke="gray" stroke-dasharray="{DASH}"/>'
            )
            center = (floor.left + floor.right) / 2
            lines.append(
                f'<text x="{_px(unit, center)}" y="{_py(y_top + band / 2)}"'
                f' text-anchor="middle">{strip.index}</text>'
            )
    for i in range(1, T.n):
        x = _px(unit, T.beta[i])
        lines.append(f'<line x1="{x}" y1="{_py(bottom)}" x2="{x}" y2="{_py(bottom - 8)}" stroke="black"/>')
        lines.append(f'<text x="{x}" y="{_py(bottom + 14)}" text-anchor="middle">b{i}</text>')
        xp = _px(unit, T.beta_prime[i])
        lines.append(f'<line x1="{xp}" y1="{_py(top)}" x2="{xp}" y2="{_py(top + 8)}" stroke="black"/>')
        lines.append(f'<text x="{xp}" y="{_py(top - 6)}" text-anchor="middle">b\'{i}</text>')
    if level.K <= MAX_ORBIT_LABELS:
        for k, x in enumerate(orbit(T, quad(0), 1, level.K), start=1):
            lines.append(
                f'<text x="{_px(unit, x)}" y="{_py(bottom + 26)}" text-anchor="middle">T{k}</text>'
            )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _rect(unit: QuadReal, left: QuadReal, right: QuadReal, y_top: Fraction, height: Fraction, fill: str) -> str:
    return (
        f'<rect x="{_px(unit, left)}" y="{_py(y_top)}" width="{_width(unit, left, right)}"'
        f' height="{quad_approx(height, _COORD_DIGITS)}" fill="{fill}"/>'
    )


def _width(unit: QuadReal, left: QuadReal, right: QuadReal) -> str:
    return quad_approx((right - left) * unit, _COORD_DIGITS)
