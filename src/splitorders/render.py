"""Flat drawing of a 3 x 3 difference region inside its triangular apartment.

The vertex (x_2, x_3) of the standard apartment embeds in the plane at
x_2 u + x_3 w where u and w are unit vectors at sixty degrees, giving the
usual triangular lattice.  A region is drawn as its six bounding walls
(three line families: x_2 constant, x_3 constant, x_3 - x_2 constant)
together with its integer points; walls whose bound is not attained by
the region are dashed.
"""

from __future__ import annotations

import math
import sys

from .errors import EnumerationLimitError, UnsupportedDimensionError
from .exponent import ExponentMatrix, _cached_closure
from .polytope import DEFAULT_POINT_LIMIT, enumerate_lattice_points

SQRT3_2 = math.sqrt(3.0) / 2.0

_X2_COLOR = "#b03a2e"
_X3_COLOR = "#1f618d"
_DIFF_COLOR = "#196f3d"

_PAST_FLOAT_RANGE = "drawing coordinates are past the float range"

# lattice steps the viewing window reaches past the region's box, and the
# whole steps of it that get lattice dots
_MARGIN = 1.5
_STEPS = 1


def apartment_to_plane(x2: float, x3: float) -> tuple[float, float]:
    """Planar position of the apartment point (x_2, x_3) under the 60 degree basis."""
    return (x2 + 0.5 * x3, SQRT3_2 * x3)


def _fmt(value: float) -> str:
    if not math.isfinite(value):
        raise EnumerationLimitError(_PAST_FLOAT_RANGE)
    return f"{value:.2f}"


def check_drawing_options(scale: float) -> None:
    """Raises ValueError unless ``scale`` (pixels per lattice step) is finite
    and positive."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be a positive finite number")


def render_polytope_svg(nu: ExponentMatrix, *, scale: float = 40.0) -> str:
    """SVG 1.1 document showing the region of a 3 x 3 exponent matrix.

    Every integer point of the viewing window, the region's box against
    coordinate 0 widened by 1.5 lattice steps, is drawn as a small
    gray dot, the points of the region as larger filled dots with ids
    carrying their coordinates, and the six declared walls as lines
    colored by family, dashed when the wall does not touch the region.

    Raises UnsupportedDimensionError unless n = 3, ValueError unless
    ``scale`` is finite and positive, and EnumerationLimitError when the box or the window has more than
    ``DEFAULT_POINT_LIMIT`` cells or a drawn coordinate is not a finite float.
    """
    if nu.n != 3:
        raise UnsupportedDimensionError(f"drawing needs n = 3, got n = {nu.n}")
    check_drawing_options(scale)

    u = nu.entries
    closed = _cached_closure(nu)
    # first, so that a box over the guard keeps enumeration's message; an
    # empty region returns [] here without its box being checked
    points = enumerate_lattice_points(nu)

    # the window's integer cells are counted before any float is formed
    lo2, hi2 = sorted((-u[0][1], u[1][0]))
    lo3, hi3 = sorted((-u[0][2], u[2][0]))
    cells = (hi2 - lo2 + 2 * _STEPS + 1) * (hi3 - lo3 + 2 * _STEPS + 1)
    if cells > DEFAULT_POINT_LIMIT:
        raise EnumerationLimitError(
            f"drawing window has more than {DEFAULT_POINT_LIMIT} cells"
        )
    # every int that becomes a float below is one of these or lies between
    # two of them; _fmt refuses the inf or nan that float arithmetic can reach
    ends = (lo2 - _STEPS, hi2 + _STEPS, lo3 - _STEPS, hi3 + _STEPS, u[1][2], u[2][1])
    if max(map(abs, ends)) > sys.float_info.max:
        raise EnumerationLimitError(_PAST_FLOAT_RANGE)
    x2_lo, x2_hi = lo2 - _MARGIN, hi2 + _MARGIN
    x3_lo, x3_hi = lo3 - _MARGIN, hi3 + _MARGIN

    corners = [apartment_to_plane(a, b) for a in (x2_lo, x2_hi) for b in (x3_lo, x3_hi)]
    px_lo = min(c[0] for c in corners)
    px_hi = max(c[0] for c in corners)
    py_lo = min(c[1] for c in corners)
    py_hi = max(c[1] for c in corners)
    pad = 0.75 * scale
    width = _fmt((px_hi - px_lo) * scale + 2 * pad)
    height = _fmt((py_hi - py_lo) * scale + 2 * pad)

    def to_screen(x2: float, x3: float) -> tuple[str, str]:
        px, py = apartment_to_plane(x2, x3)
        return _fmt(pad + (px - px_lo) * scale), _fmt(pad + (py_hi - py) * scale)

    # every attribute value is a _fmt number, a fixed color or a pt_ id, so
    # nothing needs escaping; the window always holds a lattice cell
    out = [
        '<?xml version="1.0" encoding="UTF-8"?>\n<svg xmlns="http://www.w3.org/2000/svg"'
        f' version="1.1" width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff" />'
        '<g id="lattice" fill="#c8c8c8">'
    ]
    r = _fmt(0.06 * scale)
    for ix2 in range(lo2 - _STEPS, hi2 + _STEPS + 1):
        for ix3 in range(lo3 - _STEPS, hi3 + _STEPS + 1):
            sx, sy = to_screen(ix2, ix3)
            out.append(f'<circle cx="{sx}" cy="{sy}" r="{r}" />')
    out.append('</g><g id="walls" fill="none">')

    # (i, j) of the wall's bound u[i][j], its color, and its two ends
    for i, j, color, start, end in (
        (0, 1, _X2_COLOR, (-u[0][1], x3_lo), (-u[0][1], x3_hi)),
        (1, 0, _X2_COLOR, (u[1][0], x3_lo), (u[1][0], x3_hi)),
        (0, 2, _X3_COLOR, (x2_lo, -u[0][2]), (x2_hi, -u[0][2])),
        (2, 0, _X3_COLOR, (x2_lo, u[2][0]), (x2_hi, u[2][0])),
        (1, 2, _DIFF_COLOR, (x2_lo, x2_lo - u[1][2]), (x2_hi, x2_hi - u[1][2])),
        (2, 1, _DIFF_COLOR, (x2_lo, x2_lo + u[2][1]), (x2_hi, x2_hi + u[2][1])),
    ):
        (sx1, sy1), (sx2, sy2) = to_screen(*start), to_screen(*end)
        supporting = bool(closed) and closed[i][j] == u[i][j]
        dash = "" if supporting else ' stroke-dasharray="6 4"'
        out.append(
            f'<line x1="{sx1}" y1="{sy1}" x2="{sx2}" y2="{sy2}" stroke="{color}"'
            f' stroke-width="1.5"{dash} />'
        )

    out.append('</g><g id="region" fill="#1a1a1a"' + (">" if points else " />"))
    r = _fmt(0.12 * scale)
    for point in points:
        _, x2, x3 = point.m
        sx, sy = to_screen(x2, x3)
        out.append(f'<circle id="pt_{x2}_{x3}" cx="{sx}" cy="{sy}" r="{r}" />')
    out.append("</g></svg>\n" if points else "</svg>\n")
    return "".join(out)
