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

from .errors import UnsupportedDimensionError
from .exponent import ExponentMatrix, _cached_closure
from .polytope import enumerate_lattice_points

SQRT3_2 = math.sqrt(3.0) / 2.0

_X2_COLOR = "#b03a2e"
_X3_COLOR = "#1f618d"
_DIFF_COLOR = "#196f3d"


def apartment_to_plane(x2: float, x3: float) -> tuple[float, float]:
    """Planar position of the apartment point (x_2, x_3) under the 60 degree basis."""
    return (x2 + 0.5 * x3, SQRT3_2 * x3)


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def check_drawing_options(scale: float, margin: float = 1.5) -> None:
    """Raises ValueError unless ``scale`` (pixels per lattice step) is finite
    and positive and ``margin`` (lattice steps around the box, by default the
    renderer's) finite and non-negative."""
    if not (math.isfinite(scale) and scale > 0):
        raise ValueError("scale must be a positive finite number")
    if not (math.isfinite(margin) and margin >= 0):
        raise ValueError("margin must be a non-negative finite number")


def render_polytope_svg(
    nu: ExponentMatrix, *, scale: float = 40.0, margin: float = 1.5
) -> str:
    """SVG 1.1 document showing the region of a 3 x 3 exponent matrix.

    Every integer apartment point of the viewing window is drawn as a
    small gray dot, the points of the region as larger filled dots with
    ids carrying their coordinates, and the six declared walls as lines
    colored by family, dashed when the wall does not touch the region.

    Raises UnsupportedDimensionError unless n = 3, and ValueError unless
    ``scale`` is finite and positive and ``margin`` finite and non-negative.
    """
    if nu.n != 3:
        raise UnsupportedDimensionError(f"drawing needs n = 3, got n = {nu.n}")
    check_drawing_options(scale, margin)
    # loaded here, not at module level: importing the package stays cheap
    import xml.etree.ElementTree as ET

    u = nu.entries
    closed = _cached_closure(nu)
    points = enumerate_lattice_points(nu)

    # window in apartment coordinates, from the box against coordinate 0
    x2_lo, x2_hi = min(-u[0][1], u[1][0]) - margin, max(-u[0][1], u[1][0]) + margin
    x3_lo, x3_hi = min(-u[0][2], u[2][0]) - margin, max(-u[0][2], u[2][0]) + margin

    corners = [
        apartment_to_plane(a, b)
        for a in (x2_lo, x2_hi)
        for b in (x3_lo, x3_hi)
    ]
    px_lo = min(c[0] for c in corners)
    px_hi = max(c[0] for c in corners)
    py_lo = min(c[1] for c in corners)
    py_hi = max(c[1] for c in corners)
    pad = 0.75 * scale
    width = (px_hi - px_lo) * scale + 2 * pad
    height = (py_hi - py_lo) * scale + 2 * pad

    def to_screen(x2: float, x3: float) -> tuple[float, float]:
        px, py = apartment_to_plane(x2, x3)
        return (pad + (px - px_lo) * scale, pad + (py_hi - py) * scale)

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": _fmt(width),
            "height": _fmt(height),
            "viewBox": f"0 0 {_fmt(width)} {_fmt(height)}",
        },
    )
    ET.SubElement(
        root,
        "rect",
        {"x": "0", "y": "0", "width": _fmt(width), "height": _fmt(height),
         "fill": "#ffffff"},
    )

    lattice = ET.SubElement(root, "g", {"id": "lattice", "fill": "#c8c8c8"})
    for ix2 in range(math.ceil(x2_lo), math.floor(x2_hi) + 1):
        for ix3 in range(math.ceil(x3_lo), math.floor(x3_hi) + 1):
            sx, sy = to_screen(ix2, ix3)
            ET.SubElement(
                lattice,
                "circle",
                {"cx": _fmt(sx), "cy": _fmt(sy), "r": _fmt(0.06 * scale)},
            )

    # (label, constant, family, (i, j) for the attainment test)
    walls = [
        ("x2", -u[0][1], _X2_COLOR, (0, 1)),
        ("x2", u[1][0], _X2_COLOR, (1, 0)),
        ("x3", -u[0][2], _X3_COLOR, (0, 2)),
        ("x3", u[2][0], _X3_COLOR, (2, 0)),
        ("diff", -u[1][2], _DIFF_COLOR, (1, 2)),
        ("diff", u[2][1], _DIFF_COLOR, (2, 1)),
    ]
    wall_group = ET.SubElement(root, "g", {"id": "walls", "fill": "none"})
    for family, c, color, (i, j) in walls:
        if family == "x2":
            start = to_screen(c, x3_lo)
            end = to_screen(c, x3_hi)
        elif family == "x3":
            start = to_screen(x2_lo, c)
            end = to_screen(x2_hi, c)
        else:
            start = to_screen(x2_lo, x2_lo + c)
            end = to_screen(x2_hi, x2_hi + c)
        attrs = {
            "x1": _fmt(start[0]),
            "y1": _fmt(start[1]),
            "x2": _fmt(end[0]),
            "y2": _fmt(end[1]),
            "stroke": color,
            "stroke-width": "1.5",
        }
        supporting = bool(closed) and closed[i][j] == u[i][j]
        if not supporting:
            attrs["stroke-dasharray"] = "6 4"
        ET.SubElement(wall_group, "line", attrs)

    region = ET.SubElement(root, "g", {"id": "region", "fill": "#1a1a1a"})
    for point in points:
        _, x2, x3 = point.m
        sx, sy = to_screen(x2, x3)
        ET.SubElement(
            region,
            "circle",
            {
                "id": f"pt_{x2}_{x3}",
                "cx": _fmt(sx),
                "cy": _fmt(sy),
                "r": _fmt(0.12 * scale),
            },
        )

    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
