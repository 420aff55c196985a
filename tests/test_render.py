import hashlib
import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from _oracles import etree_region_svg
from splitorders.errors import EnumerationLimitError, UnsupportedDimensionError
from splitorders.exponent import ExponentMatrix, has_containing_maximal
from splitorders.polytope import DEFAULT_POINT_LIMIT, contains, enumerate_lattice_points
from splitorders.render import apartment_to_plane, render_polytope_svg

SVG = "{http://www.w3.org/2000/svg}"

NU = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
NU_PRIME = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])


def _root(svg_text):
    return ET.fromstring(svg_text)


def _region_dots(root):
    for g in root.iter(f"{SVG}g"):
        if g.get("id") == "region":
            return list(g.iter(f"{SVG}circle"))
    return []


def _lines(root):
    return list(root.iter(f"{SVG}line"))


def test_svg_is_well_formed_and_versioned():
    root = _root(render_polytope_svg(NU))
    assert root.tag == f"{SVG}svg"
    assert root.get("version") == "1.1"
    assert root.get("viewBox") is not None


def test_triangular_embedding():
    assert apartment_to_plane(1, 0) == (1.0, 0.0)
    x, y = apartment_to_plane(0, 1)
    assert abs(x - 0.5) < 1e-12 and abs(y - 0.8660254037844386) < 1e-12


def test_worked_example_draws_thirteen_dots():
    root = _root(render_polytope_svg(NU))
    dots = _region_dots(root)
    assert len(dots) == 13
    expected = {f"pt_{p.m[1]}_{p.m[2]}" for p in enumerate_lattice_points(NU)}
    assert {d.get("id") for d in dots} == expected


def test_every_dot_lies_in_the_region():
    root = _root(render_polytope_svg(NU_PRIME))
    for dot in _region_dots(root):
        _, x2, x3 = dot.get("id").split("_")
        assert contains(NU_PRIME, (0, int(x2), int(x3)))


def test_six_walls_all_supporting_for_the_example():
    root = _root(render_polytope_svg(NU))
    walls = _lines(root)
    assert len(walls) == 6
    assert all(w.get("stroke-dasharray") is None for w in walls)


def test_redundant_wall_is_dashed():
    """For the variant, the wall x3 = -2 misses the region and renders dashed."""
    root = _root(render_polytope_svg(NU_PRIME))
    walls = _lines(root)
    dashed = [w for w in walls if w.get("stroke-dasharray") is not None]
    assert len(dashed) == 1


def test_zero_matrix_draws_single_origin_dot():
    zero = ExponentMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    dots = _region_dots(_root(render_polytope_svg(zero)))
    assert [d.get("id") for d in dots] == ["pt_0_0"]


def test_output_is_deterministic():
    assert render_polytope_svg(NU) == render_polytope_svg(NU)
    assert render_polytope_svg(NU, scale=25.0) == render_polytope_svg(NU, scale=25.0)


def test_dimension_and_scale_validation():
    with pytest.raises(UnsupportedDimensionError):
        render_polytope_svg(ExponentMatrix([[0, 1], [1, 0]]))
    with pytest.raises(ValueError):
        render_polytope_svg(NU, scale=0.0)
    with pytest.raises(ValueError):
        render_polytope_svg(NU, scale=-3.0)


@pytest.mark.parametrize("scale", [float("nan"), float("inf"), -float("inf"), 0.0, -3.0])
def test_scale_must_be_positive_and_finite(scale):
    with pytest.raises(ValueError, match="^scale must be a positive finite number$"):
        render_polytope_svg(NU, scale=scale)


def test_the_window_reaches_one_lattice_step_past_the_box():
    ones = ExponentMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
    # the box is 3 x 3 lattice cells; the window shows 5 x 5 lattice dots
    # and the 7 points of the region
    assert len(list(_root(render_polytope_svg(ones)).iter(f"{SVG}circle"))) == 32


def _sample_matrices(rng, count):
    """The zero matrix, a one-point region and ``count`` random 3 x 3
    matrices, feasible and infeasible."""
    yield [[0, 0, 0], [0, 0, 0], [0, 0, 0]]
    yield [[0, -2, 1], [2, 0, 3], [-1, -3, 0]]
    for _ in range(count):
        yield [[0 if i == j else rng.randint(-3, 5) for j in range(3)] for i in range(3)]


def test_writer_matches_the_elementtree_reference():
    rng = random.Random(23)
    kinds = set()
    for rows in _sample_matrices(rng, 150):
        nu = ExponentMatrix(rows)
        kinds.add((has_containing_maximal(nu), len(enumerate_lattice_points(nu)) == 1))
        for scale in (0.5, 7.5, 40.0, 123.456):
            expected = etree_region_svg(rows, scale=scale)
            assert render_polytope_svg(nu, scale=scale) == expected
    assert kinds == {(False, False), (True, False), (True, True)}


def test_an_empty_region_draws_its_window_as_a_feasible_one_would():
    """An empty region has no box check in enumeration; its window of
    603^2 cells is under the guard and drawn as the lattice alone."""
    empty = ExponentMatrix([[0, 300, 300], [300, 0, -5], [300, -5, 0]])
    svg = render_polytope_svg(empty)
    assert svg.count("<circle") == 603**2
    assert svg.endswith('<g id="region" fill="#1a1a1a" /></svg>\n')


WINDOW_OVER_THE_GUARD = [
    [[0, 1200, 1200], [1200, 0, -5], [1200, -5, 0]],
    # an empty region whose box of 999^2 cells passes the guard and whose
    # window, one lattice step wider on each side, does not
    [[0, 499, 499], [499, 0, -5], [499, -5, 0]],
    # a feasible region whose box passes the guard and whose window does not
    [[0, 0, 0], [998, 0, 0], [998, 0, 0]],
]


@pytest.mark.parametrize("rows", WINDOW_OVER_THE_GUARD, ids=["empty", "margin", "edge"])
def test_a_window_over_the_guard_is_refused_before_drawing(rows):
    nu = ExponentMatrix(rows)
    tracemalloc.start()
    try:
        with pytest.raises(
            EnumerationLimitError,
            match=f"^drawing window has more than {DEFAULT_POINT_LIMIT} cells$",
        ):
            render_polytope_svg(nu)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


PAST_THE_FLOAT_RANGE = [
    # a one-point region whose window corner is past the float range
    ([[0, -10**400, 0], [10**400, 0, 10**400], [0, -10**400, 0]], 40.0),
    # a small window whose diagonal walls are past the float range
    ([[0, 0, 0], [1, 0, 10**400], [1, 10**400, 0]], 40.0),
    # walls that convert to floats but whose screen positions are inf
    ([[0, 0, 0], [1, 0, 10**307], [1, 10**307, 0]], 40.0),
    # a window whose width is inf at this scale
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 1e308),
]


@pytest.mark.parametrize(
    "rows, scale", PAST_THE_FLOAT_RANGE, ids=["corner", "diagonal", "diagonal-inf", "scale"]
)
def test_coordinates_past_the_float_range_are_refused(rows, scale):
    """These raised OverflowError or drew ``inf`` into the SVG."""
    with pytest.raises(
        EnumerationLimitError, match="^drawing coordinates are past the float range$"
    ):
        render_polytope_svg(ExponentMatrix(rows), scale=scale)


def test_walls_far_from_the_origin_draw_as_before():
    """Walls at 10^30 are drawn, precision loss and all, as before the
    float-range refusal (sha256 of the earlier output)."""
    far = 10**30
    for rows, digest in (
        (
            [[0, -far, 0], [far, 0, far], [0, -far, 0]],
            "87e9ebb83597c898bbc49f9d8700a741466277bc05b67fad8e78a603170570a1",
        ),
        (
            [[0, 0, 0], [1, 0, far], [1, far, 0]],
            "336fc0d549a1a13a3c80a8e323bdbe09c7747007851db2747fd8ed34d9f0813c",
        ),
    ):
        svg = render_polytope_svg(ExponentMatrix(rows))
        assert hashlib.sha256(svg.encode()).hexdigest() == digest
