import random

import pytest

from splitorders import polytope
from splitorders.errors import EmptyPolytopeError, EnumerationLimitError
from splitorders.exponent import ExponentMatrix, has_containing_maximal, minplus_closure
from splitorders.polytope import (
    ApartmentVertex,
    contains,
    difference_range,
    enumerate_lattice_points,
    is_reduced,
    max_difference,
)

from _oracles import brute_max_difference, naive_box_points

NU = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
NU_PRIME = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])

# the region of NU, by hand: 0 <= x2 <= 3, -1 <= x3 <= 3, -1 <= x3 - x2 <= 2
EXPECTED_POINTS = [
    (0, 0, -1), (0, 0, 0), (0, 0, 1), (0, 0, 2),
    (0, 1, 0), (0, 1, 1), (0, 1, 2), (0, 1, 3),
    (0, 2, 1), (0, 2, 2), (0, 2, 3),
    (0, 3, 2), (0, 3, 3),
]


def test_worked_example_bounds():
    assert difference_range(NU, 1, 0) == (0, 3)
    assert difference_range(NU, 2, 0) == (-1, 3)
    assert difference_range(NU, 2, 1) == (-1, 2)


@pytest.mark.parametrize(
    "i, j, error", [(-1, 0, IndexError), (0, 3, IndexError), (True, 0, TypeError), (0, 1.0, TypeError)]
)
def test_difference_range_refuses_bad_indices(i, j, error):
    """(-1, 0) used to wrap around to (-2, 5) on [[0, 1, 2], [3, 0, 4], [5, 6, 0]],
    and (True, 0) read as (1, 0)."""
    nu = ExponentMatrix([[0, 1, 2], [3, 0, 4], [5, 6, 0]])
    with pytest.raises(error):
        difference_range(nu, i, j)


def test_worked_example_points():
    points = enumerate_lattice_points(NU)
    assert [p.m for p in points] == EXPECTED_POINTS


def test_variant_cuts_out_the_same_region():
    """The redundant constraint x3 >= -2 removes no lattice point."""
    ours = enumerate_lattice_points(NU)
    theirs = enumerate_lattice_points(NU_PRIME)
    assert [p.m for p in ours] == [p.m for p in theirs]


def test_named_vertices_lie_in_the_region():
    for coords in [(0, 0, -1), (0, 3, 2), (0, 3, 3), (0, 1, 3), (0, 0, 2)]:
        assert contains(NU, coords)
    assert not contains(NU, (0, 0, -2))
    assert not contains(NU, (0, 4, 3))


def test_zero_matrix_region_is_the_origin():
    points = enumerate_lattice_points(ExponentMatrix([[0, 0], [0, 0]]))
    assert [p.m for p in points] == [(0, 0)]


def test_geodesic_interval():
    nu = ExponentMatrix([[0, 1], [2, 0]])
    points = enumerate_lattice_points(nu)
    assert [p.m for p in points] == [(0, -1), (0, 0), (0, 1), (0, 2)]


def test_empty_region():
    nu = ExponentMatrix([[0, -2], [1, 0]])
    assert not has_containing_maximal(nu)
    assert enumerate_lattice_points(nu) == []
    with pytest.raises(EmptyPolytopeError):
        max_difference(nu, 0, 1)


def test_max_difference_is_the_closure_entry():
    assert max_difference(NU, 1, 0) == 3
    assert max_difference(NU, 0, 1) == 0
    assert max_difference(NU, 2, 0) == 3
    assert max_difference(NU, 0, 2) == 1
    assert max_difference(NU, 0, 0) == 0


def test_max_difference_index_validation():
    with pytest.raises(IndexError):
        max_difference(NU, 0, 3)
    with pytest.raises(IndexError):
        max_difference(NU, -1, 0)


@pytest.mark.parametrize("i, j", [(True, 0), (0, False), (True, True)])
def test_max_difference_refuses_bool_indices(i, j):
    """A bool index used to read as 0 or 1: (True, 0) gave entry (1, 0)."""
    with pytest.raises(TypeError):
        max_difference(NU, i, j)


@pytest.mark.parametrize("coords", [[0, 0.5], [0, True], [False, 0], [0, "1"], [0, None]])
def test_contains_refuses_non_integer_coordinates(coords):
    """Coordinates read as int_tuple reads them: [0, 0.5] and [0, True]
    used to be points of [[0, 1], [1, 0]]."""
    with pytest.raises((TypeError, ValueError)):
        contains(ExponentMatrix([[0, 1], [1, 0]]), coords)


def test_contains_reads_integral_coordinates():
    nu = ExponentMatrix([[0, 1], [1, 0]])
    assert contains(nu, [0, 1.0]) and contains(nu, (0, -1)) and not contains(nu, [0, 2.0])
    assert not contains(nu, [0, 0, 0]) and not contains(nu, [1, 1])


def test_enumeration_matches_naive_box_scan():
    rng = random.Random(5)
    for _ in range(500):
        n = rng.randint(2, 4)
        nu = _random(rng, n)
        got = [p.m for p in enumerate_lattice_points(nu)]
        assert got == naive_box_points(nu.entries)


def test_max_difference_matches_point_maximum():
    rng = random.Random(19)
    checked = 0
    while checked < 200:
        n = rng.randint(2, 4)
        nu = _random(rng, n)
        if not has_containing_maximal(nu):
            continue
        checked += 1
        pts = [p.m for p in enumerate_lattice_points(nu)]
        for i in range(n):
            for j in range(n):
                assert max_difference(nu, i, j) == brute_max_difference(pts, i, j)


def test_enumeration_limit_guard(monkeypatch):
    wide = ExponentMatrix([[0, 40, 40], [40, 0, 40], [40, 40, 0]])
    monkeypatch.setattr(polytope, "DEFAULT_POINT_LIMIT", 100)
    with pytest.raises(EnumerationLimitError):
        enumerate_lattice_points(wide)
    # empty regions exit before the guard can trip
    empty = ExponentMatrix([[0, -5], [1, 0]])
    monkeypatch.setattr(polytope, "DEFAULT_POINT_LIMIT", 1)
    assert enumerate_lattice_points(empty) == []


def test_is_reduced_frozen_cases():
    assert is_reduced(NU)
    assert not is_reduced(NU_PRIME)
    assert not is_reduced(ExponentMatrix([[0, -2], [1, 0]]))
    assert is_reduced(ExponentMatrix([[0, 0], [0, 0]]))


def test_is_reduced_means_fixed_by_closure():
    rng = random.Random(29)
    for _ in range(400):
        nu = _random(rng, rng.randint(2, 4))
        closed = minplus_closure(nu.entries)
        expected = closed is not None and closed == [list(r) for r in nu.entries]
        assert is_reduced(nu) == expected


def test_lattice_point_validation():
    p = ApartmentVertex((0, 2, 1))
    q = ApartmentVertex((0, 2, 2))
    assert p < q and p != q
    assert list(p.m) == [0, 2, 1]


def test_vertex_order_refuses_a_non_vertex():
    """Comparing with a non-vertex used to raise AttributeError on ``.m``."""
    assert ApartmentVertex([0, 1]).__lt__(5) is NotImplemented
    with pytest.raises(TypeError):
        ApartmentVertex([0, 1]) < 5


def _random(rng, n, lo=-3, hi=5):
    return ExponentMatrix(
        [[rng.randint(lo, hi) if i != j else 0 for j in range(n)] for i in range(n)]
    )
