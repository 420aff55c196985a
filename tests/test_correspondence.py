import random

import pytest

import splitorders.correspondence
import splitorders.polytope
from splitorders.correspondence import (
    ApartmentVertex,
    intersect_maximal,
    maximal_order_exponents,
    maximal_orders_containing,
    verify_roundtrip,
)
from splitorders.errors import (
    DimensionMismatchError,
    EmptyVertexListError,
    NegativeCycleError,
)
from splitorders.exponent import ExponentMatrix, is_order, order_hull
from splitorders.polytope import enumerate_lattice_points, is_reduced

from _oracles import entrywise_max

NU = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])

# the three displayed maximal orders containing S(NU)
LAMBDA_00M1 = [[0, 0, 1], [0, 0, 1], [-1, -1, 0]]
LAMBDA_032 = [[0, -3, -2], [3, 0, 1], [2, -1, 0]]
LAMBDA_013 = [[0, -1, -3], [1, 0, -2], [3, 2, 0]]


def test_vertex_normalization():
    assert ApartmentVertex([2, 5, 1]).m == (0, 3, -1)
    assert ApartmentVertex([0, 3, -1]) == ApartmentVertex([2, 5, 1])
    assert ApartmentVertex([0, 1]) != ApartmentVertex([0, 2])


def test_maximal_order_exponent_displays():
    assert maximal_order_exponents(ApartmentVertex([0, 0, -1])).entries == tuple(
        map(tuple, LAMBDA_00M1)
    )
    assert maximal_order_exponents(ApartmentVertex([0, 3, 2])).entries == tuple(
        map(tuple, LAMBDA_032)
    )
    assert maximal_order_exponents(ApartmentVertex([0, 1, 3])).entries == tuple(
        map(tuple, LAMBDA_013)
    )


def test_three_vertex_subsets_intersect_to_the_example():
    subsets = [
        [(0, 0, -1), (0, 3, 2), (0, 1, 3)],
        [(0, 0, -1), (0, 3, 2), (0, 3, 3), (0, 1, 3)],
        [(0, 0, -1), (0, 3, 2), (0, 1, 3), (0, 0, 2)],
    ]
    for coords in subsets:
        vertices = [ApartmentVertex(c) for c in coords]
        assert intersect_maximal(vertices) == NU


def test_intersection_is_the_entrywise_max():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randint(2, 4)
        family = [
            ApartmentVertex([0] + [rng.randint(-4, 4) for _ in range(n - 1)])
            for _ in range(rng.randint(1, 5))
        ]
        mu = intersect_maximal(family)
        oracle = entrywise_max(
            [maximal_order_exponents(v).entries for v in family]
        )
        assert [list(r) for r in mu.entries] == oracle
        assert is_order(mu) and is_reduced(mu)


def test_singleton_intersection_is_the_maximal_order():
    v = ApartmentVertex([0, 2, -1])
    assert intersect_maximal([v]) == maximal_order_exponents(v)


def test_intersection_input_validation():
    with pytest.raises(EmptyVertexListError):
        intersect_maximal([])
    with pytest.raises(DimensionMismatchError):
        intersect_maximal([ApartmentVertex([0, 1]), ApartmentVertex([0, 1, 2])])


def test_containing_maximal_orders_are_the_lattice_points():
    points = enumerate_lattice_points(NU)
    vertices = maximal_orders_containing(NU)
    assert [v.m for v in vertices] == [p.m for p in points]
    assert len(vertices) == 13
    _assert_points_are_the_vertices(NU)


def test_lattice_points_intersect_back_to_reduced_matrices():
    rng = random.Random(53)
    checked = 0
    for _ in range(300):
        n = rng.randint(2, 4)
        nu = ExponentMatrix(
            [[rng.randint(-2, 4) if i != j else 0 for j in range(n)] for i in range(n)]
        )
        if not is_order(nu):
            continue
        assert is_reduced(nu)
        _assert_points_are_the_vertices(nu)
        checked += 1
    assert checked > 50


def _assert_points_are_the_vertices(nu):
    """The paper's identity, on the enumerated points as they come."""
    assert splitorders.correspondence.ApartmentVertex is splitorders.polytope.ApartmentVertex
    points = enumerate_lattice_points(nu)
    assert intersect_maximal(points) == nu
    assert maximal_orders_containing(nu) == points
    for p in points:
        assert type(p) is ApartmentVertex
        assert type(p.m) is tuple and all(type(x) is int for x in p.m)


def test_roundtrip_on_the_worked_example():
    report = verify_roundtrip(NU)
    assert report.ok
    assert report.input_reduced
    assert report.hull == NU
    assert len(report.vertices) == 13
    assert intersect_maximal(list(report.vertices)) == NU


def test_roundtrip_on_the_non_reduced_variant():
    nu_prime = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    report = verify_roundtrip(nu_prime)
    assert report.ok
    assert not report.input_reduced
    assert report.hull == NU


def test_roundtrip_rejects_negative_cycles():
    with pytest.raises(NegativeCycleError):
        verify_roundtrip(ExponentMatrix([[0, -2], [1, 0]]))


def test_roundtrip_random_reduced_matrices():
    rng = random.Random(13)
    done = 0
    while done < 150:
        n = rng.randint(2, 4)
        nu = ExponentMatrix(
            [
                [rng.randint(-3, 5) if i != j else 0 for j in range(n)]
                for i in range(n)
            ]
        )
        if not is_order(nu):
            continue
        reduced = order_hull(nu)
        report = verify_roundtrip(reduced)
        done += 1
        assert report.ok and report.input_reduced
        assert intersect_maximal(list(report.vertices)) == reduced


def test_report_serialization():
    report = verify_roundtrip(NU)
    data = report.to_json_dict()
    assert data["input"] == NU.to_json_dict()
    assert data["hull"] == NU.to_json_dict()
    assert data["hull_fixed"] and data["input_reduced"] and data["reduced_fixed"]
    assert data["vertices"][0] == [0, 0, -1]
