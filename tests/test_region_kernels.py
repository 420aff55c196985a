"""The region kernels at the sizes fuzz and the command line use.

``minplus_closure`` writes out n = 2, 3 and 4, ``enumerate_lattice_points``
extends its points one coordinate level at a time, and
``intersect_maximal`` subtracts each pair of coordinate columns once.
These tests hold each of them to a plain loop or scan on random inputs,
including inputs a region never has: nonzero diagonals, negative cycles
and vertices whose first coordinate is not 0.  The enumeration guard and
intersections of 1-7 vertices and of enumerated vertex sets are tested
in ``test_fuzz_kernels.py``.
"""

import random

import pytest

from splitorders.correspondence import ApartmentVertex, intersect_maximal
from splitorders.exponent import ExponentMatrix, minplus_closure
from splitorders.fuzz import box_scan_points
from splitorders.polytope import enumerate_lattice_points

from _oracles import entrywise_max, loop_minplus_closure, simple_path_closure


def _square(rng, n, lo=-3, hi=5, diagonal=False):
    return [
        [rng.randint(lo, hi) if diagonal or i != j else 0 for j in range(n)]
        for i in range(n)
    ]


# ---------------------------------------------------------------------------
# closure


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closure_matches_the_loop_and_simple_paths(n):
    rng = random.Random(100 + n)
    nones = 0
    for t in range(1500):
        rows = _square(rng, n, diagonal=t % 3 == 0)
        if t % 2:
            rows = [tuple(row) for row in rows]
        got = minplus_closure(rows)
        assert got == loop_minplus_closure(rows)
        nones += got is None
        if t % 3 and n <= 4:
            assert got == simple_path_closure(rows)
    if n > 1:
        assert 0 < nones < 1500


@pytest.mark.parametrize("n", [2, 3, 4])
def test_closure_on_nonzero_diagonals(n):
    rng = random.Random(n)
    for _ in range(1500):
        rows = _square(rng, n, lo=-2, hi=3, diagonal=True)
        assert minplus_closure(rows) == loop_minplus_closure(rows)
    # a positive diagonal entry falls to the weight of the lightest cycle
    rows = [[5 if i == j else 1 for j in range(n)] for i in range(n)]
    assert minplus_closure(rows) == [[2 if i == j else 1 for j in range(n)] for i in range(n)]
    # a negative diagonal entry is a negative cycle, wherever it sits
    for i in range(n):
        rows = [[0] * n for _ in range(n)]
        rows[i][i] = -1
        assert minplus_closure(rows) is None


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_closure_returns_a_new_list_each_call(n):
    rows = tuple(tuple(0 if i == j else 1 + i + j for j in range(n)) for i in range(n))
    first, second = minplus_closure(rows), minplus_closure(rows)
    assert first == second == [list(row) for row in rows]
    assert type(first) is list and all(type(row) is list for row in first)
    assert first is not second
    assert all(a is not b for a, b in zip(first, second))
    listed = [list(row) for row in rows]
    assert minplus_closure(listed) is not listed
    assert all(a is not b for a, b in zip(minplus_closure(listed), listed))


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1, 5], [2, 0, -7]],
        [[0, 1], [2]],
        [[0, 1], [2, 0, 3]],
        [[0, 1, 2], [3, 0, 4], [5, 6]],
        [[0, 1, 2, 3], [0, 0, 0, 0], [0, 0, 0], [0, 0, 0, 0]],
        [[0, 1]],
        [[0, 1, 2, 3, 4]] * 4 + [[0, 0, 0, 0]],
    ],
)
def test_closure_refuses_a_matrix_that_is_not_square(rows):
    with pytest.raises(ValueError, match="matrix must be square"):
        minplus_closure(rows)


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_enumeration_matches_the_box_scan_in_order(n):
    rng = random.Random(200 + n)
    trials, lo = {2: (400, -1), 3: (300, -1), 4: (120, -1), 5: (25, 0)}[n]
    nonempty = unreduced = 0
    for _ in range(trials):
        upper = _square(rng, n, lo=lo, hi=3 if n < 5 else 2)
        points = [v.m for v in enumerate_lattice_points(ExponentMatrix(upper))]
        assert points == box_scan_points(upper)
        nonempty += bool(points)
        unreduced += minplus_closure(upper) not in (None, upper)
    # every feasible 2 x 2 is its own closure
    assert nonempty and (unreduced or n == 2)


# ---------------------------------------------------------------------------
# intersection


def _scan(coords):
    """Entrywise maximum of the maximal orders' exponents m_i - m_j."""
    return entrywise_max([[[mi - mj for mj in m] for mi in m] for m in coords])


def _family(rng, n, size):
    return [ApartmentVertex([rng.randint(-4, 4) for _ in range(n)]) for _ in range(size)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_intersection_with_a_nonzero_first_coordinate(n):
    rng = random.Random(400 + n)
    for size in (1, 2, 5):
        for _ in range(30):
            family = _family(rng, n, size)
            # a vertex given with a nonzero first coordinate is normalized
            # on construction; its maximal order does not see the shift
            shifted = tuple(x + rng.choice((-2, 1, 3)) for x in family[-1].m)
            assert shifted[0] != 0
            family[-1] = ApartmentVertex(shifted)
            assert family[-1].m[0] == 0
            coords = [v.m for v in family[:-1]] + [shifted]
            got = intersect_maximal(family)
            assert [list(row) for row in got.entries] == _scan(coords)
    # a first coordinate of zero and of nonzero across the family
    family = [ApartmentVertex([2, 1]), ApartmentVertex([0, 0])]
    assert intersect_maximal(family).entries == ((0, 1), (0, 0))
