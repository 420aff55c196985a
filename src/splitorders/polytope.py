"""Difference-constraint regions attached to exponent matrices.

The region of an n x n exponent matrix ``nu`` lives in coordinates
(x_0, ..., x_{n-1}) with x_0 pinned to 0 and consists of the points with

    x_i - x_j <= nu[i][j]        for all i, j.

Because the constraints against coordinate 0 read
``-nu[0][i] <= x_i <= nu[i][0]``, the region is always bounded.  Its
integer points are the vertices of the maximal orders containing S(nu),
and the exact maxima of the coordinate differences over the region are
minimal path sums in the arc-weighted digraph of ``nu``.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable, Sequence

from .errors import EmptyPolytopeError, EnumerationLimitError
from .exponent import ExponentMatrix, _cached_closure, int_tuple

# Re-exported under its old import path (perfbench/test_referees.py checks that
# the tracer rebinds it here); nothing in this module calls it.
from .exponent import minplus_closure

DEFAULT_POINT_LIMIT = 10**6


class DifferencePolytope:
    """Region cut out by the two-sided difference bounds of an exponent matrix.

    ``nu`` is that matrix, and ``n`` and ``upper`` read its size and
    entries; the region reads the min-plus closure kept on ``nu``.
    Equality, hashing and repr compare the bounds only.
    """

    __slots__ = ("nu",)

    def __init__(self, upper: Sequence[Sequence[int]]):
        self.nu = ExponentMatrix(upper)

    @property
    def n(self) -> int:
        return self.nu.n

    @property
    def upper(self) -> tuple[tuple[int, ...], ...]:
        return self.nu.entries

    def difference_range(self, i: int, j: int) -> tuple[int, int]:
        """Declared two-sided bound (lo, hi) with lo <= x_i - x_j <= hi."""
        return (-self.upper[j][i], self.upper[i][j])

    def contains(self, coords: Iterable[int]) -> bool:
        """Whether an integer point satisfies every declared constraint.

        Coordinates are read as by ``int_tuple``: a bool or a non-integral
        value raises instead of being coerced.
        """
        x = int_tuple(coords)
        if len(x) != self.n or x[0] != 0:
            return False
        u = self.upper
        for i in range(self.n):
            xi = x[i]
            ui = u[i]
            for j in range(self.n):
                if xi - x[j] > ui[j]:
                    return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DifferencePolytope):
            return NotImplemented
        return self.upper == other.upper

    def __hash__(self) -> int:
        return hash(self.upper)

    def __repr__(self) -> str:
        rows = ", ".join(repr(list(row)) for row in self.upper)
        return f"DifferencePolytope([{rows}])"


class ApartmentVertex:
    """Vertex of the standard apartment, normalized so the first coordinate is 0."""

    __slots__ = ("m",)

    def __init__(self, coords: Iterable[int]):
        m = int_tuple(coords)
        if len(m) < 2:
            raise ValueError("vertex needs at least 2 coordinates")
        if m[0] != 0:
            base = m[0]
            m = tuple(x - base for x in m)
        self.m = m

    @classmethod
    def _trusted(cls, tuples: Iterable[tuple[int, ...]]) -> list["ApartmentVertex"]:
        """Vertices at tuples of plain ints with first coordinate 0, unchecked."""
        new = object.__new__
        vertices = []
        for m in tuples:
            v = new(cls)
            v.m = m
            vertices.append(v)
        return vertices

    @property
    def n(self) -> int:
        return len(self.m)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ApartmentVertex):
            return NotImplemented
        return self.m == other.m

    def __hash__(self) -> int:
        return hash(self.m)

    def __lt__(self, other: "ApartmentVertex") -> bool:
        return self.m < other.m

    def __repr__(self) -> str:
        return f"ApartmentVertex({list(self.m)})"


def polytope_of(nu: ExponentMatrix) -> DifferencePolytope:
    """Difference region of an exponent matrix (entries become the upper bounds).

    The region keeps ``nu`` itself, so the two share one cached closure.
    """
    P = object.__new__(DifferencePolytope)
    P.nu = nu
    return P


def is_empty(P: DifferencePolytope) -> bool:
    """Whether the region has no point; detected by a negative cycle of bounds."""
    return not _cached_closure(P.nu)


def max_difference(P: DifferencePolytope, i: int, j: int) -> int:
    """Exact maximum of x_i - x_j over the region.

    This is the minimal path sum from i to j in the digraph of bounds,
    which the region attains.  Raises EmptyPolytopeError when the region
    is empty, IndexError on out-of-range coordinates and TypeError on
    bool ones.
    """
    n = P.n
    if type(i) is bool or type(j) is bool:
        raise TypeError(f"coordinate pair ({i!r}, {j!r}) is not a pair of integers")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"coordinate pair ({i}, {j}) out of range for n = {n}")
    closed = _cached_closure(P.nu)
    if not closed:
        raise EmptyPolytopeError("region is empty; differences have no maximum")
    return closed[i][j]


def enumerate_lattice_points(
    P: DifferencePolytope, *, max_points: int = DEFAULT_POINT_LIMIT
) -> list[ApartmentVertex]:
    """All integer points of the region, in lexicographic coordinate order.

    Scans the bounding box ``-upper[0][i] <= x_i <= upper[i][0]`` one
    coordinate at a time, level by level: each range is narrowed against
    the coordinates already fixed, so infeasible branches are skipped
    early.  Returns the empty list exactly when the region is empty.

    Raises EnumerationLimitError when the bounding box holds more than
    ``max_points`` cells.
    """
    nu = P.nu
    n = nu.n
    u = nu.entries
    if not _cached_closure(nu):
        return []
    box = 1
    for i in range(1, n):
        box *= u[i][0] + u[0][i] + 1
        if box > max_points:
            raise EnumerationLimitError(
                f"bounding box has more than {max_points} cells"
            )
    # x_idx >= x_i - u[i][idx] and x_idx <= x_i + u[idx][i] for i < idx; the
    # ranges use the declared bounds, not the closure, so that enumeration
    # stays an independent check of max_difference.  Extending every prefix
    # of one level in order keeps the points in lexicographic order.
    level = [(0,)]
    for idx in range(1, n):
        below = [u[i][idx] for i in range(idx)]
        above = u[idx][:idx]
        level = [
            prefix + (x,)
            for prefix in level
            for x in range(max(map(sub, prefix, below)), min(map(add, prefix, above)) + 1)
        ]
    return ApartmentVertex._trusted(level)


def is_reduced(nu: ExponentMatrix) -> bool:
    """Whether the region of ``nu`` is nonempty and every declared bound is attained.

    Computed geometrically: the exact maxima of the coordinate differences
    (minimal path sums) must reproduce every entry of ``nu``.  An empty
    region is never reduced.
    """
    # the empty tuple that marks a negative cycle equals no matrix
    return _cached_closure(nu) == nu.entries
