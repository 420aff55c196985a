"""Difference-constraint regions of exponent matrices.

An n x n exponent matrix ``nu`` is its own region, the points of the
coordinates (x_0, ..., x_{n-1}) with x_0 pinned to 0 and

    x_i - x_j <= nu[i][j]        for all i, j;

so every function here takes ``nu``, and those that need its closure read
the one kept on it.  The region is empty exactly when
``has_containing_maximal(nu)`` is false, and bounded, as the constraints
against coordinate 0 read
``-nu[0][i] <= x_i <= nu[i][0]``.  Its integer points are the vertices of
the maximal orders containing S(nu), and the exact maxima of the
coordinate differences over it are minimal path sums in the arc-weighted
digraph of ``nu``.
"""

from __future__ import annotations

from operator import add, sub
from typing import Iterable

from ._record import Frozen
from .errors import EmptyPolytopeError, EnumerationLimitError
from .exponent import ExponentMatrix, _cached_closure, check_index_pair, int_tuple

# Re-exported under its old import path (perfbench/test_referees.py checks that
# the tracer rebinds it here); nothing in this module calls it.
from .exponent import minplus_closure

DEFAULT_POINT_LIMIT = 10**6


class ApartmentVertex(Frozen):
    """Vertex of the standard apartment, normalized so the first coordinate is 0."""

    __slots__ = ("m",)

    def __init__(self, coords: Iterable[int]):
        m = int_tuple(coords)
        if len(m) < 2:
            raise ValueError("vertex needs at least 2 coordinates")
        if m[0] != 0:
            base = m[0]
            m = tuple(x - base for x in m)
        _set_m(self, m)

    @classmethod
    def _trusted(cls, tuples: Iterable[tuple[int, ...]]) -> list["ApartmentVertex"]:
        """Vertices at tuples of plain ints with first coordinate 0, unchecked."""
        new = object.__new__
        vertices = []
        for m in tuples:
            v = new(cls)
            _set_m(v, m)
            vertices.append(v)
        return vertices

    @property
    def n(self) -> int:
        return len(self.m)

    def _key(self) -> tuple[int, ...]:
        return self.m

    def __lt__(self, other: object) -> bool:
        if not isinstance(other, ApartmentVertex):
            return NotImplemented
        return self.m < other.m

    def __repr__(self) -> str:
        return f"ApartmentVertex({list(self.m)})"


_set_m = ApartmentVertex.m.__set__


def difference_range(nu: ExponentMatrix, i: int, j: int) -> tuple[int, int]:
    """Declared two-sided bound (lo, hi) with lo <= x_i - x_j <= hi in the
    region of ``nu``; raises TypeError and IndexError as ``check_index_pair``."""
    check_index_pair(i, j, nu.n, "coordinate pair")
    u = nu.entries
    return (-u[j][i], u[i][j])


def contains(nu: ExponentMatrix, coords: Iterable[int]) -> bool:
    """Whether an integer point satisfies every declared constraint of ``nu``.

    Coordinates are read as by ``int_tuple``: a bool or a non-integral
    value raises instead of being coerced.
    """
    x = int_tuple(coords)
    if len(x) != nu.n or x[0] != 0:
        return False
    return all(xi - xj <= uij for xi, ui in zip(x, nu.entries) for xj, uij in zip(x, ui))


def max_difference(nu: ExponentMatrix, i: int, j: int) -> int:
    """Exact maximum of x_i - x_j over the region of ``nu``.

    This is the minimal path sum from i to j in the digraph of bounds,
    which the region attains.  Raises EmptyPolytopeError when the region
    is empty, and TypeError and IndexError as ``check_index_pair``.
    """
    check_index_pair(i, j, nu.n, "coordinate pair")
    closed = _cached_closure(nu)
    if not closed:
        raise EmptyPolytopeError("region is empty; differences have no maximum")
    return closed[i][j]


def enumerate_lattice_points(nu: ExponentMatrix) -> list[ApartmentVertex]:
    """All integer points of the region of ``nu``, in lexicographic coordinate order.

    Scans the bounding box ``-upper[0][i] <= x_i <= upper[i][0]`` one
    coordinate at a time, level by level: each range is narrowed against
    the coordinates already fixed, so infeasible branches are skipped
    early.  Returns the empty list exactly when the region is empty.

    Raises EnumerationLimitError when the bounding box of a nonempty region
    holds more than ``DEFAULT_POINT_LIMIT`` cells, a fixed guard.
    """
    n = nu.n
    u = nu.entries
    if not _cached_closure(nu):
        return []
    box = 1
    for i in range(1, n):
        box *= u[i][0] + u[0][i] + 1
        if box > DEFAULT_POINT_LIMIT:
            raise EnumerationLimitError(
                f"bounding box has more than {DEFAULT_POINT_LIMIT} cells"
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
