"""The two directions of the order / region correspondence.

A vertex of the standard apartment is an integer vector m, taken up to a
common shift, and stands for the homothety class of the diagonal lattice
with elementary divisor exponents m.  Its maximal order has exponent
matrix ``m_i - m_j``; intersecting a family of maximal orders takes the
entrywise maximum of their exponent matrices.  Conversely m contains
S(nu) iff m_i - m_j <= nu[i][j] for all i, j, so the maximal orders
containing S(nu) are the integer points of the region of ``nu``, listed by
``enumerate_lattice_points``; for reduced ``nu`` the two directions invert.
"""

from __future__ import annotations

from operator import sub
from typing import Sequence

from ._record import FrozenRecord
from .errors import DimensionMismatchError, EmptyVertexListError
from .exponent import ExponentMatrix, order_hull
from .polytope import ApartmentVertex, enumerate_lattice_points, is_reduced


def maximal_order_exponents(v: ApartmentVertex) -> ExponentMatrix:
    """Exponent matrix of the maximal order at vertex v: entry (i, j) is m_i - m_j."""
    m = v.m
    return ExponentMatrix._trusted(tuple([tuple([mi - mj for mj in m]) for mi in m]))


def intersect_maximal(vertices: Sequence[ApartmentVertex]) -> ExponentMatrix:
    """Exponent matrix of the intersection of the maximal orders at the vertices.

    Ideals intersect to the larger exponent, so the result is the
    entrywise maximum of the coordinate differences over the family.  Each
    pair of coordinates is subtracted once: the maximum of m_i - m_j gives
    entry (i, j) and minus its minimum gives entry (j, i).  Every vertex
    has m_0 = 0, so the pairs with coordinate 0 need no subtraction.

    Raises EmptyVertexListError on an empty family and
    DimensionMismatchError when the vertices disagree on n.
    """
    ms = [v.m for v in vertices]
    if not ms:
        raise EmptyVertexListError("intersection over an empty vertex family")
    # column i holds coordinate i of every vertex; entry (i, j) is the
    # largest and entry (j, i) minus the least difference of columns i, j
    try:
        cols = list(zip(*ms, strict=True))
    except ValueError:
        raise DimensionMismatchError("vertices of different dimension") from None
    n = len(cols)
    rows = [[0] * n for _ in range(n)]
    for j in range(1, n):
        rows[j][0] = max(cols[j])
        rows[0][j] = -min(cols[j])
    for i in range(1, n - 1):
        ci = cols[i]
        ri = rows[i]
        for j in range(i + 1, n):
            d = list(map(sub, ci, cols[j]))
            ri[j] = max(d)
            rows[j][i] = -min(d)
    return ExponentMatrix._trusted(tuple(map(tuple, rows)))


# the maximal orders containing S(nu) are the integer points of the region of nu
maximal_orders_containing = enumerate_lattice_points


class RoundtripReport(FrozenRecord):
    """Outcome of sending an exponent matrix through both directions."""

    __match_args__ = (
        "nu", "hull", "vertices", "hull_fixed", "input_reduced", "reduced_fixed"
    )

    def __init__(
        self,
        nu: ExponentMatrix,
        hull: ExponentMatrix,
        vertices: tuple[ApartmentVertex, ...],
        hull_fixed: bool,
        input_reduced: bool,
        reduced_fixed: bool,
    ):
        self._set(nu, hull, vertices, hull_fixed, input_reduced, reduced_fixed)

    @property
    def ok(self) -> bool:
        return self.hull_fixed and self.reduced_fixed

    def to_json_dict(self) -> dict:
        return {
            "input": self.nu.to_json_dict(),
            "hull": self.hull.to_json_dict(),
            "vertices": [list(v.m) for v in self.vertices],
            "hull_fixed": self.hull_fixed,
            "input_reduced": self.input_reduced,
            "reduced_fixed": self.reduced_fixed,
        }


def verify_roundtrip(nu: ExponentMatrix) -> RoundtripReport:
    """Check that intersecting the containing maximal orders recovers the hull.

    ``hull_fixed`` records whether the intersection of the vertices of the
    hull reproduces the hull exactly; ``reduced_fixed`` records whether a
    reduced input is recovered exactly (vacuously true otherwise).  Both
    flags hold for every input with a containing maximal order.

    Raises NegativeCycleError when no maximal order contains S(nu).
    """
    hull = order_hull(nu)
    vertices = tuple(maximal_orders_containing(hull))
    refix = intersect_maximal(vertices)
    input_reduced = is_reduced(nu)
    return RoundtripReport(
        nu=nu,
        hull=hull,
        vertices=vertices,
        hull_fixed=refix == hull,
        input_reduced=input_reduced,
        reduced_fixed=(not input_reduced) or refix == nu,
    )
