"""Exponent matrices and the multiplicative order criterion.

An n x n integer matrix ``nu`` with zero diagonal describes the subset
``S(nu)`` of n x n matrices over a local field whose (i, j) entry has
p-adic valuation at least ``nu[i][j]``.  Any such set contains the ring
of diagonal integral matrices and is stable under addition; it is a ring,
hence an order, exactly when the triangle inequalities

    nu[i][k] + nu[k][j] >= nu[i][j]      for all i, j, k

hold.  The minimal closure of ``nu`` under these inequalities is computed
by all-pairs minimal path sums over the complete digraph whose arc
(i -> j) carries weight ``nu[i][j]``.  Each matrix computes that closure at
most once and keeps it; everything that needs it reads the kept copy.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional, Sequence

from ._record import Frozen
from .errors import (
    NegativeCycleError,
    NonZeroDiagonalError,
    NotAnOrderError,
    UnsupportedDimensionError,
)


_INT_ONLY = frozenset([int])


def _as_int(x, noun: str = "entry") -> int:
    """x as an int; integral floats convert, other non-integers raise,
    with ``noun`` naming x in the message."""
    if type(x) is float:
        if x.is_integer():
            return int(x)
        raise ValueError(f"{noun} {x!r} is not an integer")
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise TypeError(f"{noun} {x!r} is not an integer")


def _closed_fields(data: dict, fields: tuple[str, ...]) -> None:
    """Refuse (ValueError) a key of the input object ``data`` outside
    ``fields``: an unknown key is a mistake, never silently ignored."""
    for key in data:
        if key not in fields:
            names = [repr(f) for f in fields]
            raise ValueError(
                f"unknown field {key!r}; the fields are {', '.join(names[:-1])} and {names[-1]}"
            )


def int_tuple(values: Iterable) -> tuple[int, ...]:
    """Values as a tuple of ints, without truncation.

    Accepts ints, integral finite floats and integer-like objects (those
    with ``__index__``); raises TypeError on bools, strings and other
    types, and ValueError on non-integral or non-finite floats.  A tuple
    of plain ints passes through after one type scan.
    """
    t = tuple(values)
    if _INT_ONLY.issuperset(map(type, t)):
        return t
    return tuple(map(_as_int, t))


def check_index_pair(i, j, n: int, noun: str = "index pair") -> None:
    """Raises TypeError unless i and j are ints (a bool is refused) and
    IndexError unless both lie in 0..n-1; ``noun`` names the pair."""
    if type(i) is bool or type(j) is bool or not (isinstance(i, int) and isinstance(j, int)):
        raise TypeError(f"{noun} ({i!r}, {j!r}) is not a pair of integers")
    if not (0 <= i < n and 0 <= j < n):
        raise IndexError(f"{noun} ({i}, {j}) out of range for n = {n}")


class ExponentMatrix(Frozen):
    """Square integer matrix with zero diagonal.

    Instances are immutable: entries are stored as a tuple of tuples, and
    ``Frozen`` refuses assignment and deletion, so the slots are written
    only through their descriptors' ``__set__``.
    ``_closure`` caches the min-plus closure of the entries (see
    ``_cached_closure``); equality, hashing and repr ignore it.
    """

    __slots__ = ("n", "entries", "_closure")

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(map(int_tuple, entries))
        n = len(rows)
        if n < 2:
            raise ValueError(f"exponent matrix needs dimension >= 2, got {n}")
        if any(len(row) != n for row in rows):
            raise ValueError("exponent matrix must be square")
        for i in range(n):
            if rows[i][i] != 0:
                raise NonZeroDiagonalError(
                    f"diagonal entry ({i}, {i}) is {rows[i][i]}, expected 0"
                )
        _set_n(self, n)
        _set_entries(self, rows)
        _set_closure(self, None)

    @classmethod
    def _trusted(cls, rows: tuple[tuple[int, ...], ...], closure=None) -> "ExponentMatrix":
        """Matrix on a tuple of n >= 2 tuples of n plain ints with zero
        diagonal, unchecked; ``closure``, when given, is their cached closure."""
        m = object.__new__(cls)
        _set_n(m, len(rows))
        _set_entries(m, rows)
        _set_closure(m, closure)
        return m

    def entry(self, i: int, j: int) -> int:
        """Entry (i, j); raises TypeError and IndexError as ``check_index_pair``."""
        check_index_pair(i, j, self.n, "entry")
        return self.entries[i][j]

    def _key(self) -> tuple[tuple[int, ...], ...]:
        return self.entries

    def __repr__(self) -> str:
        rows = ", ".join(repr(list(row)) for row in self.entries)
        return f"ExponentMatrix([{rows}])"

    def to_json_dict(self) -> dict:
        return {"n": self.n, "nu": [list(row) for row in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "ExponentMatrix":
        if not isinstance(data, dict) or "nu" not in data:
            raise ValueError("expected an object with an 'nu' field")
        _closed_fields(data, ("n", "nu"))
        matrix = cls(data["nu"])
        declared = data.get("n")
        if declared is not None and declared != matrix.n:
            raise ValueError(f"declared n = {declared!r} but matrix has n = {matrix.n}")
        return matrix


_set_n = ExponentMatrix.n.__set__
_set_entries = ExponentMatrix.entries.__set__
_set_closure = ExponentMatrix._closure.__set__


def is_order(nu: ExponentMatrix) -> bool:
    """Whether ``S(nu)`` is closed under multiplication.

    Checks the triangle inequality ``nu[i][k] + nu[k][j] >= nu[i][j]``
    for every index triple by direct scan, independent of the closure.
    """
    return first_violation(nu) is None


def first_violation(nu: ExponentMatrix) -> Optional[tuple[int, int, int]]:
    """First triple (i, k, j) with ``nu[i][k] + nu[k][j] < nu[i][j]``.

    Indices are scanned in row-major order (i, then j, then k), so the
    result is deterministic.  Returns None when ``nu`` is an order.
    """
    rows = nu.entries
    n = nu.n
    for i in range(n):
        ri = rows[i]
        for j in range(n):
            rij = ri[j]
            for k in range(n):
                if ri[k] + rows[k][j] < rij:
                    return (i, k, j)
    return None


def minplus_closure(entries: Sequence[Sequence[int]]) -> Optional[list[list[int]]]:
    """All-pairs minimal path sums, or None when a negative cycle exists.

    Runs the classical relaxation over intermediate vertices.  Entry
    (i, j) of the result is the minimum, over all directed paths from i
    to j, of the total arc weight; the diagonal stays zero exactly when
    every cycle has nonnegative weight.  The result is a new list of
    lists.  Raises ValueError when ``entries`` is not square.

    n = 2, 3 and 4 are written out entry by entry, with the loop's result
    on every input.  While the pivot's diagonal entry d[k][k] is
    nonnegative, relaxing row k or column k through k changes nothing;
    once a diagonal entry is negative it stays negative and the result is
    None.  So each pivot returns None on a negative d[k][k] and relaxes
    the other (n - 1)^2 entries.  No check is left for the end: a
    negative cycle has shown up on the diagonal of its highest vertex by
    the time that vertex is the pivot.
    """
    n = len(entries)
    if n == 2:
        try:
            (a00, a01), (a10, a11) = entries
        except ValueError:
            raise ValueError("matrix must be square") from None
        if a00 < 0:
            return None
        if (s := a10 + a01) < a11:
            a11 = s
        if a11 < 0:
            return None
        if (s := a01 + a10) < a00:
            a00 = s
        return [[a00, a01], [a10, a11]]
    if n == 3:
        try:
            (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = entries
        except ValueError:
            raise ValueError("matrix must be square") from None
        if a00 < 0:
            return None
        if (s := a10 + a01) < a11:
            a11 = s
        if (s := a10 + a02) < a12:
            a12 = s
        if (s := a20 + a01) < a21:
            a21 = s
        if (s := a20 + a02) < a22:
            a22 = s
        if a11 < 0:
            return None
        if (s := a01 + a10) < a00:
            a00 = s
        if (s := a01 + a12) < a02:
            a02 = s
        if (s := a21 + a10) < a20:
            a20 = s
        if (s := a21 + a12) < a22:
            a22 = s
        if a22 < 0:
            return None
        if (s := a02 + a20) < a00:
            a00 = s
        if (s := a02 + a21) < a01:
            a01 = s
        if (s := a12 + a20) < a10:
            a10 = s
        if (s := a12 + a21) < a11:
            a11 = s
        return [[a00, a01, a02], [a10, a11, a12], [a20, a21, a22]]
    if n == 4:
        try:
            (
                (a00, a01, a02, a03),
                (a10, a11, a12, a13),
                (a20, a21, a22, a23),
                (a30, a31, a32, a33),
            ) = entries
        except ValueError:
            raise ValueError("matrix must be square") from None
        if a00 < 0:
            return None
        if (s := a10 + a01) < a11:
            a11 = s
        if (s := a10 + a02) < a12:
            a12 = s
        if (s := a10 + a03) < a13:
            a13 = s
        if (s := a20 + a01) < a21:
            a21 = s
        if (s := a20 + a02) < a22:
            a22 = s
        if (s := a20 + a03) < a23:
            a23 = s
        if (s := a30 + a01) < a31:
            a31 = s
        if (s := a30 + a02) < a32:
            a32 = s
        if (s := a30 + a03) < a33:
            a33 = s
        if a11 < 0:
            return None
        if (s := a01 + a10) < a00:
            a00 = s
        if (s := a01 + a12) < a02:
            a02 = s
        if (s := a01 + a13) < a03:
            a03 = s
        if (s := a21 + a10) < a20:
            a20 = s
        if (s := a21 + a12) < a22:
            a22 = s
        if (s := a21 + a13) < a23:
            a23 = s
        if (s := a31 + a10) < a30:
            a30 = s
        if (s := a31 + a12) < a32:
            a32 = s
        if (s := a31 + a13) < a33:
            a33 = s
        if a22 < 0:
            return None
        if (s := a02 + a20) < a00:
            a00 = s
        if (s := a02 + a21) < a01:
            a01 = s
        if (s := a02 + a23) < a03:
            a03 = s
        if (s := a12 + a20) < a10:
            a10 = s
        if (s := a12 + a21) < a11:
            a11 = s
        if (s := a12 + a23) < a13:
            a13 = s
        if (s := a32 + a20) < a30:
            a30 = s
        if (s := a32 + a21) < a31:
            a31 = s
        if (s := a32 + a23) < a33:
            a33 = s
        if a33 < 0:
            return None
        if (s := a03 + a30) < a00:
            a00 = s
        if (s := a03 + a31) < a01:
            a01 = s
        if (s := a03 + a32) < a02:
            a02 = s
        if (s := a13 + a30) < a10:
            a10 = s
        if (s := a13 + a31) < a11:
            a11 = s
        if (s := a13 + a32) < a12:
            a12 = s
        if (s := a23 + a30) < a20:
            a20 = s
        if (s := a23 + a31) < a21:
            a21 = s
        if (s := a23 + a32) < a22:
            a22 = s
        return [
            [a00, a01, a02, a03],
            [a10, a11, a12, a13],
            [a20, a21, a22, a23],
            [a30, a31, a32, a33],
        ]
    dist = [list(row) for row in entries]
    if any(len(row) != n for row in dist):
        raise ValueError("matrix must be square")
    for k in range(n):
        dk = dist[k]
        for i in range(n):
            di = dist[i]
            dik = di[k]
            for j in range(n):
                s = dik + dk[j]
                if s < di[j]:
                    di[j] = s
    for i in range(n):
        if dist[i][i] < 0:
            return None
    return dist


def _cached_closure(nu: ExponentMatrix) -> tuple[tuple[int, ...], ...]:
    """Min-plus closure of ``nu``, kept in ``nu._closure``.

    On first use the slot is filled from this module's ``minplus_closure``,
    looked up at call time, with a tuple of row tuples, or with the empty
    tuple on a negative cycle; so the result is false exactly when there
    is a negative cycle.
    """
    closed = nu._closure
    if closed is None:
        dist = minplus_closure(nu.entries)
        closed = () if dist is None else tuple(map(tuple, dist))
        _set_closure(nu, closed)
    return closed


def has_containing_maximal(nu: ExponentMatrix) -> bool:
    """Whether some maximal order contains ``S(nu)``.

    Equivalent to every directed cycle of exponents having nonnegative
    weight, and to the difference region of ``nu`` being nonempty.
    """
    return bool(_cached_closure(nu))


def order_hull(nu: ExponentMatrix) -> ExponentMatrix:
    """Smallest order containing ``S(nu)``, as an exponent matrix.

    The hull replaces each entry by the minimal path sum between its
    indices; it leaves orders fixed and never increases an entry.

    Raises NegativeCycleError when no containing maximal order exists.
    """
    closed = _cached_closure(nu)
    if not closed:
        raise NegativeCycleError(
            "exponent matrix has a negative cycle; no order contains it"
        )
    # a closure is idempotent: the hull is its own closure
    return ExponentMatrix._trusted(closed, closed)


def hijikata_normal_form(nu: ExponentMatrix) -> int:
    """Level of a 2 x 2 exponent order: the sum ``nu[0][1] + nu[1][0]``.

    Every 2 x 2 order of this shape is conjugate, by a diagonal change of
    basis, to the one with exponents [[0, 0], [level, 0]], and the level
    is the distance between the two endpoint vertices on the tree whose
    maximal orders cut out the order.

    Raises UnsupportedDimensionError unless n = 2, and NotAnOrderError
    when the sum is negative.
    """
    if nu.n != 2:
        raise UnsupportedDimensionError(f"normal form needs n = 2, got n = {nu.n}")
    level = nu.entries[0][1] + nu.entries[1][0]
    if level < 0:
        raise NotAnOrderError(f"nu[0][1] + nu[1][0] = {level} < 0, not an order")
    return level
