"""Split orders attached to apartments other than the standard one.

An apartment is named by an invertible change of basis gamma: its vertices
are the images gamma L of the diagonal lattices L, and the split orders it
carries are the conjugates gamma S(nu) gamma^(-1) of the standard ones.
Membership, intersection of maximal orders, and incidence of vertices all
transport along gamma, and the elementary divisors of a lattice pair do
not change under the transport at all.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from ._record import Frozen
from .correspondence import ApartmentVertex, intersect_maximal
from .dvr import (
    LocalMatrix,
    _divisor_exponents,
    _int_valuation,
    _mul_rows,
    _membership_test,
    _triple_product,
    conjugate,
    elementary_divisors,
)
from .errors import (
    DimensionMismatchError,
    NotAnOrderError,
    SingularConjugatorError,
    SingularInputError,
)
from .exponent import ExponentMatrix
from .polytope import is_reduced


class Apartment(Frozen):
    """Apartment named by an invertible change of basis from the standard frame.

    ``gamma`` and the inverse kept beside it are frozen, so the inverse cannot go stale.
    """

    __slots__ = ("gamma", "_gamma_inv")

    def __init__(self, gamma: LocalMatrix):
        try:
            inv = gamma.inverse()
        except SingularInputError as exc:
            raise SingularConjugatorError("apartment frame is singular") from exc
        _set_gamma(self, gamma)
        _set_gamma_inv(self, inv)

    @classmethod
    def standard(cls, n: int, prime: int) -> "Apartment":
        return cls(LocalMatrix.identity(n, prime))

    @property
    def n(self) -> int:
        return self.gamma.n

    @property
    def prime(self) -> int:
        return self.gamma.prime

    def is_standard(self) -> bool:
        return self.gamma == LocalMatrix.identity(self.n, self.prime)

    def to_standard(self, A: LocalMatrix) -> LocalMatrix:
        """Pull A back to the standard frame: gamma^(-1) A gamma."""
        return _triple_product(self._gamma_inv, A, self.gamma)

    def from_standard(self, A: LocalMatrix) -> LocalMatrix:
        """Push A out of the standard frame: gamma A gamma^(-1)."""
        return _triple_product(self.gamma, A, self._gamma_inv)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Apartment):
            return NotImplemented
        return self.gamma == other.gamma

    def __repr__(self) -> str:
        return f"Apartment({self.gamma!r})"


class GeneralSplitOrder(Frozen):
    """Conjugate gamma S(nu) gamma^(-1) of a reduced standard split order.

    ``apartment`` and ``nu`` are frozen slots holding frozen values, and
    the order holds nothing else, so it pickles and copies as they do.
    """

    __slots__ = ("apartment", "nu")

    def __init__(self, apartment: Apartment, nu: ExponentMatrix):
        if apartment.n != nu.n:
            raise DimensionMismatchError(
                f"apartment has n = {apartment.n} but exponents have n = {nu.n}"
            )
        if not is_reduced(nu):
            raise NotAnOrderError("exponent matrix must be reduced")
        _set_apartment(self, apartment)
        _set_nu(self, nu)

    @property
    def n(self) -> int:
        return self.nu.n

    @property
    def prime(self) -> int:
        return self.apartment.prime

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralSplitOrder):
            return NotImplemented
        return self.apartment == other.apartment and self.nu == other.nu

    def __repr__(self) -> str:
        return f"GeneralSplitOrder({self.apartment!r}, {self.nu!r})"

    def to_json_dict(self) -> dict:
        return {
            "gamma": self.apartment.gamma.to_json_dict()["entries"],
            "prime": self.prime,
            "nu": self.nu.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneralSplitOrder":
        if not isinstance(data, dict) or not {"gamma", "prime", "nu"} <= set(data):
            raise ValueError("expected an object with 'gamma', 'prime' and 'nu'")
        gamma = LocalMatrix(data["gamma"], data["prime"])
        return cls(Apartment(gamma), ExponentMatrix.from_json_dict(data["nu"]))


_set_gamma = Apartment.gamma.__set__
_set_gamma_inv = Apartment._gamma_inv.__set__
_set_apartment = GeneralSplitOrder.apartment.__set__
_set_nu = GeneralSplitOrder.nu.__set__


def incident(u: ApartmentVertex, v: ApartmentVertex) -> bool:
    """Whether two distinct vertices are joined by an edge.

    The classes are incident when representative lattices can be nested
    between a lattice and p times itself, which happens exactly when the
    coordinate differences v - u take two values at distance 1 (after any
    common shift they land in {0, 1}).
    """
    if u.n != v.n:
        raise DimensionMismatchError("vertices of different dimension")
    diffs = [b - a for a, b in zip(u.m, v.m)]
    return max(diffs) - min(diffs) == 1


def general_membership(S: GeneralSplitOrder, A: LocalMatrix) -> bool:
    """Whether A lies in gamma S(nu) gamma^(-1), by pulling A back to the standard frame.

    The pull-back gamma^(-1) A gamma is tested as the integer triple
    product over the product of the three denominators, without reducing
    it to lowest terms first, by the cached test for (nu, v(den), p).
    """
    nu = S.nu
    if A.n != nu.n:
        raise DimensionMismatchError(f"matrix has n = {A.n} but order has n = {nu.n}")
    left, right = S.apartment._gamma_inv, S.apartment.gamma
    p = A.prime
    if p != right.prime:
        raise ValueError(f"prime mismatch: {p} vs {right.prime}")
    within = _membership_test(nu.entries, _int_valuation(left.den * A.den * right.den, p), p)
    return within(_mul_rows(_mul_rows(left.nums, A.nums), right.nums))


def intersect_in_apartment(
    ap: Apartment, vertices: Sequence[ApartmentVertex]
) -> GeneralSplitOrder:
    """Intersection of the maximal orders at the given vertices of the apartment.

    The exponent data is computed in the standard frame and is already
    reduced, so it needs no hull step; the frame of ``ap`` only tags the
    result.
    """
    return GeneralSplitOrder(ap, intersect_maximal(vertices))


def lattice_basis(v: ApartmentVertex, prime: int) -> LocalMatrix:
    """Diagonal basis matrix diag(p^{m_i}) of the lattice at vertex v."""
    return LocalMatrix.power_diagonal(v.m, prime)


def incident_lattices(L: LocalMatrix, Lp: LocalMatrix) -> bool:
    """Incidence of the homothety classes of two lattices.

    Determined by the elementary divisors: the classes are incident when
    the exponents take exactly two values at distance 1.
    """
    e = elementary_divisors(L, Lp)
    return e[-1] - e[0] == 1


def divisor_invariance_check(
    gamma: LocalMatrix, L: LocalMatrix, Lp: LocalMatrix
) -> bool:
    """Whether elementary divisors survive transport by gamma.

    Compares the divisors of (L, Lp) with those of (gamma L, gamma Lp),
    each computed from scratch on its own pair; gamma L and gamma Lp are
    read as raw integer products, not reduced to lowest terms.
    """
    before = elementary_divisors(L, Lp)
    gamma._require_compatible(L)
    gamma._require_compatible(Lp)
    return before == _divisor_exponents(
        _mul_rows(gamma.nums, L.nums), gamma.den * L.den,
        _mul_rows(gamma.nums, Lp.nums), gamma.den * Lp.den, gamma.prime,
    )
