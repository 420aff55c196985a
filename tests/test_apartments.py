import random
from fractions import Fraction

import pytest

from splitorders.apartments import (
    Apartment,
    GeneralSplitOrder,
    divisor_invariance_check,
    general_membership,
    incident,
    incident_lattices,
    intersect_in_apartment,
    lattice_basis,
)
from splitorders.correspondence import ApartmentVertex, intersect_maximal
from splitorders.dvr import LocalMatrix, lambda_membership, sample_split_order_element
from splitorders.errors import (
    DimensionMismatchError,
    NotAnOrderError,
    SingularConjugatorError,
)
from splitorders.exponent import ExponentMatrix, order_hull

from _oracles import incidence_by_shift

NU = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])


def test_standard_apartment():
    ap = Apartment.standard(3, 2)
    assert ap.is_standard()
    assert ap.n == 3 and ap.prime == 2
    A = LocalMatrix([[1, "1/2"], [4, 3]], 2)
    ap2 = Apartment.standard(2, 2)
    assert ap2.to_standard(A) == A
    assert ap2.from_standard(A) == A


def test_apartment_rejects_singular_frame():
    with pytest.raises(SingularConjugatorError):
        Apartment(LocalMatrix([[1, 1], [1, 1]], 2))


def test_transport_roundtrip():
    rng = random.Random(7)
    for _ in range(40):
        gamma = _rand_invertible(rng, 3, 2)
        ap = Apartment(gamma)
        A = LocalMatrix(
            [[Fraction(rng.randint(-20, 20), rng.choice((1, 2, 4))) for _ in range(3)] for _ in range(3)],
            2,
        )
        assert ap.from_standard(ap.to_standard(A)) == A
        assert ap.to_standard(ap.from_standard(A)) == A


def test_general_split_order_requires_reduced():
    gamma = LocalMatrix.identity(3, 2)
    with pytest.raises(NotAnOrderError):
        GeneralSplitOrder(Apartment(gamma), ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]]))
    S = GeneralSplitOrder(Apartment(gamma), NU)
    assert S.nu == NU


def test_general_split_order_dimension_check():
    with pytest.raises(DimensionMismatchError):
        GeneralSplitOrder(Apartment(LocalMatrix.identity(2, 2)), NU)


def test_general_membership_refuses_a_size_or_prime_mismatch():
    S = GeneralSplitOrder(Apartment.standard(2, 3), ExponentMatrix([[0, 0], [0, 0]]))
    with pytest.raises(DimensionMismatchError, match="^matrix has n = 3 but order has n = 2$"):
        general_membership(S, LocalMatrix.identity(3, 3))
    with pytest.raises(ValueError, match="^prime mismatch: 5 vs 3$"):
        general_membership(S, LocalMatrix.identity(2, 5))


def test_standard_membership_reduces_to_in_split_order():
    S = GeneralSplitOrder(Apartment.standard(3, 2), NU)
    # p * E(1,3) lies in S since nu[0][2] = 1; so does the identity
    assert general_membership(S, LocalMatrix.matrix_unit(3, 0, 2, 2, exponent=1))
    assert general_membership(S, LocalMatrix.identity(3, 2))
    assert general_membership(S, LocalMatrix.matrix_unit(3, 1, 0, 2, exponent=3))
    assert not general_membership(S, LocalMatrix.matrix_unit(3, 1, 0, 2, exponent=2))


def test_standard_frame_agrees_with_direct_membership():
    from splitorders.dvr import in_split_order

    rng = random.Random(61)
    S = GeneralSplitOrder(Apartment.standard(3, 2), NU)
    for _ in range(100):
        rows = [
            [Fraction(rng.randint(-16, 16), rng.choice((1, 2, 4))) for _ in range(3)]
            for _ in range(3)
        ]
        A = LocalMatrix(rows, 2)
        assert general_membership(S, A) == in_split_order(A, NU)


def test_transported_member_of_the_example():
    rng = random.Random(67)
    for _ in range(20):
        gamma = _rand_invertible(rng, 3, 2)
        S = GeneralSplitOrder(Apartment(gamma), NU)
        inside = LocalMatrix.matrix_unit(3, 0, 2, 2, exponent=1)
        moved = gamma @ inside @ gamma.inverse()
        assert general_membership(S, moved)


def test_membership_transport_agrees_pointwise():
    rng = random.Random(31)
    family = [ApartmentVertex([0, 1, 0]), ApartmentVertex([0, 2, 1]), ApartmentVertex([0, 0, -1])]
    mu = intersect_maximal(family)
    for _ in range(25):
        gamma = _rand_invertible(rng, 3, 2)
        ap = Apartment(gamma)
        S = intersect_in_apartment(ap, family)
        assert S.nu == order_hull(mu)
        for _ in range(20):
            A = ap.from_standard(sample_split_order_element(S.nu, rng, 2))
            assert general_membership(S, A)
            pulled = ap.to_standard(A)
            assert all(lambda_membership(pulled, v) for v in family)
        B = ap.from_standard(LocalMatrix.matrix_unit(3, 0, 1, 2, exponent=-5))
        assert not general_membership(S, B)


def test_intersect_in_apartment_standard_frame():
    ap = Apartment.standard(3, 2)
    family = [ApartmentVertex([0, 0, -1]), ApartmentVertex([0, 3, 2]), ApartmentVertex([0, 1, 3])]
    S = intersect_in_apartment(ap, family)
    assert S.nu == NU


def test_incidence_frozen():
    assert incident(ApartmentVertex([0, 0, 0]), ApartmentVertex([0, 0, 1]))
    assert incident(ApartmentVertex([0, 0, 0]), ApartmentVertex([0, 1, 1]))
    assert not incident(ApartmentVertex([0, 0, 2]), ApartmentVertex([0, 1, 1]))
    assert not incident(ApartmentVertex([0, 0, 0]), ApartmentVertex([0, 0, 0]))


def test_incidence_matches_shift_oracle():
    rng = random.Random(43)
    for _ in range(400):
        n = rng.randint(2, 4)
        u = ApartmentVertex([rng.randint(-3, 3) for _ in range(n)])
        v = ApartmentVertex([rng.randint(-3, 3) for _ in range(n)])
        assert incident(u, v) == incidence_by_shift(u.m, v.m)


def test_incidence_dimension_check():
    with pytest.raises(DimensionMismatchError):
        incident(ApartmentVertex([0, 1]), ApartmentVertex([0, 1, 2]))


def test_incident_lattices_match_vertex_incidence():
    rng = random.Random(47)
    for p in (2, 3, 5):
        for _ in range(60):
            n = rng.randint(2, 3)
            u = ApartmentVertex([rng.randint(-2, 2) for _ in range(n)])
            v = ApartmentVertex([rng.randint(-2, 2) for _ in range(n)])
            if u == v:
                continue
            got = incident_lattices(lattice_basis(u, p), lattice_basis(v, p))
            assert got == incident(u, v)


def test_lattice_basis():
    L = lattice_basis(ApartmentVertex([0, 3, -1]), 2)
    assert L == LocalMatrix.diagonal([1, 8, "1/2"], 2)


def test_divisor_invariance():
    rng = random.Random(53)
    for _ in range(40):
        gamma = _rand_invertible(rng, 3, 2)
        u = ApartmentVertex([rng.randint(-2, 2) for _ in range(3)])
        v = ApartmentVertex([rng.randint(-2, 2) for _ in range(3)])
        assert divisor_invariance_check(gamma, lattice_basis(u, 2), lattice_basis(v, 2))


def test_general_split_order_serialization():
    gamma = LocalMatrix([[1, 1], [0, 2]], 2)
    S = GeneralSplitOrder(Apartment(gamma), ExponentMatrix([[0, 1], [2, 0]]))
    data = S.to_json_dict()
    assert data["prime"] == 2
    assert data["nu"] == {"n": 2, "nu": [[0, 1], [2, 0]]}
    back = GeneralSplitOrder.from_json_dict(data)
    assert back.nu == S.nu
    assert back.apartment.gamma == gamma


def _rand_invertible(rng, n, p):
    while True:
        rows = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(n)]
            for _ in range(n)
        ]
        M = LocalMatrix(rows, p)
        if M.det() != 0:
            return M


def test_an_apartment_refuses_a_new_frame():
    ap = Apartment(LocalMatrix.identity(2, 2))
    with pytest.raises(AttributeError):
        ap.gamma = LocalMatrix([[2, 0], [0, 1]], 2)
    assert ap.gamma == LocalMatrix.identity(2, 2)
    # a frame given at construction transports with its own inverse
    A = LocalMatrix([[0, 1], [0, 0]], 2)
    moved = Apartment(LocalMatrix([[2, 0], [0, 1]], 2)).to_standard(A)
    assert moved.entry(0, 1) == Fraction(1, 2)


def test_a_general_split_order_refuses_new_parts():
    S = GeneralSplitOrder(Apartment.standard(2, 2), ExponentMatrix([[0, 0], [0, 0]]))
    assert general_membership(S, LocalMatrix([[1, 1], [1, 1]], 2)) is True
    with pytest.raises(AttributeError):
        S.nu = ExponentMatrix([[0, 3], [3, 0]])
    with pytest.raises(AttributeError):
        S.apartment = Apartment(LocalMatrix([[2, 0], [0, 1]], 2))
    assert S.nu == ExponentMatrix([[0, 0], [0, 0]])
    assert general_membership(S, LocalMatrix([[1, 1], [1, 1]], 2)) is True
    fresh = GeneralSplitOrder(Apartment.standard(2, 2), ExponentMatrix([[0, 3], [3, 0]]))
    assert general_membership(fresh, LocalMatrix([[1, 1], [1, 1]], 2)) is False
