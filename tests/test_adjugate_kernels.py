"""The n <= 3 kernels that read valuations off raw adjugate products.

``elementary_divisors``, ``diagonal_witness``, the transform of
``hermite_normal_form`` and ``general_membership`` never form an inverse
at n <= 3: they work on integer products with the adjugate and read
valuations there.  These tests hold each to the route through a
lowest-terms inverse, on matrices with non-integral entries, negative
determinants and integral entries over a unit denominator (1/3 at
p = 2), for n = 1..3 and p in {2, 3, 5, 7}; n = 4 runs the elimination
paths through the same checks.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from _oracles import divisors_by_minors, frac_gauss_jordan, frac_matmul
from splitorders.apartments import Apartment, GeneralSplitOrder, general_membership
from splitorders.correspondence import ApartmentVertex, intersect_maximal
from splitorders.dvr import (
    HermiteForm,
    LocalMatrix,
    _triple_product,
    _valuation_test,
    diagonal_witness,
    elementary_divisors,
    hermite_normal_form,
)
from splitorders.errors import AlreadyDiagonalError, SingularInputError

PRIMES = (2, 3, 5, 7)
SIZES = (1, 2, 3, 4)


def _unit(rng, p):
    u = rng.randint(1, 12)
    while u % p == 0:
        u += 1
    return u


def _entry(rng, p):
    """A random rational whose denominator is a unit, a power of p, or both."""
    num = rng.randint(-2 * p * p, 2 * p * p)
    den = rng.choice((1, _unit(rng, p), p ** rng.randint(1, 2), _unit(rng, p) * p))
    return Fraction(num, den)


def _invertible(rng, n, p, entry):
    while True:
        rows = [[entry(rng, p) for _ in range(n)] for _ in range(n)]
        det, inv = frac_gauss_jordan(rows)
        if det != 0:
            return rows, det, inv


def _integral_entry(rng, p):
    """An integral rational of valuation 0 to 2 (or zero), over a unit
    denominator half of the time."""
    den = _unit(rng, p) if rng.random() < 0.5 else 1
    return Fraction(rng.randint(-p, p) * p ** rng.randint(0, 2), den)


def _in_lowest_terms(M):
    assert type(M.nums) is tuple and all(type(row) is tuple for row in M.nums)
    assert M.den >= 1
    assert math.gcd(M.den, *itertools.chain.from_iterable(M.nums)) == 1


# ---------------------------------------------------------------------------
# elementary divisors


@pytest.mark.parametrize("p", PRIMES)
def test_elementary_divisors_match_the_divisors_of_the_inverse_product(p):
    rng = random.Random(1800 + p)
    signs = set()
    for n in SIZES:
        for _ in range(25 if n < 4 else 6):
            rows, det, inv = _invertible(rng, n, p, _entry)
            lp_rows, _, _ = _invertible(rng, n, p, _entry)
            signs.add(det > 0)
            L, Lp = LocalMatrix(rows, p), LocalMatrix(lp_rows, p)
            M = L.inverse() @ Lp
            assert M == LocalMatrix(frac_matmul(inv, lp_rows), p)
            want = divisors_by_minors(M.fractions(), p)
            assert elementary_divisors(L, Lp) == tuple(sorted(want))
    assert signs == {True, False}


def test_elementary_divisors_over_a_unit_denominator():
    # L = I / 3 at p = 2: the lattice of L is the standard one
    L = LocalMatrix([[Fraction(1, 3), 0], [0, Fraction(1, 3)]], 2)
    Lp = LocalMatrix([[2, 1], [0, Fraction(-4, 3)]], 2)
    assert elementary_divisors(L, Lp) == (0, 3)
    assert elementary_divisors(Lp, L) == (-3, 0)


@pytest.mark.parametrize("n", SIZES)
def test_singular_bases_keep_their_errors(n):
    p = 3
    regular = LocalMatrix([[Fraction(1 + i * j + int(i == j), 1 + i) for j in range(n)]
                           for i in range(n)], p)
    assert regular.det() != 0
    zero = LocalMatrix([[0] * n for _ in range(n)], p)
    with pytest.raises(SingularInputError, match="^matrix is singular$"):
        elementary_divisors(zero, regular)
    with pytest.raises(SingularInputError, match="^matrix is singular$"):
        elementary_divisors(zero, zero)
    with pytest.raises(SingularInputError, match="^lattice basis is singular$"):
        elementary_divisors(regular, zero)
    if n > 1:
        rank_one = LocalMatrix([[Fraction(1, 2)] * n for _ in range(n)], p)
        with pytest.raises(SingularInputError, match="^lattice basis is singular$"):
            elementary_divisors(regular, rank_one)


# ---------------------------------------------------------------------------
# diagonal witness


def _witness_by_inverse(xi):
    """The first 0/1 diagonal whose conjugate by xi is not integral, or None."""
    xi_inv = xi.inverse()
    for bits in itertools.product((0, 1), repeat=xi.n):
        D = LocalMatrix.diagonal(bits, xi.prime)
        if not _triple_product(xi, D, xi_inv).is_integral():
            return D
    return None


def _check_witness(form):
    want = _witness_by_inverse(form.matrix)
    if want is None:
        with pytest.raises(AlreadyDiagonalError):
            diagonal_witness(form)
        return None
    got = diagonal_witness(form)
    assert got == want and got.nums == want.nums and got.den == want.den == 1
    _in_lowest_terms(got)
    return got


@pytest.mark.parametrize("p", PRIMES)
def test_diagonal_witness_matches_the_inverse_route(p):
    rng = random.Random(1900 + p)
    found = raised = 0
    for n in SIZES:
        for _ in range(25 if n < 4 else 6):
            rows, _, _ = _invertible(rng, n, p, _integral_entry)
            form, _ = hermite_normal_form(LocalMatrix(rows, p))
            if _check_witness(form) is None:
                raised += 1
                assert form.is_diagonal()
            else:
                found += 1
            # any invertible matrix, with denominators and either sign of det
            rows, _, _ = _invertible(rng, n, p, _entry)
            _check_witness(HermiteForm(LocalMatrix(rows, p), (0,) * n))
    assert found > 20 and raised > 0


@pytest.mark.parametrize("n", (1, 2, 3))
def test_diagonal_witness_on_diagonal_and_singular_forms(n):
    p = 2
    diag = LocalMatrix.diagonal([Fraction(2 ** i, 3) for i in range(n)], p)
    with pytest.raises(AlreadyDiagonalError):
        diagonal_witness(HermiteForm(diag, tuple(range(n))))
    zero = LocalMatrix([[0] * n for _ in range(n)], p)
    with pytest.raises(SingularInputError, match="^matrix is singular$"):
        diagonal_witness(HermiteForm(zero, (0,) * n))


def test_diagonal_witness_over_a_unit_denominator():
    # xi = [[1, 1], [0, 2]] / 3 at p = 2; the denominator cancels
    xi = LocalMatrix([[Fraction(1, 3), Fraction(1, 3)], [0, Fraction(2, 3)]], 2)
    assert diagonal_witness(HermiteForm(xi, (0, 1))) == LocalMatrix.diagonal([0, 1], 2)


# ---------------------------------------------------------------------------
# Hermite transform


@pytest.mark.parametrize("p", PRIMES)
def test_hermite_transform_is_the_form_times_the_inverse(p):
    rng = random.Random(2000 + p)
    signs = set()
    for n in SIZES:
        for _ in range(25 if n < 4 else 6):
            rows, det, _ = _invertible(rng, n, p, _integral_entry)
            signs.add(det > 0)
            xi = LocalMatrix(rows, p)
            form, transform = hermite_normal_form(xi)
            assert transform == form.matrix @ xi.inverse()
            _in_lowest_terms(transform)
            assert transform @ xi == form.matrix
            assert transform.is_integral()
    assert signs == {True, False}


def test_hermite_transform_over_a_unit_denominator():
    # xi = [[1, 2], [3, -4]] / 3 at p = 2: det xi = -10 / 9
    xi = LocalMatrix([[Fraction(1, 3), Fraction(2, 3)], [1, Fraction(-4, 3)]], 2)
    form, transform = hermite_normal_form(xi)
    assert form.exponents == (0, 1)
    assert transform == form.matrix @ xi.inverse()
    _in_lowest_terms(transform)


# ---------------------------------------------------------------------------
# membership with one compiled test per denominator valuation


@pytest.mark.parametrize("p", PRIMES)
def test_general_membership_keeps_one_test_per_valuation(p):
    rng = random.Random(2100 + p)
    outcomes = set()
    for n in (2, 3, 4):
        for _ in range(6):
            gamma, _, _ = _invertible(rng, n, p, _entry)
            ap = Apartment(LocalMatrix(gamma, p))
            family = [ApartmentVertex([rng.randint(-2, 2) for _ in range(n)])
                      for _ in range(rng.randint(1, 3))]
            S = GeneralSplitOrder(ap, intersect_maximal(family))
            left, right = ap._gamma_inv, ap.gamma
            seen = set()
            for k in range(30):
                if k % 2:
                    A = LocalMatrix([[_entry(rng, p) for _ in range(n)] for _ in range(n)], p)
                else:
                    # an element of the order, pushed out of the standard frame
                    inner = [[_unit(rng, p) * Fraction(p) ** (e + rng.randint(0, 1)) for e in row]
                             for row in S.nu.entries]
                    A = ap.from_standard(LocalMatrix(inner, p))
                den = left.den * A.den * right.den
                rows = frac_matmul(frac_matmul(left.nums, A.nums), right.nums)
                want = _valuation_test(S.nu.entries, den, p)(rows)
                outcomes.add(want)
                assert general_membership(S, A) == want
                v = 0
                while den % p ** (v + 1) == 0:
                    v += 1
                seen.add(v)
                assert set(S._tests) == seen
    assert outcomes == {True, False}


def test_a_fresh_order_starts_with_no_tests():
    S = GeneralSplitOrder(Apartment.standard(2, 3),
                          intersect_maximal([ApartmentVertex([0, 1])]))
    assert S._tests == {}
    A = LocalMatrix([[1, Fraction(1, 9)], [3, 1]], 3)
    assert general_membership(S, A) is False
    assert general_membership(S, LocalMatrix([[1, Fraction(1, 3)], [3, 1]], 3)) is True
    assert set(S._tests) == {2, 1}
