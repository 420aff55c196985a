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

from _oracles import divisors_by_minors, frac_gauss_jordan, frac_matmul, frac_within
from splitorders.apartments import (
    Apartment,
    GeneralSplitOrder,
    divisor_invariance_check,
    general_membership,
)
from splitorders.correspondence import ApartmentVertex, intersect_maximal
from splitorders.dvr import (
    HermiteForm,
    LocalMatrix,
    _divisor_exponents,
    _membership_test,
    _mul_rows,
    _triple_product,
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


def _outcome(f, *args):
    """f(*args), or the type and message of the exception it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _maybe_singular(rng, n, p):
    """A random basis; a quarter of them repeat a scaled row, so are singular."""
    rows = [[_entry(rng, p) for _ in range(n)] for _ in range(n)]
    if rng.random() < 0.25:
        rows[-1] = [p * x for x in rows[0]]
    return LocalMatrix(rows, p)


@pytest.mark.parametrize("p", (2, 3, 5))
def test_divisor_invariance_reads_raw_transported_products(p):
    """The transported pair is read off raw products over the product of
    the denominators; the divisors, verdicts and errors are those of the
    route through the lowest-terms products gamma @ L and gamma @ Lp."""
    rng = random.Random(2400 + p)
    verdicts = set()
    for n in (2, 3, 4):
        for _ in range(40 if n < 4 else 15):
            gamma, L, Lp = (_maybe_singular(rng, n, p) for _ in range(3))
            raw = _outcome(_divisor_exponents, _mul_rows(gamma.nums, L.nums), gamma.den * L.den,
                           _mul_rows(gamma.nums, Lp.nums), gamma.den * Lp.den, p)
            assert raw == _outcome(lambda: elementary_divisors(gamma @ L, gamma @ Lp))
            want = _outcome(lambda: elementary_divisors(L, Lp) == elementary_divisors(
                gamma @ L, gamma @ Lp))
            assert _outcome(divisor_invariance_check, gamma, L, Lp) == want
            verdicts.add(want if type(want) is bool else want[1])
    assert verdicts == {True, "matrix is singular", "lattice basis is singular"}
    # size and prime mismatches raise as the lowest-terms route does
    L = LocalMatrix.identity(2, p)
    for gamma, Lp in ((LocalMatrix.identity(3, p), L), (LocalMatrix.identity(2, 7), L),
                      (L, LocalMatrix.identity(3, p)), (L, LocalMatrix.identity(2, 7)),
                      (LocalMatrix.identity(3, 7), L)):
        want = _outcome(lambda: elementary_divisors(L, Lp) == elementary_divisors(
            gamma @ L, gamma @ Lp))
        assert type(want) is tuple
        assert _outcome(divisor_invariance_check, gamma, L, Lp) == want


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
# membership through the cached test per (bounds, v(den), p)


@pytest.mark.parametrize("p", PRIMES)
def test_general_membership_matches_the_fraction_pull_back(p):
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
                pulled = [[Fraction(x, den) for x in row] for row in rows]
                want = frac_within(pulled, S.nu.entries, p)
                outcomes.add(want)
                assert general_membership(S, A) == want
    assert outcomes == {True, False}


def test_membership_calls_read_one_cached_test_per_valuation():
    """An order holds its apartment and exponents and nothing else, before
    and after membership calls; the calls read one cached test per
    valuation of the pull-back denominator."""
    S = GeneralSplitOrder(Apartment.standard(2, 3),
                          intersect_maximal([ApartmentVertex([0, 1])]))
    assert GeneralSplitOrder.__slots__ == ("apartment", "nu")
    cases = (([[1, Fraction(1, 9)], [3, 1]], False), ([[1, Fraction(1, 3)], [3, 1]], True))
    _membership_test.cache_clear()
    for _ in range(3):
        for rows, want in cases:
            assert frac_within([[Fraction(x) for x in row] for row in rows], S.nu.entries, 3) is want
            assert general_membership(S, LocalMatrix(rows, 3)) is want
    info = _membership_test.cache_info()
    assert (info.misses, info.hits) == (2, 4)
    assert not hasattr(S, "__dict__")
