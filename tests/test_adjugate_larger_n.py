"""The functions that need an inverse, at n = 4, 5 and 6.

``_adjugate`` gives (adj a, det a) at every n: cofactors up to n = 3 and
fraction-free Gauss-Jordan beyond.  ``det``, ``inverse``, the Hermite
transform, ``diagonal_witness`` and ``elementary_divisors`` all read it,
so these tests hold each to the Fraction references of ``_oracles`` at
the sizes the elimination serves.  Half of the matrices have a zero
(0, 0) entry, so the elimination swaps rows and the adjugate takes the
sign of the permutation; singular inputs keep each function's error.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from _oracles import divisors_by_minors, frac_gauss_jordan, frac_matmul, frac_within
from splitorders.dvr import (
    HermiteForm,
    LocalMatrix,
    _eliminate,
    _first_nonzero,
    diagonal_witness,
    elementary_divisors,
    hermite_normal_form,
)
from splitorders.errors import (
    AlreadyDiagonalError,
    NonIntegralInputError,
    SingularInputError,
)

PRIMES = (2, 3, 5, 7)
SIZES = (4, 5, 6)


def _unit(rng, p):
    u = rng.randint(1, 12)
    while u % p == 0:
        u += 1
    return u


def _entry(rng, p):
    """A rational whose denominator is 1, a unit, a power of p, or both."""
    num = rng.randint(-2 * p * p, 2 * p * p)
    den = rng.choice((1, _unit(rng, p), p ** rng.randint(1, 2), _unit(rng, p) * p))
    return Fraction(num, den)


def _integral_entry(rng, p):
    """An integral rational of valuation 0 to 2 (or zero), over a unit
    denominator half of the time."""
    den = _unit(rng, p) if rng.random() < 0.5 else 1
    return Fraction(rng.randint(-p, p) * p ** rng.randint(0, 2), den)


def _invertible(rng, n, p, entry, zero_corner):
    """(rows, det, inverse) of a random invertible matrix; its (0, 0)
    entry is zero when ``zero_corner``."""
    while True:
        rows = [[entry(rng, p) for _ in range(n)] for _ in range(n)]
        if zero_corner:
            rows[0][0] = Fraction(0)
        det, inv = frac_gauss_jordan(rows)
        if det != 0:
            return rows, det, inv


def _swap_sign(A):
    return _eliminate([list(row) for row in A.nums], _first_nonzero)[1]


def _singular(n, p):
    """A zero matrix and one of rank n - 1 over a denominator p."""
    zero = LocalMatrix([[0] * n for _ in range(n)], p)
    rows = [[Fraction(1 + i * j + int(i == j), p) for j in range(n)] for i in range(n)]
    rows[-1] = [2 * x for x in rows[0]]
    return zero, LocalMatrix(rows, p)


def _in_lowest_terms(M):
    assert type(M.nums) is tuple and all(type(row) is tuple for row in M.nums)
    assert M.den >= 1
    assert math.gcd(M.den, *itertools.chain.from_iterable(M.nums)) == 1


@pytest.mark.parametrize("n", SIZES)
def test_det_and_inverse_match_gauss_jordan(n):
    rng = random.Random(4100 + n)
    signs, swaps = set(), set()
    for p in PRIMES:
        for k in range(6):
            rows, det, inv = _invertible(rng, n, p, _entry, zero_corner=k % 2 == 0)
            A = LocalMatrix(rows, p)
            signs.add(det > 0)
            swaps.add(_swap_sign(A))
            assert A.det() == det and type(A.det()) is Fraction
            got = A.inverse()
            _in_lowest_terms(got)
            assert [list(row) for row in got.fractions()] == inv
            assert A @ got == LocalMatrix.identity(n, p)
    assert signs == {True, False}
    assert swaps == {1, -1}


@pytest.mark.parametrize("n", SIZES)
def test_hermite_transform_is_the_form_times_the_inverse(n):
    rng = random.Random(4200 + n)
    swaps = set()
    for p in PRIMES:
        for k in range(4):
            rows, _, inv = _invertible(rng, n, p, _integral_entry, zero_corner=k % 2 == 0)
            xi = LocalMatrix(rows, p)
            swaps.add(_swap_sign(xi))
            form, transform = hermite_normal_form(xi)
            assert transform == LocalMatrix(frac_matmul(form.matrix.fractions(), inv), p)
            _in_lowest_terms(transform)
            assert transform @ xi == form.matrix
            assert transform.is_integral()
            assert transform.det().denominator % p and transform.det().numerator % p
    assert swaps == {1, -1}


def _witness_by_fractions(rows, inv, p):
    """Bits of the first 0/1 diagonal D with xi D xi^(-1) not integral, or None."""
    n = len(rows)
    for bits in itertools.product((0, 1), repeat=n):
        D = [[Fraction(bits[i] * int(i == j)) for j in range(n)] for i in range(n)]
        conj = frac_matmul(frac_matmul(rows, D), inv)
        if not frac_within(conj, [[0] * n] * n, p):
            return bits
    return None


@pytest.mark.parametrize("n", SIZES)
def test_diagonal_witness_matches_the_fraction_conjugates(n):
    rng = random.Random(4300 + n)
    found = raised = 0
    for p in PRIMES:
        for k in range(4 if n < 6 else 2):
            # a triangular form, and any invertible matrix with denominators
            rows, _, _ = _invertible(rng, n, p, _integral_entry, zero_corner=k % 2 == 0)
            form, _ = hermite_normal_form(LocalMatrix(rows, p))
            any_rows, _, _ = _invertible(rng, n, p, _entry, zero_corner=k % 2 == 0)
            for form in (form, HermiteForm(LocalMatrix(any_rows, p), (0,) * n)):
                xi = form.matrix
                _, inv = frac_gauss_jordan(xi.fractions())
                want = _witness_by_fractions(xi.fractions(), inv, p)
                if want is None:
                    raised += 1
                    with pytest.raises(AlreadyDiagonalError):
                        diagonal_witness(form)
                else:
                    found += 1
                    got = diagonal_witness(form)
                    assert got == LocalMatrix.diagonal(want, p) and got.den == 1
    assert found > 10 and raised > 0


@pytest.mark.parametrize("n", SIZES)
def test_elementary_divisors_match_the_minors_of_the_fraction_product(n):
    rng = random.Random(4400 + n)
    swaps = set()
    for p in PRIMES:
        for k in range(3 if n < 6 else 1):
            rows, _, inv = _invertible(rng, n, p, _entry, zero_corner=k % 2 == 0)
            lp_rows, _, _ = _invertible(rng, n, p, _entry, zero_corner=k % 2 == 1)
            L, Lp = LocalMatrix(rows, p), LocalMatrix(lp_rows, p)
            swaps.add(_swap_sign(L))
            want = divisors_by_minors(frac_matmul(inv, lp_rows), p)
            assert elementary_divisors(L, Lp) == tuple(sorted(want))
    assert -1 in swaps


@pytest.mark.parametrize("n", SIZES)
def test_singular_inputs_keep_their_errors(n):
    p = 3
    rows, _, _ = _invertible(random.Random(4500 + n), n, p, _entry, zero_corner=True)
    regular = LocalMatrix(rows, p)
    for singular in _singular(n, p):
        assert singular.det() == 0
        with pytest.raises(SingularInputError, match="^matrix is singular$"):
            singular.inverse()
        with pytest.raises(SingularInputError, match="^matrix is singular$"):
            diagonal_witness(HermiteForm(singular, (0,) * n))
        with pytest.raises(SingularInputError, match="^matrix is singular$"):
            elementary_divisors(singular, regular)
        with pytest.raises(SingularInputError, match="^matrix is singular$"):
            elementary_divisors(singular, singular)
        with pytest.raises(SingularInputError, match="^lattice basis is singular$"):
            elementary_divisors(regular, singular)
        integral = LocalMatrix([[x * p for x in row] for row in singular.fractions()], p)
        with pytest.raises(SingularInputError, match="^matrix is singular$"):
            hermite_normal_form(integral)
    with pytest.raises(NonIntegralInputError):
        hermite_normal_form(_singular(n, p)[1])
