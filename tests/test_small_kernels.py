"""The written-out n <= 3 kernels of dvr against the general paths.

Products at n = 2 and 3 are checked against the general row loop, and
cofactor determinants and inverses against the Bareiss elimination and
the Fraction Gauss-Jordan reference, on n = 1..4 so that both sides of
the size switch are covered.  Entries include zeros, negative and
multi-word integers and denominators above 1.
"""

import random
from fractions import Fraction

import pytest

from splitorders.dvr import (
    LocalMatrix,
    _adjugate,
    _eliminate,
    _first_nonzero,
    _mul_rows,
    _mul_rows_general,
    conjugate,
)
from splitorders.errors import SingularConjugatorError, SingularInputError

from _oracles import frac_gauss_jordan

PRIMES = (2, 3, 5)
BIG = 2**70 + 13  # several machine words


def _entry(rng, p):
    kind = rng.randrange(6)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.choice((-1, 1)) * BIG * rng.randint(1, p**3)
    return rng.randint(-(p**3), p**3)


def _matrix(rng, n, p, singular=False):
    """LocalMatrix over a denominator 1, p^k or 7 p^k."""
    nums = [[_entry(rng, p) for _ in range(n)] for _ in range(n)]
    if singular:
        c = rng.randint(-3, 3)
        nums[-1] = [c * x for x in nums[0]] if n > 1 else [0]
    den = rng.choice((1, 1, p, p**3, 7 * p))
    return LocalMatrix._from_raw(nums, den, p)


def _cases(seed, count, **kw):
    rng = random.Random(seed)
    for t in range(count):
        p = PRIMES[t % 3]
        n = 1 + (t // 3) % 4
        yield _matrix(rng, n, p, **kw)


def _eliminated_det(A):
    """det by forward Bareiss elimination, apart from ``_adjugate``."""
    minors, sign = _eliminate([list(row) for row in A.nums], _first_nonzero)
    if len(minors) < A.n:
        return Fraction(0)
    return Fraction(sign * minors[-1], A.den**A.n)


def _eliminated_inverse(A):
    """Inverse by fraction-free Gauss-Jordan on [N | I], or None if singular."""
    n = A.n
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(A.nums)]
    minors, _ = _eliminate(a, _first_nonzero, jordan=True)
    if len(minors) < n:
        return None
    d = minors[-1]
    scale = A.den if d > 0 else -A.den
    return LocalMatrix._from_raw([[scale * x for x in row[n:]] for row in a], abs(d), A.prime)


def test_products_match_the_general_loop():
    seen = set()
    for k, A in enumerate(_cases(31, 480)):
        B = _matrix(random.Random(k), A.n, A.prime)
        product = _mul_rows(A.nums, B.nums)
        assert product == _mul_rows_general(A.nums, B.nums)
        assert A @ B == LocalMatrix._from_raw(product, A.den * B.den, A.prime)
        # lists of lists, as the ring check passes them, give the same rows
        assert _mul_rows([list(r) for r in A.nums], [list(r) for r in B.nums]) == product
        seen.add(A.n)
    assert seen == {1, 2, 3, 4}


def test_det_and_inverse_match_elimination_and_gauss_jordan():
    negative = singular = 0
    for k, A in enumerate(_cases(37, 600)):
        if k % 6 == 5:
            A = _matrix(random.Random(k), A.n, A.prime, singular=True)
        det, inv = frac_gauss_jordan(A.fractions())
        assert A.det() == det == _eliminated_det(A)
        assert type(A.det()) is Fraction
        reference = _eliminated_inverse(A)
        if inv is None:
            singular += 1
            assert reference is None
            with pytest.raises(SingularInputError):
                A.inverse()
            with pytest.raises(SingularConjugatorError):
                conjugate(A, LocalMatrix.identity(A.n, A.prime))
        else:
            negative += det < 0
            assert A.inverse() == reference
            assert [list(row) for row in A.inverse().fractions()] == inv
    assert singular >= 90
    assert negative >= 150


def test_adjugate_times_matrix_is_det_times_identity():
    rng = random.Random(43)
    larger = [_matrix(rng, n, p) for n in (4, 5) for p in PRIMES for _ in range(15)]
    for A in list(_cases(41, 180)) + larger:
        adj, d = _adjugate(A.nums)
        if A.n > 3 and d == 0:
            assert adj is None
            continue
        assert d == _eliminated_det(A) * A.den**A.n
        identity = [tuple(d * int(i == j) for j in range(A.n)) for i in range(A.n)]
        assert _mul_rows_general(adj, A.nums) == identity
        assert _mul_rows_general(A.nums, adj) == identity
    for n in (4, 5):
        for p in PRIMES:
            singular = _matrix(rng, n, p, singular=True)
            assert _adjugate(singular.nums) == (None, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_singular_matrices_are_refused(n):
    for p in PRIMES:
        zero = LocalMatrix._from_raw([[0] * n for _ in range(n)], 1, p)
        repeated = LocalMatrix._from_raw([[BIG, -3] + [0] * (n - 2)] * n, p, p) if n > 1 else zero
        for A in (zero, repeated):
            assert A.det() == 0
            with pytest.raises(SingularInputError):
                A.inverse()
            with pytest.raises(SingularConjugatorError):
                conjugate(A, LocalMatrix.identity(n, p))


def test_inverse_keeps_the_lowest_terms_form():
    # den > 1 and a negative determinant: diag(-2, 6) / 4 inverts to diag(-2, 2/3)
    A = LocalMatrix._from_raw([[-2, 0], [0, 6]], 4, 3)
    inv = A.inverse()
    assert (inv.nums, inv.den) == (((-6, 0), (0, 2)), 3)
    assert inv == LocalMatrix([[-2, 0], [0, Fraction(2, 3)]], 3)
    assert inv @ A == LocalMatrix.identity(2, 3)
