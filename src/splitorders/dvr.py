"""Exact arithmetic over a discrete valuation ring inside the rationals.

For a fixed prime p the valuation ring O consists of the rationals whose
reduced denominator is coprime to p; the uniformizer is p itself and the
valuation of a rational is the exponent of p in its factorization.  A
matrix is stored as an integer numerator matrix together with a single
positive denominator, so products, inverses and triangularizations are
exact; nothing is ever rounded.

The module provides membership tests against exponent matrices and
apartment vertices, conjugation, a canonical upper-triangular form under
the integral unit group, elementary divisors of lattice pairs, and a
randomized check that sets of prescribed valuations are multiplicatively
closed.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from typing import Iterable, Optional, Sequence, Union

from ._record import Frozen, FrozenRecord
from .errors import (
    AlreadyDiagonalError,
    DimensionMismatchError,
    NonIntegralInputError,
    SingularConjugatorError,
    SingularInputError,
)
from .exponent import (
    ExponentMatrix,
    _as_int,
    _closed_fields,
    check_index_pair,
    first_violation,
    int_tuple,
)
from .polytope import ApartmentVertex

INFINITE = math.inf  # valuation of zero


def Fraction(*args):
    """Stand-in for ``fractions.Fraction`` until the first Fraction is built.

    ``fractions`` loads ``decimal``, so importing it here would slow every
    import of the package, also for commands that build no Fraction.  The
    first call imports it and rebinds this module's name ``Fraction`` to
    the class; later calls reach the class directly.
    """
    global Fraction
    from fractions import Fraction

    return Fraction(*args)


_RationalLike = Union[int, str, "Fraction"]


def _exact(x, noun: str = "entry"):
    """x, or the int an integral float stands for; a bool or a
    non-integral float raises, as an exponent entry does."""
    if isinstance(x, (bool, float)):
        return _as_int(x, noun)
    return x


# The least strong pseudoprime to all of the first 13 prime bases (2 to 41)
# is 3317044064679887385961981 (Sorenson and Webster, "Strong pseudoprimes
# to twelve prime bases", 2017), so Miller-Rabin with these bases decides
# primality exactly below it.  Twelve bases would not do: 318665857834031151167461
# is a strong pseudoprime to every prime base up to 37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981
_SMALL_PRIMES = frozenset(_MR_BASES)


@functools.lru_cache(maxsize=64)
def _miller_rabin(p: int) -> bool:
    """Deterministic primality of an odd p > 2, not a base, below PRIME_BOUND."""
    d, s = p - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_prime(p: int) -> int:
    """p as an int; raises ValueError unless it is a prime below PRIME_BOUND.

    An integral float reads as an int; a bool, a string or another
    non-integer raises TypeError, a non-integral float ValueError.
    """
    if type(p) is int and p in _SMALL_PRIMES:
        return p
    p = _as_int(p, "prime")
    if p < 2:
        raise ValueError(f"prime must be >= 2, got {p}")
    if p >= PRIME_BOUND:
        raise ValueError(f"prime must be below {PRIME_BOUND}, got {p}")
    if p in _SMALL_PRIMES:
        return p
    if p % 2 == 0 or not _miller_rabin(p):
        raise ValueError(f"{p} is not prime")
    return p


def _int_valuation(x: int, p: int):
    if x == 0:
        return INFINITE
    if p == 2:
        # x & -x keeps the lowest set bit, also for negative x
        return (x & -x).bit_length() - 1
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _fraction_valuation(f: "Fraction", p: int):
    """p-adic valuation of a Fraction, p a checked prime."""
    if f == 0:
        return INFINITE
    v = _int_valuation(f.numerator, p)
    if v == 0:
        return -_int_valuation(f.denominator, p)
    return v


def rational_valuation(value: _RationalLike, prime: int):
    """p-adic valuation of an exact rational; zero has infinite valuation."""
    prime = check_prime(prime)
    return _fraction_valuation(Fraction(_exact(value, "value")), prime)


class LocalScalar(FrozenRecord):
    """Exact rational together with the prime of its valuation."""

    __match_args__ = ("value", "prime")

    def __init__(self, value: _RationalLike, prime: int):
        # a Fraction, as every arithmetic result is, is kept as it is
        if type(value) is not Fraction:
            value = Fraction(_exact(value, "value"))
        self._set(value, check_prime(prime))

    def valuation(self):
        return _fraction_valuation(self.value, self.prime)

    def is_integral(self) -> bool:
        return self.value.denominator % self.prime != 0

    def in_ideal(self, m: int) -> bool:
        """Whether the valuation is at least m."""
        return self.value == 0 or self.valuation() >= m

    def _coerce(self, other) -> Fraction:
        if isinstance(other, LocalScalar):
            if other.prime != self.prime:
                raise ValueError(
                    f"prime mismatch: {self.prime} vs {other.prime}"
                )
            return other.value
        return Fraction(_exact(other, "operand"))

    def __add__(self, other):
        return LocalScalar(self.value + self._coerce(other), self.prime)

    __radd__ = __add__

    def __sub__(self, other):
        return LocalScalar(self.value - self._coerce(other), self.prime)

    def __mul__(self, other):
        return LocalScalar(self.value * self._coerce(other), self.prime)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return LocalScalar(self.value / self._coerce(other), self.prime)

    def __neg__(self):
        return LocalScalar(-self.value, self.prime)

    def __str__(self) -> str:
        return f"{self.value} (v_{self.prime} = {self.valuation()})"


def _first_nonzero(a: list, k: int) -> Optional[tuple[int, int]]:
    """Pivot policy: the first nonzero entry of column k at or below row k."""
    for r in range(k, len(a)):
        if a[r][k]:
            return r, k
    return None


def _least_valuation(p: int, full: bool):
    """Pivot policy: the entry of least valuation in column k at or below
    row k, or in the whole trailing submatrix when ``full``; ties go to the
    lowest row, then the lowest column."""

    def choose(a: list, k: int) -> Optional[tuple[int, int]]:
        best, best_v = None, INFINITE
        cols = range(k, len(a)) if full else (k,)
        for r in range(k, len(a)):
            for c in cols:
                v = _int_valuation(a[r][c], p)
                if v < best_v:
                    best, best_v = (r, c), v
        return best

    return choose


def _eliminate(a: list, choose, jordan: bool = False) -> tuple[list[int], int]:
    """Fraction-free (Bareiss) elimination of the integer rows ``a``, in place.

    Step k asks ``choose(a, k)`` for a pivot in the trailing submatrix,
    swaps it to (k, k), and replaces every row below k (every other row
    when ``jordan``) by (pivot * row - row[k] * pivot_row) / previous
    pivot.  Each division is exact, and the pivot of step k is the leading
    (k + 1)-minor of the permuted matrix, so all entries of the trailing
    submatrix share the factor 1 / minor_k over the ordinary Gauss values;
    valuation-based pivot choices are therefore the same as in plain
    elimination.  Returns the minors, stopping when ``choose`` finds no
    nonzero pivot, and the sign of the row and column permutation.
    """
    n = len(a)
    minors: list[int] = []
    sign = 1
    prev = 1
    for k in range(n):
        at = choose(a, k)
        if at is None:
            break
        r, c = at
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign = -sign
        if c != k:
            for row in a:
                row[k], row[c] = row[c], row[k]
            sign = -sign
        pivot_row = a[k]
        pk = pivot_row[k]
        for i in range(0 if jordan else k + 1, n):
            if i != k:
                f = a[i][k]
                a[i] = [(pk * x - f * y) // prev for x, y in zip(a[i], pivot_row)]
        minors.append(pk)
        prev = pk
    return minors, sign


def _hermite_echelon(a: list, p: int) -> list[int]:
    """``_eliminate(a, _least_valuation(p, full=False))[0]`` at n <= 3, written out.

    Returns the same minors and leaves in ``a`` the same entries on and
    above the diagonal; entries below it are left as they are.
    """
    v = _int_valuation
    if len(a) == 1:
        return [a[0][0]] if a[0][0] else []
    if len(a) == 2:
        r0, r1 = a
        if v(r1[0], p) < v(r0[0], p):
            r0, r1 = r1, r0
        if not r0[0]:
            return []
        d = r0[0] * r1[1] - r1[0] * r0[1]
        a[:] = r0, (0, d)
        return [r0[0], d] if d else [r0[0]]
    r0, r1, r2 = a
    v0, v1, v2 = v(r0[0], p), v(r1[0], p), v(r2[0], p)
    if v1 < v0 and v1 <= v2:
        r0, r1 = r1, r0
    elif v2 < v0 and v2 < v1:
        r0, r2 = r2, r0
    p0, x1, x2 = r0
    if not p0:
        return []
    # step 1 clears column 0 below the pivot: row <- p0 row - row[0] r0
    b1, b2 = p0 * r1[1] - r1[0] * x1, p0 * r1[2] - r1[0] * x2
    c1, c2 = p0 * r2[1] - r2[0] * x1, p0 * r2[2] - r2[0] * x2
    if v(c1, p) < v(b1, p):
        b1, b2, c1, c2 = c1, c2, b1, b2
    if not b1:
        return [p0]
    e = (b1 * c2 - c1 * b2) // p0
    a[:] = r0, (0, b1, b2), (0, 0, e)
    return [p0, b1, e] if e else [p0, b1]


def _mul_rows_general(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    """Product of two square integer matrices given as rows, for any n."""
    cols = list(zip(*b))
    return [tuple([sum(map(operator.mul, row, col)) for col in cols]) for row in a]


def _mul_rows(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list:
    """Product of two square integer matrices given as rows.

    n = 2 and n = 3, the sizes nearly every caller works at, are written
    out entry by entry; other sizes take the general loop.
    """
    n = len(a)
    if n == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
        return [
            (
                a00 * b00 + a01 * b10 + a02 * b20,
                a00 * b01 + a01 * b11 + a02 * b21,
                a00 * b02 + a01 * b12 + a02 * b22,
            ),
            (
                a10 * b00 + a11 * b10 + a12 * b20,
                a10 * b01 + a11 * b11 + a12 * b21,
                a10 * b02 + a11 * b12 + a12 * b22,
            ),
            (
                a20 * b00 + a21 * b10 + a22 * b20,
                a20 * b01 + a21 * b11 + a22 * b21,
                a20 * b02 + a21 * b12 + a22 * b22,
            ),
        ]
    if n == 2:
        (a00, a01), (a10, a11) = a
        (b00, b01), (b10, b11) = b
        return [
            (a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
            (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11),
        ]
    return _mul_rows_general(a, b)


def _adjugate(a: Sequence[Sequence[int]]) -> tuple[Optional[list], int]:
    """(adj a, det a) of a square integer matrix; (None, 0) when a is singular
    at n >= 4.

    n <= 3 take the cofactor formulas: row i of the adjugate holds the
    cofactors of column i of ``a``, so the determinant is the first row
    of ``a`` times the first column of the adjugate.  Larger n run
    fraction-free Gauss-Jordan on [a | I] (Bareiss, Math. Comp. 22,
    1968), which ends at [d I | d a^(-1)] with d = sign * det a, so the
    adjugate is sign times the right block.
    """
    n = len(a)
    if n == 3:
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = a
        c00 = a11 * a22 - a12 * a21
        c01 = a12 * a20 - a10 * a22
        c02 = a10 * a21 - a11 * a20
        adj = [
            (c00, a02 * a21 - a01 * a22, a01 * a12 - a02 * a11),
            (c01, a00 * a22 - a02 * a20, a02 * a10 - a00 * a12),
            (c02, a01 * a20 - a00 * a21, a00 * a11 - a01 * a10),
        ]
        return adj, a00 * c00 + a01 * c01 + a02 * c02
    if n == 2:
        (a00, a01), (a10, a11) = a
        return [(a11, -a01), (-a10, a00)], a00 * a11 - a01 * a10
    if n == 1:
        return [(1,)], a[0][0]
    rows = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(a)]
    minors, sign = _eliminate(rows, _first_nonzero, jordan=True)
    if len(minors) < n:
        return None, 0
    return [tuple([sign * x for x in row[n:]]) for row in rows], sign * minors[-1]


def _lowest_terms(rows: Sequence[tuple], den: int, prime: int) -> "LocalMatrix":
    """The LocalMatrix rows / den, for tuple rows and den >= 1.

    The rows are kept as they are unless gcd(den, *rows) exceeds 1, in
    which case they are divided as the new rows are built, entry by entry
    at n = 2 and 3.
    """
    n = len(rows)
    if den > 1:
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        if g > 1:
            den //= g
            if n == 3:
                (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
                rows = (
                    (a00 // g, a01 // g, a02 // g),
                    (a10 // g, a11 // g, a12 // g),
                    (a20 // g, a21 // g, a22 // g),
                )
            elif n == 2:
                (a00, a01), (a10, a11) = rows
                rows = ((a00 // g, a01 // g), (a10 // g, a11 // g))
            else:
                rows = [tuple([x // g for x in row]) for row in rows]
    return _fill(object.__new__(LocalMatrix), n, prime, tuple(rows), den)


def _fill(obj: "LocalMatrix", n: int, prime: int, nums: tuple, den: int) -> "LocalMatrix":
    """obj as nums / den, given in lowest terms; no other code writes the slots."""
    _set_n(obj, n)
    _set_prime(obj, prime)
    _set_nums(obj, nums)
    _set_den(obj, den)
    return obj


class LocalMatrix(Frozen):
    """Square matrix of exact rationals sharing one prime.

    Entries are kept as one integer numerator matrix over a common
    positive denominator, always in lowest terms: the gcd of the
    denominator and every numerator is 1.  That form is unique, so
    equality and hashing compare it directly.
    """

    __slots__ = ("n", "prime", "nums", "den")

    def __init__(self, rows: Sequence[Sequence[_RationalLike]], prime: int):
        p = check_prime(prime)
        rows = [tuple(row) for row in rows]
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")
        if all(type(x) is int for row in rows for x in row):
            den, nums = 1, tuple(rows)
        else:
            # the lcm of reduced denominators leaves the pair in lowest terms
            fracs = [[Fraction(_exact(x)) for x in row] for row in rows]
            den = math.lcm(*(f.denominator for row in fracs for f in row))
            nums = tuple(
                tuple(f.numerator * (den // f.denominator) for f in row)
                for row in fracs
            )
        _fill(self, n, p, nums, den)

    @classmethod
    def _from_raw(
        cls, nums: Sequence[Sequence[int]], den: int, prime: int
    ) -> "LocalMatrix":
        """nums / den in lowest terms, from integer rows of any sequence type."""
        if den < 1:
            raise ValueError("denominator must be positive")
        return _lowest_terms(tuple(map(tuple, nums)), den, prime)

    @classmethod
    def identity(cls, n: int, prime: int) -> "LocalMatrix":
        n = _as_int(n, "n")
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], prime)

    @classmethod
    def diagonal(cls, values: Sequence[_RationalLike], prime: int) -> "LocalMatrix":
        n = len(values)
        rows = [[0] * n for _ in range(n)]
        for i, x in enumerate(values):
            rows[i][i] = x
        if n and all(type(x) is int for x in values):
            # integer rows over 1 are already in lowest terms
            return _lowest_terms(tuple(map(tuple, rows)), 1, check_prime(prime))
        return cls(rows, prime)

    @classmethod
    def power_diagonal(cls, exponents: Sequence[int], prime: int) -> "LocalMatrix":
        """diag(p^e_1, ..., p^e_n), built from integers."""
        p = check_prime(prime)
        exponents = int_tuple(exponents)
        n = len(exponents)
        if n == 0:
            raise ValueError("matrix must be square and nonempty")
        shift = max(0, -min(exponents))
        rows = [[0] * n for _ in range(n)]
        for i, e in enumerate(exponents):
            rows[i][i] = p ** (e + shift)
        return cls._from_raw(rows, p**shift, p)

    @classmethod
    def matrix_unit(
        cls, n: int, i: int, j: int, prime: int, exponent: int = 0
    ) -> "LocalMatrix":
        """p^exponent times the matrix unit E(i, j); raises TypeError and
        IndexError as ``check_index_pair``."""
        p = check_prime(prime)
        n = _as_int(n, "n")
        check_index_pair(i, j, n, "matrix unit")
        exponent = _as_int(exponent, "exponent")
        rows = [[0] * n for _ in range(n)]
        rows[i][j] = p ** max(exponent, 0)
        return cls._from_raw(rows, p ** max(-exponent, 0), p)

    def entry(self, i: int, j: int) -> Fraction:
        return Fraction(self.nums[i][j], self.den)

    def fractions(self) -> tuple[tuple[Fraction, ...], ...]:
        den = self.den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self.nums)

    def valuation(self, i: int, j: int):
        num = self.nums[i][j]
        if num == 0:
            return INFINITE
        return _int_valuation(num, self.prime) - _int_valuation(self.den, self.prime)

    def valuation_matrix(self) -> tuple:
        vden = _int_valuation(self.den, self.prime)
        return tuple(
            tuple(
                INFINITE if x == 0 else _int_valuation(x, self.prime) - vden
                for x in row
            )
            for row in self.nums
        )

    def is_integral(self) -> bool:
        """Whether every entry lies in the valuation ring."""
        # in lowest terms, p | den leaves some numerator prime to p
        return self.den % self.prime != 0

    def is_diagonal(self) -> bool:
        return all(
            self.nums[i][j] == 0
            for i in range(self.n)
            for j in range(self.n)
            if i != j
        )

    def _require_compatible(self, other: "LocalMatrix") -> None:
        if not isinstance(other, LocalMatrix):
            raise TypeError("expected a LocalMatrix")
        if self.n != other.n:
            raise DimensionMismatchError(f"dimensions {self.n} and {other.n} differ")
        if self.prime != other.prime:
            raise ValueError(f"prime mismatch: {self.prime} vs {other.prime}")

    def __matmul__(self, other: "LocalMatrix") -> "LocalMatrix":
        self._require_compatible(other)
        return _lowest_terms(
            _mul_rows(self.nums, other.nums), self.den * other.den, self.prime
        )

    def __add__(self, other: "LocalMatrix") -> "LocalMatrix":
        self._require_compatible(other)
        da, db = self.den, other.den
        rows = tuple(
            tuple(x * db + y * da for x, y in zip(ra, rb))
            for ra, rb in zip(self.nums, other.nums)
        )
        return _lowest_terms(rows, da * db, self.prime)

    def __sub__(self, other: "LocalMatrix") -> "LocalMatrix":
        return self + (-other)

    def __neg__(self) -> "LocalMatrix":
        return _lowest_terms(
            tuple(tuple(-x for x in row) for row in self.nums), self.den, self.prime
        )

    def scale(self, c: _RationalLike) -> "LocalMatrix":
        f = Fraction(_exact(c, "scale"))
        rows = tuple(tuple(x * f.numerator for x in row) for row in self.nums)
        return _lowest_terms(rows, self.den * f.denominator, self.prime)

    def transpose(self) -> "LocalMatrix":
        return _lowest_terms(tuple(zip(*self.nums)), self.den, self.prime)

    def det(self) -> Fraction:
        """Exact determinant, det(N) / den^n for N = nums."""
        return Fraction(_adjugate(self.nums)[1], self.den**self.n)

    def inverse(self) -> "LocalMatrix":
        """Exact inverse; raises SingularInputError when the determinant is zero.

        The inverse of N / den is den adj(N) / det N, scaled and reduced
        to lowest terms in one pass.
        """
        adj, d = _adjugate(self.nums)
        if d == 0:
            raise SingularInputError("matrix is singular")
        # gcd(d, den * gcd(adj)) divides out while the rows are scaled
        g = math.gcd(d, self.den * math.gcd(*itertools.chain.from_iterable(adj)))
        scale = self.den if d > 0 else -self.den
        rows = tuple([tuple([scale * x // g for x in row]) for row in adj])
        return _fill(object.__new__(LocalMatrix), self.n, self.prime, rows, abs(d) // g)

    def _key(self) -> tuple:
        return (self.prime, self.den, self.nums)

    def __repr__(self) -> str:
        rows = ", ".join(
            "[" + ", ".join(str(f) for f in row) + "]" for row in self.fractions()
        )
        return f"LocalMatrix([{rows}], prime={self.prime})"

    def to_json_dict(self) -> dict:
        return {
            "prime": self.prime,
            "entries": [
                [f"{f.numerator}/{f.denominator}" for f in row]
                for row in self.fractions()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "LocalMatrix":
        if not isinstance(data, dict) or "entries" not in data or "prime" not in data:
            raise ValueError("expected an object with 'entries' and 'prime' fields")
        _closed_fields(data, ("entries", "prime"))
        return cls(data["entries"], data["prime"])


_set_n = LocalMatrix.n.__set__
_set_prime = LocalMatrix.prime.__set__
_set_nums = LocalMatrix.nums.__set__
_set_den = LocalMatrix.den.__set__


def _within(rows: Sequence[Sequence[int]], bounds: tuple, vden: int, p: int) -> bool:
    """Whether every entry of N / d, for integer rows N and any d >= 1 of
    valuation ``vden``, has valuation at least ``bounds[i][j]``, read in
    one pass that stops at the first failure.

    Entry x passes when p^k divides it, k = bounds[i][j] + vden: always
    when x is 0 or k <= 0, and never once k (p.bit_length() - 1) >=
    x.bit_length(), as then p^k > |x|, so no p^k longer than x is formed.
    """
    bits = p.bit_length() - 1
    for row, brow in zip(rows, bounds):
        for x, b in zip(row, brow):
            k = b + vden
            if k > 0 and x and (k * bits >= x.bit_length() or x % p**k):
                return False
    return True


def _membership_test(bounds: tuple, vden: int, p: int):
    """Predicate on integer rows N that decides ``_within(N, bounds, vden, p)``
    with its moduli built once, for a caller that tests many row sets."""
    moduli = [p ** max(b + vden, 0) for b in itertools.chain.from_iterable(bounds)]
    return lambda rows: not any(map(operator.mod, itertools.chain.from_iterable(rows), moduli))


def in_split_order(A: LocalMatrix, nu: ExponentMatrix) -> bool:
    """Whether every entry of A has valuation at least the matching
    exponent, read off A's numerators and v(A.den) in one pass."""
    if A.n != nu.n:
        raise DimensionMismatchError(
            f"matrix has n = {A.n} but exponents have n = {nu.n}"
        )
    return _within(A.nums, nu.entries, _int_valuation(A.den, A.prime), A.prime)


def lambda_membership(A: LocalMatrix, v: ApartmentVertex) -> bool:
    """Whether A lies in the maximal order at vertex v.

    It is the split order S(nu) with nu[i][j] = m_i - m_j, so entry (i, j)
    is tested as ``_within`` tests it, against k = m_i - m_j + v(A.den);
    only the homothety class of v matters.
    """
    if A.n != v.n:
        raise DimensionMismatchError(f"matrix has n = {A.n} but vertex has n = {v.n}")
    m, p = v.m, A.prime
    vden, bits = _int_valuation(A.den, p), p.bit_length() - 1
    for mi, row in zip(m, A.nums):
        for mj, x in zip(m, row):
            k = mi - mj + vden
            if k > 0 and x and (k * bits >= x.bit_length() or x % p**k):
                return False
    return True


def conjugate(xi: LocalMatrix, A: LocalMatrix) -> LocalMatrix:
    """Exact conjugate xi^(-1) A xi.

    Raises SingularConjugatorError when xi is not invertible.
    """
    xi._require_compatible(A)
    try:
        xi_inv = xi.inverse()
    except SingularInputError as exc:
        raise SingularConjugatorError("conjugating matrix is singular") from exc
    return _triple_product(xi_inv, A, xi)


def _triple_product(l: LocalMatrix, a: LocalMatrix, r: LocalMatrix) -> LocalMatrix:
    """l @ a @ r, normalized to lowest terms once instead of twice.

    Raises the errors of ``l @ a`` and then of ``(l @ a) @ r``; the
    lowest-terms form is unique, so the result equals the two-step product.
    """
    l._require_compatible(a)
    l._require_compatible(r)
    return _lowest_terms(
        _mul_rows(_mul_rows(l.nums, a.nums), r.nums), l.den * a.den * r.den, l.prime
    )


class HermiteForm(FrozenRecord):
    """Canonical upper-triangular form under left multiplication by integral units.

    The diagonal entries are exact powers of the prime and each entry
    above the diagonal in column j is the canonical residue in
    {0, ..., p^{m_j} - 1}; the representative of the zero class is 0.
    """

    __match_args__ = ("matrix", "exponents")

    def __init__(self, matrix: LocalMatrix, exponents: tuple[int, ...]):
        self._set(matrix, exponents)

    def is_diagonal(self) -> bool:
        return self.matrix.is_diagonal()


def hermite_normal_form(xi: LocalMatrix) -> tuple[HermiteForm, LocalMatrix]:
    """Canonical triangular form H of an integral invertible matrix.

    Returns (form, transform) with transform @ xi equal to form.matrix and
    transform an integral matrix of unit determinant.  Column pivots take
    the entry of least valuation, ties broken by lowest row index, so the
    computation is deterministic; the result is the unique canonical
    representative of the orbit of xi under integral left units.  The
    transform is H xi^(-1), built from the adjugate of xi's numerators
    without forming the inverse.

    Raises NonIntegralInputError when an entry has negative valuation and
    SingularInputError when xi is singular.
    """
    p = xi.prime
    if not xi.is_integral():
        raise NonIntegralInputError("triangular form needs integral entries")
    n = xi.n
    if n <= 3:
        a = list(xi.nums)
        minors = _hermite_echelon(a, p)
    else:
        a = [list(row) for row in xi.nums]
        minors = _eliminate(a, _least_valuation(p, full=False))[0]
    if len(minors) < n:
        raise SingularInputError("matrix is singular")
    # Row i of the echelon form over O is a[i] / (minor_i den) with diagonal
    # minor_(i+1) / (minor_i den); den is a unit here, so its diagonal
    # exponent is v(minor_(i+1)) - v(minor_i).
    vals = [0] + [_int_valuation(m, p) for m in minors]
    exponents = tuple(vals[i + 1] - vals[i] for i in range(n))
    # Entries of column j are residues mod p^(e_j), and reducing a row
    # against the rows below it loses e_j digits of precision in column
    # j, so working mod p^(sum e) determines every residue exactly.
    modulus = p ** sum(exponents)
    rows: list[list[int]] = [[] for _ in range(n)]
    for i in reversed(range(n)):
        # row i scaled to diagonal p^(e_i) is a[i] p^(e_i) / minor_(i+1),
        # that is (a[i] / p^v(minor_i)) / unit part of minor_(i+1)
        shift = p ** vals[i]
        unit_inv = pow(minors[i] // p ** vals[i + 1], -1, modulus)
        w = [0] * n
        w[i] = p ** exponents[i]
        for c in range(i + 1, n):
            w[c] = a[i][c] // shift * unit_inv % modulus
        for j in range(i + 1, n):
            q = p ** exponents[j]
            r = w[j] % q
            coeff = (w[j] - r) // q
            if coeff:
                hj = rows[j]
                for c in range(j + 1, n):
                    w[c] = (w[c] - coeff * hj[c]) % modulus
            w[j] = r
        rows[i] = w
    H = LocalMatrix._from_raw(rows, 1, p)
    # the transform is unique: H xi^(-1) = H adj(X) xi.den / det X for
    # X = xi.nums, reduced to lowest terms once with the sign of det X
    # moved into the numerators.
    adj, d = _adjugate(xi.nums)
    scale = xi.den if d > 0 else -xi.den
    prod = _mul_rows(H.nums, adj)
    if scale != 1:
        prod = [tuple([scale * x for x in row]) for row in prod]
    return HermiteForm(H, exponents), _lowest_terms(prod, abs(d), p)


def diagonal_witness(form: HermiteForm) -> LocalMatrix:
    """0/1 diagonal D whose conjugate xi D xi^(-1) is not integral.

    Witnesses that a non-diagonal triangular form fails to normalize the
    diagonal torus: if the first nonzero entry above the diagonal sits at
    (i, j), the conjugate picks up (a_ij / p^{m_j})(d_j - d_i), which has
    negative valuation for d_i != d_j.  The diagonals are searched in
    lexicographic order and the first witness is returned.  The conjugate
    is X D adj(X) / det X for X = xi.nums (the denominator of xi
    cancels), so each D is tested on that integer product against
    p^v(det X), and only the returned witness is built as a LocalMatrix.

    Raises AlreadyDiagonalError when no witness exists, which happens
    exactly when the form is diagonal, and SingularInputError when xi is
    singular.
    """
    xi = form.matrix
    n, p = xi.n, xi.prime
    X = xi.nums
    adj, d = _adjugate(X)
    if d == 0:
        raise SingularInputError("matrix is singular")
    # p^v(det X) divides every entry of X D adj(X) exactly when it divides their gcd
    q = p ** _int_valuation(d, p)
    for bits in itertools.product((0, 1), repeat=n):
        XD = [tuple([x * b for x, b in zip(row, bits)]) for row in X]
        if math.gcd(*itertools.chain.from_iterable(_mul_rows(XD, adj))) % q:
            return LocalMatrix.diagonal(bits, p)
    raise AlreadyDiagonalError(
        "every 0/1 diagonal conjugates integrally; the form is diagonal"
    )


def elementary_divisors(L: LocalMatrix, Lp: LocalMatrix) -> tuple[int, ...]:
    """Exponents of the elementary divisors of the lattice of Lp inside that of L.

    Columns of each matrix are lattice basis vectors, and the exponents
    are those of M = L^(-1) Lp: the k smallest sum to the least valuation
    of the k x k minors of M.  M is never built: it equals N / D with
    N = adj(L.nums) Lp.nums and D = det(L.nums) Lp.den / L.den, so
    exponent t is v(g_t) - v(g_(t-1)) - v(D), where v(g_t) is the least
    valuation of the t x t minors of N.  At n <= 3 g_t is their gcd: of
    the entries, of the adjugate's entries (the (n - 1)-minors) and det N.
    Larger n reduce N to a diagonal by fraction-free row and column
    operations, pivoting on the entry of least valuation (ties broken by
    lowest row, then column, index), and g_t is the t-th pivot.
    Exponents are returned in nondecreasing order and may be negative
    when the second lattice is not contained in the first.

    Raises SingularInputError when either basis is singular.
    """
    L._require_compatible(Lp)
    return _divisor_exponents(L.nums, L.den, Lp.nums, Lp.den, L.prime)


def _divisor_exponents(l_nums: Sequence, l_den: int, lp_nums: Sequence, lp_den: int, p: int):
    """``elementary_divisors`` of l_nums / l_den and lp_nums / lp_den, in lowest terms or not."""
    n = len(l_nums)
    adj_l, det_l = _adjugate(l_nums)
    if det_l == 0:
        raise SingularInputError("matrix is singular")
    N = _mul_rows(adj_l, lp_nums)
    if n <= 3:
        adj, d = _adjugate(N)
        chain = itertools.chain.from_iterable
        # gcds of the k x k minors of N for k = 1..n, or none when singular
        gcds = (math.gcd(*chain(N)), math.gcd(*chain(adj)), d)
        minors = gcds[3 - n :] if d else ()
    else:
        minors = _eliminate([list(row) for row in N], _least_valuation(p, full=True))[0]
    if len(minors) < n:
        raise SingularInputError("lattice basis is singular")
    vden = _int_valuation(det_l, p) + _int_valuation(lp_den, p) - _int_valuation(l_den, p)
    vals = [0] + [_int_valuation(m, p) for m in minors]
    return tuple(sorted(vals[t + 1] - vals[t] - vden for t in range(n)))


def _below(draw, width: int) -> int:
    """A uniform integer in [0, width), width >= 1, from ``draw``, an
    ``rng.getrandbits``: r = draw(k), with k the bit length of width,
    redrawn while r >= width.

    Those are the words ``rng.randrange(width)`` reads on Python 3.10 to
    3.13, so the value and the state left behind are the same, for
    ``random.Random`` and any subclass unless it overrides ``random``
    without ``getrandbits``: ``Random.__init_subclass__`` then switches
    ``randrange`` to an algorithm built on ``random()``.
    """
    k = width.bit_length()
    r = draw(k)
    while r >= width:
        r = draw(k)
    return r


# largest word size k whose 2^k words get a lookup table in _exact_units
_TABLE_BITS = 11

# trials whose units ring_closure_check holds at a time, so that the memory
# a check takes does not grow with its trial count
_BLOCK_TRIALS = 128


class _UnitRule(dict):
    """Which words the unit readers accept: ``rule[r]`` is r + 1 for a word
    r of the bit length of p^4 with r < p^4 and p not dividing r + 1, and
    0 for any other word, which is redrawn.  It computes each entry and
    keeps nothing."""

    __slots__ = ("bound", "p")

    def __init__(self, p: int):
        super().__init__()
        self.bound, self.p = p**4, p

    def __missing__(self, r: int) -> int:
        return r + 1 if r < self.bound and (r + 1) % self.p else 0


@functools.lru_cache(maxsize=None)
def _unit_table(p: int) -> tuple[int, ...]:
    """``_UnitRule(p)`` over every word, as a tuple.

    Only primes with p^4 < 2^_TABLE_BITS (2, 3 and 5) are asked for, so
    the cache holds at most three tables.
    """
    rule = _UnitRule(p)
    return tuple([rule[r] for r in range(1 << rule.bound.bit_length())])


def _exact_units(rng: random.Random, p: int, count: int) -> list[int]:
    """``count`` units, each uniform on [1, p^4] and prime to p, drawn as
    ``randint(1, p^4)`` redrawn while p divides it.

    That is u = ``_below(rng.getrandbits, p^4) + 1``, redrawn while p | u:
    one word of k bits, k the bit length of p^4, per draw, which
    ``_UnitRule(p)`` accepts or rejects.  Each word is looked up in
    ``_unit_table(p)``, or past _TABLE_BITS in the rule itself, so the
    reader reads the same words, and the units and the state left behind
    are the stream's.
    """
    k = (p**4).bit_length()
    units = _unit_table(p) if k <= _TABLE_BITS else _UnitRule(p)
    getrandbits = rng.getrandbits
    out = []
    for _ in range(count):
        u = units[getrandbits(k)]
        while not u:
            u = units[getrandbits(k)]
        out.append(u)
    return out


@functools.lru_cache(maxsize=None)
def _byte_table(p: int) -> tuple[bytes, bytes]:
    """``(table, reject)`` for a prime with p^4 < 2^8 (2 and 3): ``table``
    maps a word's top byte b to ``_unit_table(p)[b >> (8 - k)]``, k the
    bit length of p^4, and ``reject`` lists the bytes that map to 0."""
    units = _unit_table(p)
    shift = 8 - (p**4).bit_length()
    table = bytes([units[b >> shift] for b in range(256)])
    return table, bytes([b for b in range(256) if not table[b]])


def _unit_blocks(rng: random.Random, p: int, sizes: Iterable[int]):
    """Successive blocks of units, one of each length in ``sizes``, that
    together are the units ``_exact_units`` reads from ``rng``, in order.

    At p >= 5 each block is ``_exact_units(rng, p, size)``.  At p^4 < 2^8
    words are read w at a time: ``getrandbits(32 w)`` is w successive
    words, the first one least significant, so byte 4 i + 3 of its
    little-endian bytes is word i's top byte, whose top k bits are what
    ``getrandbits(k)`` gives for that word.  One ``translate`` drops the
    bytes of rejected words and maps the rest to their units (bytes, as
    p^4 < 2^8).  Words are read ahead of the units handed out, so ``rng``
    is left in no stated state: give only a generator nothing else reads.
    """
    if p**4 >= 256:
        for size in sizes:
            yield _exact_units(rng, p, size)
        return
    table, reject = _byte_table(p)
    spare = b""
    for size in sizes:
        while len(spare) < size:
            # the words the missing units take at the acceptance rate, plus
            # a margin, so that one read mostly suffices
            w = (size - len(spare)) * 256 // (256 - len(reject)) + 64
            words = rng.getrandbits(32 * w).to_bytes(4 * w, "little")
            spare += words[3::4].translate(table, reject)
        yield spare[:size]
        spare = spare[size:]


def _sharp_scales(nu: ExponentMatrix, p: int) -> tuple[tuple[int, ...], int]:
    """``(scales, den)`` of a sharp sample: den = p^shift, shift the
    largest of 0 and every -nu[i][j], and scales the p^(nu[i][j] + shift),
    row by row in one tuple."""
    shift = max(0, -min(x for row in nu.entries for x in row))
    return tuple([p ** (e + shift) for row in nu.entries for e in row]), p**shift


def sample_split_order_element(
    nu: ExponentMatrix, rng: random.Random, prime: int
) -> LocalMatrix:
    """Random element of S(nu) whose entries have valuation exactly nu[i][j].

    Each entry is a unit numerator, drawn uniformly from [1, p^4] coprime
    to p, scaled by p^{nu[i][j]}; entries are drawn row by row.  The units
    are read through ``_exact_units``, so the samples and the final state
    are those of rejection sampling with ``rng.randint(1, p^4)``.
    """
    p = check_prime(prime)
    scales, den = _sharp_scales(nu, p)
    entries = map(operator.mul, _exact_units(rng, p, len(scales)), scales)
    return LocalMatrix._from_raw(zip(*[entries] * nu.n), den, p)


def ring_closure_check(
    nu: ExponentMatrix,
    trials: int = 1000,
    seed: int = 0,
    prime: int = 2,
) -> Union[bool, tuple[LocalMatrix, LocalMatrix]]:
    """Randomized multiplicative-closure check for S(nu).

    For an order, samples ``trials`` pairs with sharp entry valuations and
    verifies every product stays in S(nu); returns True when all pass.
    Otherwise returns a witness pair (A, B) of elements of S(nu) whose
    product escapes; for a non-order the witness is built deterministically
    from the first violated triple (i, k, j) as p^{nu[i][k]} E(i, k) and
    p^{nu[k][j]} E(k, j).

    Pairs are drawn as by ``sample_split_order_element`` from
    ``random.Random(seed)``: the sampled values and the witness are those
    of the ``randint`` stream, so a seed replays them.  That generator is
    the function's own and is read in blocks of _BLOCK_TRIALS trials, at
    p = 2 and 3 ahead of the units it uses (``_unit_blocks``); it is
    dropped on return, so nothing observes the words read ahead.

    ``trials`` and ``seed`` are ints (an integral float reads as one; a
    bool or another non-integer raises TypeError), and ``trials`` must be
    at least 1 (ValueError), as in ``fuzz.FuzzConfig``.
    """
    trials = _as_int(trials, "trials")
    if trials < 1:
        raise ValueError("trial count must be >= 1")
    seed = _as_int(seed, "seed")
    p = check_prime(prime)
    violation = first_violation(nu)
    if violation is not None:
        i, k, j = violation
        A = LocalMatrix.matrix_unit(nu.n, i, k, p, exponent=nu.entries[i][k])
        B = LocalMatrix.matrix_unit(nu.n, k, j, p, exponent=nu.entries[k][j])
        return (A, B)
    scales, den = _sharp_scales(nu, p)
    n = nu.n
    # every product is an integer matrix over den^2, tested as it stands
    within = _membership_test(nu.entries, 2 * _int_valuation(den, p), p)
    sizes = (
        2 * len(scales) * min(_BLOCK_TRIALS, trials - t) for t in range(0, trials, _BLOCK_TRIALS)
    )
    for units in _unit_blocks(random.Random(seed), p, sizes):
        entries = map(operator.mul, units, itertools.cycle(scales))
        matrices = zip(*[zip(*[entries] * n)] * n)
        for a, b in zip(matrices, matrices):
            if not within(_mul_rows(a, b)):
                return (LocalMatrix._from_raw(a, den, p), LocalMatrix._from_raw(b, den, p))
    return True
