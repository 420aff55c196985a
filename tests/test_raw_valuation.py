"""Membership tested on raw integer rows over a denominator.

``dvr._membership_test`` reads valuations off numerators that need not
be in lowest terms with their denominator, given that denominator's
valuation; these tests hold it and the membership tests built on it to
a Fraction oracle that reduces every entry first.  They also pin the
written-out lowest-terms division and the argument checks of
``ring_closure_check``.
"""

import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from _oracles import frac_gauss_jordan, frac_matmul, frac_within, padic_valuation
from splitorders import dvr
from splitorders.apartments import Apartment, GeneralSplitOrder, general_membership
from splitorders.correspondence import ApartmentVertex, intersect_maximal
from splitorders.dvr import (
    LocalMatrix,
    in_split_order,
    lambda_membership,
    ring_closure_check,
)
from splitorders.exponent import ExponentMatrix

PRIMES = (2, 3, 5, 7)


def _entry(rng, p):
    """Zero, or a unit prime to p times p^e with e in [-3, 4]."""
    if rng.random() < 0.15:
        return Fraction(0)
    u = rng.choice((1, 2, 3, 4, 5, 6, 8, 9, 11, 13))
    while u % p == 0:
        u += 1
    return Fraction(rng.choice((u, -u))) * Fraction(p) ** rng.randint(-3, 4)


def _near_bounds(rng, fracs, p):
    """Bounds at, just below or just above each entry's valuation, so that
    entries sit on both sides of the boundary; any bound for a zero."""
    return [
        [
            rng.randint(-6, 6) if x == 0 else padic_valuation(x, p) + rng.choice((-1, 0, 0, 1))
            for x in row
        ]
        for row in fracs
    ]


def _test(bounds, den, p):
    """The cached predicate for ``bounds`` over a denominator ``den``."""
    return dvr._membership_test(tuple(map(tuple, bounds)), padic_valuation(Fraction(den), p), p)


def _raw(fracs, extra):
    """Integer rows over a common denominator, both multiplied by ``extra``,
    so the pair is not in lowest terms when extra > 1."""
    den = math.lcm(*(x.denominator for row in fracs for x in row))
    rows = [[x.numerator * (den // x.denominator) * extra for x in row] for row in fracs]
    return rows, den * extra


@pytest.mark.parametrize("p", PRIMES)
def test_raw_test_matches_fraction_oracle(p):
    rng = random.Random(1000 + p)
    outcomes = set()
    for n in (1, 2, 3, 4):
        for _ in range(150):
            fracs = [[_entry(rng, p) for _ in range(n)] for _ in range(n)]
            bounds = _near_bounds(rng, fracs, p)
            want = frac_within(fracs, bounds, p)
            outcomes.add(want)
            # raw rows over a denominator, in lowest terms or not
            for extra in (1, p, p**3, 6 * p, 35):
                rows, den = _raw(fracs, extra)
                assert _test(bounds, den, p)(rows) == want
    assert outcomes == {True, False}


def test_raw_test_reuses_its_moduli_across_rows():
    """One predicate, built once, decides every row set over its denominator."""
    rng = random.Random(7)
    for p in PRIMES:
        bounds = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        den = p**2 * 3
        test = _test(bounds, den, p)
        for _ in range(100):
            rows = [[rng.randint(-500, 500) * p ** rng.randint(0, 5) for _ in range(3)]
                    for _ in range(3)]
            fracs = [[Fraction(x, den) for x in row] for row in rows]
            assert test(rows) == frac_within(fracs, bounds, p)


def test_raw_test_on_negative_numerators_at_two():
    """The p = 2 mask reads the low bits of negative numerators exactly."""
    for x in range(-70, 71):
        for k in range(-2, 8):
            assert _test([[k]], 1, 2)([[x]]) == (x == 0 or x % 2 ** max(k, 0) == 0)


@pytest.mark.parametrize("p", PRIMES)
def test_raw_test_on_single_entries_matches_fraction_oracle(p):
    """One-entry rows, over denominators in and out of lowest terms with
    their numerator, against the oracle on the reduced fraction."""
    for x in range(-70, 71):
        for k in range(-2, 8):
            for den in (1, p, p**2 * 3):
                want = frac_within([[Fraction(x, den)]], [[k]], p)
                assert _test([[k]], den, p)([[x]]) == want

    class Unread:
        def __iter__(self):
            raise AssertionError("read past the first failing entry")

    # entry (0, 0) fails, so the row after it is never read
    assert _test([[1, 0], [0, 0]], 1, p)([[1, 0], Unread()]) is False


def test_large_exponents_build_no_modulus_past_a_failing_entry():
    """At p = 3 a bound of 10^6 asks for a modulus of about 198 KB.  A
    matrix whose entry (0, 0) fails is refused without building it, and
    the moduli of a passing call, past 4096 bits, are not kept."""
    big = 10**6
    nu = ExponentMatrix([[0, big], [big, 0]])
    fails = LocalMatrix([[Fraction(1, 3), 0], [0, 1]], 3)
    tracemalloc.start()
    try:
        assert in_split_order(fails, nu) is False
        assert lambda_membership(fails, ApartmentVertex([0, big])) is False
        peak = tracemalloc.get_traced_memory()[1]
        before = tracemalloc.get_traced_memory()[0]
        assert in_split_order(LocalMatrix.identity(2, 3), nu) is True
        assert in_split_order(LocalMatrix.identity(2, 3), nu) is True
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert peak < 50_000
    assert kept < 50_000


@pytest.mark.parametrize("p", PRIMES)
def test_membership_tests_match_fraction_oracle(p):
    rng = random.Random(2000 + p)
    for n in (2, 3, 4):  # exponent matrices and vertices have n >= 2
        for _ in range(60):
            fracs = [[_entry(rng, p) for _ in range(n)] for _ in range(n)]
            A = LocalMatrix(fracs, p)
            bounds = _near_bounds(rng, fracs, p)
            for i in range(n):
                bounds[i][i] = 0
            assert in_split_order(A, ExponentMatrix(bounds)) == frac_within(fracs, bounds, p)
            v = ApartmentVertex([rng.randint(-3, 3) for _ in range(n)])
            by_vertex = [[mi - mj for mj in v.m] for mi in v.m]
            assert lambda_membership(A, v) == frac_within(fracs, by_vertex, p)


def _invertible(rng, n, p):
    while True:
        rows = [[Fraction(rng.randint(-9, 9), rng.choice((1, p, p * p))) for _ in range(n)]
                for _ in range(n)]
        det, inv = frac_gauss_jordan(rows)
        if det != 0:
            return rows, inv


@pytest.mark.parametrize("p", PRIMES)
def test_general_membership_matches_fraction_pullback(p):
    """The raw pull-back decides membership as the reduced one does."""
    rng = random.Random(3000 + p)
    outcomes = set()
    for n in (2, 3, 4):
        for _ in range(15):
            gamma, gamma_inv = _invertible(rng, n, p)
            ap = Apartment(LocalMatrix(gamma, p))
            family = [ApartmentVertex([rng.randint(-2, 2) for _ in range(n)])
                      for _ in range(rng.randint(1, 3))]
            S = GeneralSplitOrder(ap, intersect_maximal(family))
            for _ in range(6):
                fracs = [[_entry(rng, p) for _ in range(n)] for _ in range(n)]
                A = LocalMatrix(fracs, p)
                pulled = frac_matmul(frac_matmul(gamma_inv, fracs), gamma)
                want = frac_within(pulled, S.nu.entries, p)
                outcomes.add(want)
                assert general_membership(S, A) == want
                assert in_split_order(ap.to_standard(A), S.nu) == want
            # an element of the order, pushed out of the standard frame
            inner = [[Fraction(p) ** e for e in row] for row in S.nu.entries]
            member = frac_matmul(frac_matmul(gamma, inner), gamma_inv)
            assert general_membership(S, LocalMatrix(member, p))
    assert outcomes == {True, False}


def _comprehension_lowest_terms(rows, den):
    g = math.gcd(den, *(x for row in rows for x in row))
    return tuple(tuple([x // g for x in row]) for row in rows), den // g


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_written_out_lowest_terms_matches_comprehension(n):
    rng = random.Random(40 + n)
    for p in PRIMES:
        for _ in range(200):
            g = rng.choice((1, 2, p, p**3, 12, 35))
            den = rng.choice((1, p, p**2, 6)) * g
            rows = tuple(tuple(rng.randint(-60, 60) * g for _ in range(n)) for _ in range(n))
            # products arrive as a list of tuples, other callers pass tuples
            M = dvr._lowest_terms(rng.choice((list, tuple))(rows), den, p)
            nums, want_den = _comprehension_lowest_terms(rows, den)
            assert (M.n, M.prime, M.nums, M.den) == (n, p, nums, want_den)
            assert type(M.nums) is tuple and all(type(row) is tuple for row in M.nums)
            assert M == LocalMatrix([[Fraction(x, den) for x in row] for row in rows], p)


_ORDER = ExponentMatrix([[0, -1, 0], [1, 0, 1], [0, -1, 0]])
_NON_ORDER = ExponentMatrix([[0, 0, 2], [0, 0, 0], [0, 0, 0]])


@pytest.mark.parametrize("nu", [_ORDER, _NON_ORDER])
@pytest.mark.parametrize("trials", [0, -5])
def test_ring_closure_check_refuses_too_few_trials(nu, trials):
    with pytest.raises(ValueError, match="trial count must be >= 1"):
        ring_closure_check(nu, trials=trials, seed=1, prime=3)


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"trials": True}, TypeError, "trials True is not an integer"),
        ({"trials": 2.5}, ValueError, "trials 2.5 is not an integer"),
        ({"trials": "10"}, TypeError, "trials '10' is not an integer"),
        ({"seed": 1.5}, ValueError, "seed 1.5 is not an integer"),
        ({"seed": False}, TypeError, "seed False is not an integer"),
        ({"seed": None}, TypeError, "seed None is not an integer"),
        ({"seed": "abc"}, TypeError, "seed 'abc' is not an integer"),
    ],
)
def test_ring_closure_check_refuses_non_integer_arguments(kwargs, error, message):
    args = {"trials": 10, "seed": 1, **kwargs}
    with pytest.raises(error, match=message):
        ring_closure_check(_ORDER, prime=3, **args)


def test_ring_closure_check_reads_integral_floats_as_ints(monkeypatch):
    """With a stricter test the witness depends on the seed and the trial
    count, and 50.0 and 9.0 give the witness of 50 and 9."""
    monkeypatch.setattr(dvr, "_membership_test", lambda bounds, vden, p: lambda rows: rows[0][0] % 7)
    want = ring_closure_check(_ORDER, trials=50, seed=9, prime=5)
    assert want is not True
    assert ring_closure_check(_ORDER, trials=50.0, seed=9.0, prime=5) == want
