"""Membership tested on raw integer rows over a denominator.

``dvr._within`` and the predicate ``dvr._membership_test`` builds read
valuations off numerators that need not be in lowest terms with their
denominator, given that denominator's valuation; these tests hold them
and the membership tests built on them to a Fraction oracle that reduces
every entry first.  They also pin the written-out lowest-terms division
and the argument checks of ``ring_closure_check``.
"""

import gc
import itertools
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


def _vden(den, p):
    return padic_valuation(Fraction(den), p)


def _test(bounds, den, p):
    """The predicate built for ``bounds`` over a denominator ``den``."""
    return dvr._membership_test(tuple(map(tuple, bounds)), _vden(den, p), p)


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
                assert dvr._within(rows, bounds, _vden(den, p), p) == want
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
                assert dvr._within([[x]], [[k]], _vden(den, p), p) == want

    class Unread:
        def __iter__(self):
            raise AssertionError("read past the first failing entry")

    # entry (0, 0) fails, so the row after it is never read
    assert _test([[1, 0], [0, 0]], 1, p)([[1, 0], Unread()]) is False
    assert dvr._within([[1, 0], Unread()], [[1, 0], [0, 0]], 0, p) is False


def test_large_exponents_build_no_modulus_past_a_failing_entry():
    """At p = 3 a bound of 10^6 asks for a modulus of about 198 KB.  A
    matrix whose entry (0, 0) fails is refused without building it, and
    a passing call keeps nothing once it returns."""
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


@pytest.mark.parametrize("p", (2, 3, 5))
def test_a_huge_bound_refuses_a_short_entry_without_its_modulus(p):
    """A bound of 10^7 on entry 1 asks for p^(10^7), 1.25 MB at p = 2 and
    more above it; since p^k > |x| once k (p.bit_length() - 1) reaches
    x's bit length, the entry is refused without forming it."""
    big = 10**7
    A = LocalMatrix([[1, 1], [1, 1]], p)
    nu = ExponentMatrix([[0, big], [0, 0]])
    far = ApartmentVertex([0, -big])
    S = GeneralSplitOrder(Apartment.standard(2, p), intersect_maximal([far]))
    tracemalloc.start()
    try:
        assert in_split_order(A, nu) is False
        assert lambda_membership(A, far) is False
        assert general_membership(S, A) is False
        assert dvr._within([[0, 0], [0, 0]], nu.entries, 0, p) is True
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_membership_calls_keep_no_memory():
    """Each membership test is built inside its call and goes with it:
    5000 calls of each kind on distinct random orders leave the traced
    memory where it started."""
    rng = random.Random(29)
    apartments = {(n, p): Apartment.standard(n, p) for n in (2, 3, 4) for p in PRIMES}

    def calls(count):
        for t in range(count):
            p, n = PRIMES[t % len(PRIMES)], 2 + t % 3
            v = ApartmentVertex([rng.randint(-40, 40) for _ in range(n)])
            nu = intersect_maximal([v])
            A = LocalMatrix([[Fraction(rng.randint(-50, 50), rng.choice((1, p)))
                              for _ in range(n)] for _ in range(n)], p)
            in_split_order(A, nu)
            lambda_membership(A, v)
            general_membership(GeneralSplitOrder(apartments[n, p], nu), A)

    calls(50)  # load whatever the first calls import
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        calls(5000)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert kept < 64 * 1024


@pytest.mark.parametrize("p", PRIMES)
def test_membership_tests_match_fraction_oracle(p):
    rng = random.Random(2000 + p)
    seen = set()  # (kind of entry, outcome of its matrix) pairs met
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
            # the single pass on raw rows, in lowest terms or not
            for extra in (1, p, 6 * p):
                rows, den = _raw(fracs, extra)
                for want_bounds in (bounds, by_vertex):
                    want = frac_within(fracs, want_bounds, p)
                    assert dvr._within(rows, want_bounds, _vden(den, p), p) == want
                    ks = [b + _vden(den, p) for b in itertools.chain.from_iterable(want_bounds)]
                    seen.update(("zero" if x == 0 else "k <= 0" if k <= 0 else "k > 0", want)
                                for x, k in zip(itertools.chain.from_iterable(rows), ks))
    assert seen == {(case, want) for case in ("zero", "k <= 0", "k > 0") for want in (True, False)}


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
