"""The sharp sampler, the ring-closure loop and the triple product against
Fraction references.

The sampler draws with ``getrandbits``; these tests hold it to the
``randrange`` stream it replaces, sample by sample and on the generator
state it leaves behind.
"""

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from _oracles import frac_matmul, frac_ring_closure, frac_sharp_sample, padic_valuation
from splitorders import dvr
from splitorders.dvr import (
    LocalMatrix,
    _sharp_sampler,
    _triple_product,
    ring_closure_check,
    sample_split_order_element,
)
from splitorders.errors import DimensionMismatchError
from splitorders.exponent import ExponentMatrix

SAMPLER_PRIMES = (2, 3, 5, 7, 257)  # 257^4 has 33 bits: more than one 32-bit word


def _random_nu(rng, n, lo=-3, hi=5):
    rows = [[rng.randint(lo, hi) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] = 0
    return rows


def _negative_nu(rng, n):
    """Exponents with at least one negative entry, so the denominator is > 1."""
    rows = _random_nu(rng, n)
    rows[0][n - 1] = -rng.randint(1, 3)
    return rows


def _nu_for_sampler(entries):
    # ExponentMatrix needs n >= 2; the sampler reads only the entries
    if len(entries) == 1:
        return SimpleNamespace(n=1, entries=((0,),))
    return ExponentMatrix(entries)


@pytest.mark.parametrize("p", SAMPLER_PRIMES)
def test_sampler_matches_randrange_stream_and_state(p):
    meta = random.Random(p)
    for n in range(1, 5):
        shapes = [[[0]]] if n == 1 else [_random_nu(meta, n), _negative_nu(meta, n)]
        for entries in shapes:
            nu = _nu_for_sampler(entries)
            seed = meta.randrange(2**32)
            ours, theirs = random.Random(seed), random.Random(seed)
            draw, den = _sharp_sampler(nu, p)
            for _ in range(6):
                got = LocalMatrix._from_raw(draw(ours), den, p)
                want = frac_sharp_sample(theirs, entries, p)
                assert [list(row) for row in got.fractions()] == want
            assert ours.getstate() == theirs.getstate()
            if min(min(row) for row in entries) < 0:
                assert den > 1


def test_public_sampler_leaves_the_randrange_state():
    for p in SAMPLER_PRIMES:
        entries = [[0, -2, 1], [3, 0, -1], [0, 2, 0]]
        ours, theirs = random.Random(p + 11), random.Random(p + 11)
        for _ in range(5):
            got = sample_split_order_element(ExponentMatrix(entries), ours, p)
            want = frac_sharp_sample(theirs, entries, p)
            assert [list(row) for row in got.fractions()] == want
        assert ours.getstate() == theirs.getstate()


def test_sampled_entries_have_exact_valuations():
    rng = random.Random(31)
    for p in SAMPLER_PRIMES:
        entries = _negative_nu(rng, 3)
        A = sample_split_order_element(ExponentMatrix(entries), rng, p)
        for i, row in enumerate(A.fractions()):
            for j, x in enumerate(row):
                assert padic_valuation(x, p) == entries[i][j]


def _as_fractions(pair):
    return tuple([list(row) for row in m.fractions()] for m in pair)


def test_ring_closure_matches_fraction_reference():
    rng = random.Random(404)
    orders = non_orders = 0
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        entries = _random_nu(rng, rng.randint(2, 4))
        seed = rng.randrange(2**31)
        got = ring_closure_check(ExponentMatrix(entries), trials=8, seed=seed, prime=p)
        want = frac_ring_closure(entries, 8, seed, p)
        if want is True:
            orders += 1
            assert got is True
        else:
            non_orders += 1
            assert _as_fractions(got) == want
    assert orders and non_orders


def test_ring_closure_sampled_witness_matches_fraction_reference(monkeypatch):
    """A stricter membership test makes sampled pairs fail: the witness is
    the first pair whose product the test rejects, drawn from the same
    stream, and the product handed to the test is the exact product."""

    def escapes(rows):
        return rows[0][0].numerator % (p * p) == 1

    def stricter_test(bounds, vden, prime):
        # den is a power of p here, so p^vden is the products' den^2
        den = prime**vden
        return lambda rows: not escapes([[Fraction(x, den) for x in row] for row in rows])

    monkeypatch.setattr(dvr, "_membership_test", stricter_test)
    entries = [[0, -1, 0], [1, 0, 1], [0, -1, 0]]  # an order with denominator p
    outcomes = set()
    for p in (2, 3, 5):
        for seed in range(6):
            got = ring_closure_check(ExponentMatrix(entries), trials=5, seed=seed, prime=p)
            want = frac_ring_closure(entries, 5, seed, p, escapes)
            outcomes.add(want is True)
            if want is True:
                assert got is True
            else:
                assert _as_fractions(got) == want
    assert outcomes == {True, False}


def _local(rng, n, p, den=True):
    """Entries num * p^e; with ``den`` some e are negative and entry (0, 0)
    is 1/p, so the denominator is > 1."""
    low = -2 if den else 0
    rows = [
        [Fraction(rng.randint(-p**3, p**3)) * Fraction(p) ** rng.randint(low, 2) for _ in range(n)]
        for _ in range(n)
    ]
    if den:
        rows[0][0] = Fraction(1, p)
    return LocalMatrix(rows, p)


def test_triple_product_equals_two_step_product():
    rng = random.Random(77)
    for p in (2, 3, 5):
        for n in (1, 2, 3, 4):
            for den in (False, True):
                l, a, r = (_local(rng, n, p, den) for _ in range(3))
                got = _triple_product(l, a, r)
                two_step = (l @ a) @ r
                assert got == two_step
                assert (got.nums, got.den) == (two_step.nums, two_step.den)
                want = frac_matmul(frac_matmul(l.fractions(), a.fractions()), r.fractions())
                assert [list(row) for row in got.fractions()] == want


def _failure(fn):
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)
    return None


def test_triple_product_raises_what_the_two_step_product_raises():
    rng = random.Random(5)
    two, three = _local(rng, 2, 2), _local(rng, 3, 2)
    other_prime = _local(rng, 2, 3)
    cases = [
        (two, three, two),  # left pair differs in n
        (two, two, three),  # right pair differs in n
        (two, other_prime, two),
        (two, two, other_prime),
        (two, "not a matrix", two),
        (two, two, [[1, 0], [0, 1]]),
        (two, three, other_prime),  # the first failing check wins
    ]
    for l, a, r in cases:
        got = _failure(lambda: _triple_product(l, a, r))
        want = _failure(lambda: (l @ a) @ r)
        assert got is not None
        assert got == want
    kinds = {_failure(lambda: _triple_product(*c))[0] for c in cases}
    assert kinds == {DimensionMismatchError, ValueError, TypeError}
