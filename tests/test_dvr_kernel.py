"""The exact elimination kernel of dvr against independent references.

Determinants and inverses are compared with a Fraction Gauss-Jordan
elimination, triangular forms with their defining properties checked
through that reference, and elementary divisors with the determinantal
divisors (least valuation of the k x k minors).  The golden tests pin the
random streams of the sharp-element sampler so fuzz replay stays fixed.
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

import splitorders.dvr as dvr
from splitorders.apartments import Apartment
from splitorders.dvr import (
    LocalMatrix,
    elementary_divisors,
    hermite_normal_form,
    ring_closure_check,
    sample_split_order_element,
)
from splitorders.errors import NonIntegralInputError, SingularInputError
from splitorders.exponent import ExponentMatrix

from _oracles import divisors_by_minors, frac_gauss_jordan, frac_matmul, padic_valuation

PRIMES = (2, 3, 5)


def _random_rows(rng, n, p, integral=False, singular=False):
    """Fractions num / den with den a power of p or 7, a prime other than p."""
    dens = (1, 7) if integral else (1, p, p * p, 7)
    bound = p**3
    rows = [
        [Fraction(rng.randint(-bound, bound), rng.choice(dens)) for _ in range(n)]
        for _ in range(n)
    ]
    if singular:
        c = Fraction(rng.randint(-3, 3), rng.choice(dens))
        rows[-1] = [c * x for x in rows[0]] if n > 1 else [Fraction(0)]
    return rows


def _cases(seed, count, **kw):
    rng = random.Random(seed)
    for t in range(count):
        p = PRIMES[t % 3]
        n = 1 + (t // 3) % 4
        yield p, _random_rows(rng, n, p, **kw)


def _plain(m):
    return [list(row) for row in m.fractions()]


def _is_unit(x, p):
    return x != 0 and padic_valuation(x, p) == 0


def test_det_and_inverse_match_gauss_jordan():
    singular_seen = 0
    for k, (p, rows) in enumerate(_cases(11, 360)):
        if k % 5 == 4:
            rows = _random_rows(random.Random(k), len(rows), p, singular=True)
        A = LocalMatrix(rows, p)
        det, inv = frac_gauss_jordan(rows)
        assert A.det() == det
        if inv is None:
            singular_seen += 1
            with pytest.raises(SingularInputError):
                A.inverse()
        else:
            assert _plain(A.inverse()) == inv
    assert singular_seen >= 60


def test_hermite_form_matches_its_definition():
    """H is canonical, and H xi^(-1) is an integral matrix of unit determinant."""
    for p, rows in _cases(13, 240, integral=True):
        n = len(rows)
        det, inv = frac_gauss_jordan(rows)
        if inv is None:
            with pytest.raises(SingularInputError):
                hermite_normal_form(LocalMatrix(rows, p))
            continue
        form, transform = hermite_normal_form(LocalMatrix(rows, p))
        H = _plain(form.matrix)
        e = form.exponents
        for i in range(n):
            assert H[i][i] == p ** e[i]
            assert all(H[i][j] == 0 for j in range(i))
            for j in range(i + 1, n):
                assert H[i][j].denominator == 1 and 0 <= H[i][j] < p ** e[j]
        assert sum(e) == padic_valuation(det, p)
        U = frac_matmul(H, inv)
        assert _plain(transform) == U
        assert all(x.denominator % p for row in U for x in row)
        assert _is_unit(frac_gauss_jordan(U)[0], p)


def test_hermite_form_rejects_singular_and_non_integral():
    for p, rows in _cases(17, 60, integral=True, singular=True):
        with pytest.raises(SingularInputError):
            hermite_normal_form(LocalMatrix(rows, p))
    for p in PRIMES:
        for n in range(1, 5):
            rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
            rows[n - 1][0] = Fraction(1, p)
            with pytest.raises(NonIntegralInputError):
                hermite_normal_form(LocalMatrix(rows, p))


def test_elementary_divisors_match_determinantal_divisors():
    rng = random.Random(19)
    checked = 0
    for t in range(240):
        p = PRIMES[t % 3]
        n = 1 + (t // 3) % 4
        L = _random_rows(rng, n, p)
        Lp = _random_rows(rng, n, p, singular=(t % 7 == 6))
        _, L_inv = frac_gauss_jordan(L)
        det_p, _ = frac_gauss_jordan(Lp)
        if L_inv is None or det_p == 0:
            with pytest.raises(SingularInputError):
                elementary_divisors(LocalMatrix(L, p), LocalMatrix(Lp, p))
            continue
        expected = divisors_by_minors(frac_matmul(L_inv, Lp), p)
        assert elementary_divisors(LocalMatrix(L, p), LocalMatrix(Lp, p)) == expected
        checked += 1
    assert checked >= 150


def test_matrices_are_stored_in_lowest_terms():
    assert LocalMatrix._from_raw([[4, 6], [16, 0]], 8, 2).nums == ((2, 3), (8, 0))
    assert LocalMatrix._from_raw([[4, 6], [16, 0]], 8, 2).den == 4
    half = LocalMatrix._from_raw([[2, 0], [0, 2]], 2, 3)
    assert (half.nums, half.den) == (((1, 0), (0, 1)), 1)
    zero = LocalMatrix._from_raw([[0, 0], [0, 0]], 12, 5)
    assert (zero.nums, zero.den) == (((0, 0), (0, 0)), 1)
    mixed = LocalMatrix([["1/2", "1/3"], [Fraction(5, 6), 1]], 5)
    assert (mixed.nums, mixed.den) == (((3, 2), (5, 6)), 6)
    for p, rows in _cases(29, 120):
        A = LocalMatrix(rows, p)
        for M in (A, A @ A, A + A, A.scale(Fraction(p, 6))):
            assert math.gcd(M.den, *(x for row in M.nums for x in row)) == 1


def test_chained_transport_keeps_denominators_bounded():
    rng = random.Random(23)
    for p in PRIMES:
        for n in (2, 3):
            rows = _random_rows(rng, n, p)
            while frac_gauss_jordan(rows)[1] is None:
                rows = _random_rows(rng, n, p)
            ap = Apartment(LocalMatrix(rows, p))
            identity = LocalMatrix.identity(n, p)
            a = ap.to_standard(ap.from_standard(identity))
            first_den = a.den
            for _ in range(49):
                a = ap.to_standard(ap.from_standard(a))
            assert a == identity
            assert a.den <= first_den
            assert math.gcd(a.den, *(x for row in a.nums for x in row)) == 1


# ---------------------------------------------------------------------------
# golden streams, captured from the Fraction implementation

_GOLDEN_NUS = (
    [[0, -1], [2, 0]],
    [[0, 0, 1], [3, 0, 1], [3, 2, 0]],
    [[0, -2, 1], [3, 0, -1], [0, 2, 0]],
)


def _strings(m):
    return [[str(x) for x in row] for row in m.fractions()]


def test_sharp_sampler_stream_is_pinned():
    rng = random.Random(2002)
    nu = ExponentMatrix(_GOLDEN_NUS[2])
    assert _strings(sample_split_order_element(nu, rng, 2)) == [
        ["1", "11/4", "18"], ["8", "9", "3/2"], ["11", "4", "1"]
    ]
    assert _strings(sample_split_order_element(nu, rng, 2)) == [
        ["13", "13/4", "30"], ["8", "9", "15/2"], ["1", "44", "9"]
    ]
    assert rng.getrandbits(32) == 3916372907
    digest = hashlib.sha256()
    for p in PRIMES:
        for k, entries in enumerate(_GOLDEN_NUS):
            rng = random.Random(1000 * p + k)
            for _ in range(20):
                sample = sample_split_order_element(ExponentMatrix(entries), rng, p)
                digest.update(repr(_strings(sample)).encode())
            digest.update(str(rng.getrandbits(32)).encode())
    assert digest.hexdigest() == (
        "986358eef94c17baf83f7f71faa2de9c7884d17fad20c46f39312daffb6d9ffb"
    )


def test_ring_closure_draw_order_is_pinned(monkeypatch):
    """With membership forced to fail, the witness is the first sampled pair."""
    monkeypatch.setattr(dvr, "_membership_test", lambda bounds, vden, p: lambda rows: False)
    expected = {
        (2, 0, 4): (
            [["13", "5/2"], ["12", "3"]],
            [["1", "13/2"], ["36", "9"]],
        ),
        (3, 0, 11): (
            [["58", "58/3"], ["684", "25"]],
            [["61", "79/3"], ["117", "58"]],
        ),
        (5, 1, 0): (
            [["431", "42", "1330"], ["65500", "498", "1555"],
             ["61125", "9175", "598"]],
            [["224", "517", "715"], ["36125", "144", "490"],
             ["32125", "13650", "617"]],
        ),
    }
    for (p, k, seed), (want_a, want_b) in expected.items():
        nu = ExponentMatrix(_GOLDEN_NUS[k])
        A, B = ring_closure_check(nu, trials=3, seed=seed, prime=p)
        assert (_strings(A), _strings(B)) == (want_a, want_b)


def test_ring_closure_witnesses_are_pinned():
    """Non-orders get p^nu[i][k] E(i, k) and p^nu[k][j] E(k, j) for the
    first violated triple (i, k, j), whatever the seed."""
    cases = (
        ([[0, 0, 2], [3, 0, 1], [3, 2, 0]], (0, 1, 2)),
        ([[0, -1], [0, 0]], (0, 1, 0)),
        ([[0, 1, -1], [-1, 0, 2], [1, 1, 0]], (0, 2, 1)),
    )
    for entries, (i, k, j) in cases:
        n = len(entries)
        for p, seed in ((2, 7), (3, 8)):
            A, B = ring_closure_check(ExponentMatrix(entries), trials=5, seed=seed, prime=p)
            assert A == LocalMatrix.matrix_unit(n, i, k, p, exponent=entries[i][k])
            assert B == LocalMatrix.matrix_unit(n, k, j, p, exponent=entries[k][j])


# ---------------------------------------------------------------------------
# the n <= 3 paths against the general elimination, called directly

KERNEL_PRIMES = (2, 3, 5, 7)


def _kernel_rows(rng, n, p, integral=False, singular=False):
    """Like _random_rows, with q = 11 instead of 7 as the other prime at p = 7."""
    q = 11 if p == 7 else 7
    dens = (1, q) if integral else (1, p, p * p, q)
    rows = [
        [Fraction(rng.randint(-(p**3), p**3), rng.choice(dens)) for _ in range(n)]
        for _ in range(n)
    ]
    if singular:
        c = Fraction(rng.randint(-3, 3), rng.choice((1, q)))
        rows[-1] = [c * x for x in rows[0]] if n > 1 else [Fraction(0)]
    return rows


def _kernel_cases(seed, count, integral=False):
    """(p, rows) at n = 1..3 over every kernel prime; every fifth singular."""
    rng = random.Random(seed)
    for t in range(count):
        p = KERNEL_PRIMES[t % 4]
        n = 1 + (t // 4) % 3
        yield p, _kernel_rows(rng, n, p, integral=integral, singular=(t % 5 == 4))


def _loop_valuation(x, p):
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def _divisors_by_elimination(L, Lp):
    """Exponents from full least-valuation pivoting, as n >= 4 computes them."""
    M = L.inverse() @ Lp
    p = M.prime
    a = [list(r) for r in M.nums]
    minors = dvr._eliminate(a, dvr._least_valuation(p, full=True))[0]
    if len(minors) < M.n:
        return None
    vden = dvr._int_valuation(M.den, p)
    vals = [0] + [dvr._int_valuation(m, p) for m in minors]
    return tuple(sorted(vals[t + 1] - vals[t] - vden for t in range(M.n)))


def test_closed_form_divisors_match_elimination():
    rng = random.Random(43)
    kinds = set()
    for p, rows in _kernel_cases(47, 480):
        L = LocalMatrix(_kernel_rows(rng, len(rows), p), p)
        if L.det() == 0:
            continue
        Lp = LocalMatrix(rows, p)
        expected = _divisors_by_elimination(L, Lp)
        if expected is None:
            kinds.add("singular")
            with pytest.raises(SingularInputError):
                elementary_divisors(L, Lp)
            continue
        assert elementary_divisors(L, Lp) == expected
        kinds.add(("negative" if expected[0] < 0 else "integral", len(rows), p))
    assert "singular" in kinds
    assert {(k, n, p) for k in ("negative", "integral") for n in (1, 2, 3)
            for p in KERNEL_PRIMES} <= kinds


def test_written_out_echelon_matches_elimination():
    """Same minors, and the same entries on and above the diagonal."""
    singular = 0
    for p, rows in _kernel_cases(53, 480, integral=True):
        nums = LocalMatrix(rows, p).nums
        ours = list(nums)
        minors = dvr._hermite_echelon(ours, p)
        theirs = [list(r) for r in nums]
        assert minors == dvr._eliminate(theirs, dvr._least_valuation(p, full=False))[0]
        singular += len(minors) < len(nums)
        for i in range(len(minors)):
            assert list(ours[i][i:]) == theirs[i][i:]
    assert singular >= 60


def test_written_out_hermite_form_matches_elimination(monkeypatch):
    cases = list(_kernel_cases(59, 360, integral=True))

    def run():
        out = []
        for p, rows in cases:
            try:
                form, transform = hermite_normal_form(LocalMatrix(rows, p))
            except SingularInputError:
                out.append("singular")
            else:
                out.append((form, transform))
        return out

    ours = run()
    monkeypatch.setattr(
        dvr,
        "_hermite_echelon",
        lambda a, p: dvr._eliminate(a, dvr._least_valuation(p, full=False))[0],
    )
    assert run() == ours
    assert 60 <= ours.count("singular") < len(ours) - 200
    for p in KERNEL_PRIMES:
        with pytest.raises(NonIntegralInputError):
            hermite_normal_form(LocalMatrix([[1, 0], [Fraction(1, p), 1]], p))


def test_binary_valuation_matches_the_division_loop():
    rng = random.Random(61)
    values = [1, -1, 2, -2, 3, 2**63, -(2**63), 2**64, 2**64 + 1, 3 * 2**200, -5 * 2**131]
    for _ in range(400):
        odd = rng.getrandbits(rng.randint(1, 300)) | 1
        values.append(rng.choice((-1, 1)) * odd << rng.randint(0, 90))
    for x in values:
        if x:
            assert dvr._int_valuation(x, 2) == _loop_valuation(x, 2)
    assert dvr._int_valuation(0, 2) == dvr.INFINITE


def _rejection_draw(rng, entries, p):
    """The sharp sampler before its table: test each word, redraw rejected ones."""
    bound = p**4
    k = bound.bit_length()
    shift = max(0, -min(min(row) for row in entries))
    rows = []
    for row in entries:
        out = []
        for e in row:
            r = rng.getrandbits(k)
            while r >= bound or (r + 1) % p == 0:
                r = rng.getrandbits(k)
            out.append((r + 1) * p ** (e + shift))
        rows.append(out)
    return rows


@pytest.mark.parametrize("p", KERNEL_PRIMES)
def test_table_sampler_leaves_the_rejection_loop_state(p):
    if (p**4).bit_length() <= dvr._TABLE_BITS:
        table = dvr._unit_table(p)
        assert table == tuple(r + 1 if r < p**4 and r % p != p - 1 else 0
                              for r in range(len(table)))
    for k, entries in enumerate(_GOLDEN_NUS):
        scales, _ = dvr._sharp_scales(ExponentMatrix(entries), p)
        n = len(entries)
        ours, theirs = random.Random(100 * p + k), random.Random(100 * p + k)
        for _ in range(30):
            flat = [u * s for u, s in zip(dvr._exact_units(ours, p, n * n), scales)]
            rows = [flat[i * n : (i + 1) * n] for i in range(n)]
            assert rows == _rejection_draw(theirs, entries, p)
        assert ours.getstate() == theirs.getstate()
