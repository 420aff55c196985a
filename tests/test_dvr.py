import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from splitorders.dvr import (
    INFINITE,
    LocalMatrix,
    LocalScalar,
    check_prime,
    conjugate,
    diagonal_witness,
    elementary_divisors,
    hermite_normal_form,
    in_split_order,
    lambda_membership,
    rational_valuation,
    ring_closure_check,
    sample_split_order_element,
)
from splitorders.correspondence import ApartmentVertex, maximal_order_exponents
from splitorders.errors import (
    AlreadyDiagonalError,
    DimensionMismatchError,
    NonIntegralInputError,
    SingularConjugatorError,
    SingularInputError,
)
from splitorders.apartments import GeneralSplitOrder
from splitorders.exponent import ExponentMatrix


def test_rational_valuation():
    assert rational_valuation(8, 2) == 3
    assert rational_valuation(Fraction(3, 4), 2) == -2
    assert rational_valuation(Fraction(1, 25), 5) == -2
    assert rational_valuation(18, 3) == 2
    assert rational_valuation(-12, 2) == 2
    assert rational_valuation(7, 2) == 0
    assert rational_valuation(0, 2) == INFINITE


def test_prime_validation():
    with pytest.raises(ValueError):
        rational_valuation(1, 4)
    with pytest.raises(ValueError):
        rational_valuation(1, 1)
    with pytest.raises(ValueError):
        LocalMatrix([[1]], 6)


def test_check_prime_reads_integral_floats_and_refuses_other_non_integers():
    assert check_prime(3.0) == 3 and type(check_prime(3.0)) is int
    assert check_prime(7.0) == 7 and type(check_prime(7.0)) is int
    for bad, error, message in [
        (2.5, ValueError, "prime 2.5 is not an integer"),
        (float("inf"), ValueError, "prime inf is not an integer"),
        ("3", TypeError, "prime '3' is not an integer"),
        (True, TypeError, "prime True is not an integer"),
        (Fraction(3), TypeError, "prime Fraction(3, 1) is not an integer"),
    ]:
        with pytest.raises(error) as info:
            check_prime(bad)
        assert type(info.value) is error
        assert str(info.value) == message


@pytest.mark.parametrize(
    "bad, error, message",
    [
        (0.1, ValueError, "entry 0.1 is not an integer"),
        (2.5, ValueError, "entry 2.5 is not an integer"),
        (float("nan"), ValueError, "entry nan is not an integer"),
        (True, TypeError, "entry True is not an integer"),
        (False, TypeError, "entry False is not an integer"),
    ],
)
def test_local_matrix_refuses_bools_and_non_integral_floats(bad, error, message):
    for rows in ([[bad, 0], [0, 1]], [["1/2", bad], [0, 1]]):
        with pytest.raises(error) as info:
            LocalMatrix(rows, 2)
        assert str(info.value) == message
    with pytest.raises(error):
        LocalMatrix.from_json_dict({"prime": 2, "entries": [[1, 0], [bad, 1]]})
    with pytest.raises(error):
        GeneralSplitOrder.from_json_dict(
            {"gamma": [[1, bad], [0, 1]], "prime": 2, "nu": {"n": 2, "nu": [[0, 0], [0, 0]]}}
        )
    with pytest.raises(error) as info:
        LocalScalar(bad, 2)
    assert str(info.value) == message.replace("entry", "value")
    with pytest.raises(error):
        LocalScalar(1, 2) + bad
    with pytest.raises(error):
        LocalMatrix.identity(2, 2).scale(bad)
    with pytest.raises(error):
        rational_valuation(bad, 2)


def test_local_matrix_reads_integral_floats_fractions_and_rational_strings():
    A = LocalMatrix([[2.0, "1/3"], [Fraction(3, 4), -1.0]], 2)
    assert A == LocalMatrix([[2, Fraction(1, 3)], ["3/4", -1]], 2)
    assert A.entry(0, 0) == 2 and A.entry(1, 1) == -1
    assert LocalMatrix.from_json_dict(A.to_json_dict()) == A
    assert LocalMatrix.from_json_dict({"prime": 3.0, "entries": [[1, 0], [0, 1]]}).prime == 3
    assert LocalScalar(4.0, 2) == LocalScalar(4, 2)
    assert LocalScalar("1/3", 3).valuation() == -1
    assert (LocalScalar(1, 2) + 1.0).value == 2
    # an exponent of 4300 in magnitude, the largest read, is read exactly
    assert LocalMatrix([["1e4300"]], 2).entry(0, 0) == 10**4300
    assert LocalMatrix([["-2.5E-4300"]], 5).entry(0, 0) == Fraction(-25, 10**4301)
    assert LocalScalar("1e000005", 2).value == 10**5
    assert rational_valuation("3e4300", 5) == 4300


_STRING_READERS = {
    "LocalMatrix": lambda s: LocalMatrix([[s]], 2),
    "LocalMatrix.from_json_dict": lambda s: LocalMatrix.from_json_dict(
        {"entries": [[s]], "prime": 2}
    ),
    "GeneralSplitOrder.from_json_dict": lambda s: GeneralSplitOrder.from_json_dict(
        {"gamma": [[1, s], [0, 1]], "prime": 2, "nu": {"n": 2, "nu": [[0, 0], [0, 0]]}}
    ),
    "LocalScalar": lambda s: LocalScalar(s, 2),
    "LocalMatrix.scale": lambda s: LocalMatrix.identity(2, 2).scale(s),
    "rational_valuation": lambda s: rational_valuation(s, 2),
}


@pytest.mark.parametrize("reader", _STRING_READERS.values(), ids=_STRING_READERS)
def test_a_string_with_a_zero_denominator_raises_value_error(reader):
    """"1/0" used to raise ZeroDivisionError from Fraction."""
    for s in ("1/0", " -3/00 "):
        with pytest.raises(ValueError) as info:
            reader(s)
        assert type(info.value) is ValueError
        assert str(info.value).endswith(f"{s!r} has a zero denominator")


@pytest.mark.parametrize("s", ["1e10000000", "1e-10000000", "1E+0_000_4301"])
def test_a_string_exponent_past_4300_is_refused_at_once(s):
    """"1e10000000" used to take seconds to build a 33-million-bit integer."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="has an exponent past 4300"):
            LocalMatrix([[s]], 2)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.1 and peak < 64 * 1024, (elapsed, peak)


@pytest.mark.parametrize(
    "prime, error",
    [(2.5, ValueError), ("3", TypeError), (True, TypeError)],
)
def test_json_prime_is_not_truncated(prime, error):
    """A prime of 2.5 used to build a 2-adic matrix."""
    with pytest.raises(error):
        LocalMatrix.from_json_dict({"prime": prime, "entries": [[1, 0], [0, 1]]})
    with pytest.raises(error):
        GeneralSplitOrder.from_json_dict(
            {"gamma": [[1, 0], [0, 1]], "prime": prime, "nu": {"n": 2, "nu": [[0, 0], [0, 0]]}}
        )


def test_matrix_unit_stores_an_integral_float_exponent_as_an_exact_power():
    """exponent=60.0 stored the float 4.23911582752162e+28, not 3**60."""
    A = LocalMatrix.matrix_unit(2, 0, 1, 3, exponent=60.0)
    assert A.nums == ((0, 3**60), (0, 0)) and type(A.nums[0][1]) is int
    assert A == LocalMatrix.matrix_unit(2, 0, 1, 3, exponent=60)


def test_matrix_unit_with_a_float_exponent_has_valuations():
    """At p = 2, exponent=1.0 built a matrix whose valuation raised a bare
    TypeError about ``&``."""
    assert LocalMatrix.matrix_unit(2, 0, 1, 2, exponent=1.0).valuation(0, 1) == 1
    assert LocalMatrix.matrix_unit(2, 0, 1, 2, exponent=-3.0).valuation(0, 1) == -3


def test_matrix_unit_refuses_a_bool_exponent_and_dimension():
    """exponent=True read as 1."""
    with pytest.raises(TypeError, match="^exponent True is not an integer$"):
        LocalMatrix.matrix_unit(2, 0, 1, 2, exponent=True)
    with pytest.raises(ValueError, match="^exponent 1.5 is not an integer$"):
        LocalMatrix.matrix_unit(2, 0, 1, 2, exponent=1.5)
    with pytest.raises(TypeError, match="^n True is not an integer$"):
        LocalMatrix.matrix_unit(True, 0, 0, 2)
    assert LocalMatrix.matrix_unit(2.0, 0, 1, 2) == LocalMatrix.matrix_unit(2, 0, 1, 2)


def test_power_diagonal_stores_integral_float_exponents_as_ints():
    """[0, 1.0] stored the float 2.0; [0, -1.0] raised from math.gcd."""
    A = LocalMatrix.power_diagonal([0, 1.0], 2)
    assert A.nums == ((1, 0), (0, 2)) and all(type(x) is int for row in A.nums for x in row)
    assert LocalMatrix.power_diagonal([0, -1.0], 2) == LocalMatrix.power_diagonal([0, -1], 2)
    with pytest.raises(ValueError, match="^entry 0.5 is not an integer$"):
        LocalMatrix.power_diagonal([0, 0.5], 2)


def test_power_diagonal_refuses_bool_exponents():
    """[0, True] read as [0, 1]."""
    with pytest.raises(TypeError, match="^entry True is not an integer$"):
        LocalMatrix.power_diagonal([0, True], 2)


def test_identity_refuses_a_bool_dimension():
    """identity(True, 2) returned a 1 x 1 matrix."""
    with pytest.raises(TypeError, match="^n True is not an integer$"):
        LocalMatrix.identity(True, 2)
    assert LocalMatrix.identity(2.0, 2) == LocalMatrix.identity(2, 2)


def test_scalar_arithmetic():
    a = LocalScalar(Fraction(3, 4), 2)
    b = LocalScalar(Fraction(1, 4), 2)
    assert (a + b).value == 1
    assert (a - b).value == Fraction(1, 2)
    assert (a * b).value == Fraction(3, 16)
    assert a.valuation() == -2
    assert not a.is_integral()
    assert LocalScalar(Fraction(6), 2).in_ideal(1)
    assert not LocalScalar(Fraction(6), 2).in_ideal(2)
    assert LocalScalar(Fraction(0), 2).in_ideal(10)
    assert (a / b).value == 3 and (a / 2).value == Fraction(3, 8)
    for zero in (0, "0", "0/5", Fraction(0), LocalScalar(0, 2)):
        with pytest.raises(ZeroDivisionError):
            a / zero
    assert (-a).value == Fraction(-3, 4) and (-a).prime == 2
    assert str(a) == "3/4 (v_2 = -2)"


def test_scalar_prime_mismatch():
    with pytest.raises(ValueError):
        LocalScalar(Fraction(1), 2) + LocalScalar(Fraction(1), 3)


def test_matrix_entries_and_equality():
    A = LocalMatrix([["1/2", "3/4"], [2, 0]], 2)
    assert A.entry(0, 0) == Fraction(1, 2)
    assert A.entry(0, 1) == Fraction(3, 4)
    # same matrix through a different common denominator
    B = LocalMatrix._from_raw([[4, 6], [16, 0]], 8, 2)
    assert A == B
    assert A != LocalMatrix([["1/2", "3/4"], [2, 1]], 2)


def test_valuation_matrix():
    A = LocalMatrix([["1/2", 3], [0, 20]], 2)
    assert A.valuation_matrix() == ((-1, 0), (INFINITE, 2))
    assert A.valuation(0, 0) == -1
    assert A.valuation(1, 0) == INFINITE
    assert not A.is_integral()
    assert LocalMatrix([["1/3", 1], [1, 1]], 2).is_integral()


def test_matrix_arithmetic_against_fractions():
    rng = random.Random(2)
    for _ in range(60):
        n = rng.randint(1, 4)
        A = _rand_matrix(rng, n, 2)
        B = _rand_matrix(rng, n, 2)
        ref = [
            [
                sum(A.entry(i, k) * B.entry(k, j) for k in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert (A @ B).fractions() == tuple(map(tuple, ref))
        assert (A + B).entry(0, 0) == A.entry(0, 0) + B.entry(0, 0)
        assert (A - B).entry(0, 0) == A.entry(0, 0) - B.entry(0, 0)
        assert (-A).entry(0, 0) == -A.entry(0, 0)
        assert A.transpose().entry(0, min(1, n - 1)) == A.entry(min(1, n - 1), 0)


def test_dimension_and_prime_mismatch():
    with pytest.raises(DimensionMismatchError):
        LocalMatrix.identity(2, 2) @ LocalMatrix.identity(3, 2)
    with pytest.raises(ValueError):
        LocalMatrix.identity(2, 2) @ LocalMatrix.identity(2, 3)


def test_local_matrix_refuses_ragged_or_empty_rows_and_a_non_positive_denominator():
    for rows in ([[1, 2], [3]], []):
        with pytest.raises(ValueError, match="^matrix must be square and nonempty$"):
            LocalMatrix(rows, 3)
    with pytest.raises(ValueError, match="^denominator must be positive$"):
        LocalMatrix._from_raw([[1, 0], [0, 1]], 0, 3)


@pytest.mark.parametrize("data", [{"prime": 2}, {"entries": [[1]]}, [[1]]])
def test_from_json_dict_refuses_an_object_without_entries_or_prime(data):
    with pytest.raises(ValueError, match="^expected an object with 'entries' and 'prime' fields$"):
        LocalMatrix.from_json_dict(data)


def test_from_json_dict_refuses_an_unknown_field():
    data = LocalMatrix([[1, "1/2"], [0, 3]], 2).to_json_dict()
    assert LocalMatrix.from_json_dict(data) == LocalMatrix([[1, "1/2"], [0, 3]], 2)
    with pytest.raises(
        ValueError, match="^unknown field 'den'; the fields are 'entries' and 'prime'$"
    ):
        LocalMatrix.from_json_dict({**data, "den": 1})


def test_membership_refuses_a_size_mismatch():
    A = LocalMatrix.identity(3, 2)
    with pytest.raises(DimensionMismatchError, match="^matrix has n = 3 but exponents have n = 2$"):
        in_split_order(A, ExponentMatrix([[0, 0], [0, 0]]))
    with pytest.raises(DimensionMismatchError, match="^matrix has n = 3 but vertex has n = 2$"):
        lambda_membership(A, ApartmentVertex([0, 1]))


def test_determinant_and_inverse():
    A = LocalMatrix([[1, 1], [0, 2]], 2)
    assert A.det() == 2
    assert A.inverse().fractions() == ((1, Fraction(-1, 2)), (0, Fraction(1, 2)))
    assert A @ A.inverse() == LocalMatrix.identity(2, 2)
    with pytest.raises(SingularInputError):
        LocalMatrix([[1, 1], [1, 1]], 2).inverse()


def test_split_order_membership():
    nu = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
    for i in range(3):
        for j in range(3):
            e = nu.entries[i][j]
            assert in_split_order(LocalMatrix.matrix_unit(3, i, j, 2, exponent=e), nu)
            if i != j:
                assert not in_split_order(
                    LocalMatrix.matrix_unit(3, i, j, 2, exponent=e - 1), nu
                )


def test_membership_with_denominators():
    nu = ExponentMatrix([[0, -1], [2, 0]])
    assert in_split_order(LocalMatrix.matrix_unit(2, 0, 1, 2, exponent=-1), nu)
    assert not in_split_order(LocalMatrix.matrix_unit(2, 0, 1, 2, exponent=-2), nu)
    assert in_split_order(LocalMatrix.identity(2, 2), nu)


def test_lambda_membership():
    v = ApartmentVertex([0, 0, -1])
    # entries must have valuation >= m_i - m_j
    assert lambda_membership(LocalMatrix.matrix_unit(3, 0, 2, 2, exponent=1), v)
    assert not lambda_membership(LocalMatrix.matrix_unit(3, 0, 2, 2, exponent=0), v)
    assert lambda_membership(LocalMatrix.matrix_unit(3, 2, 0, 2, exponent=-1), v)
    assert not lambda_membership(LocalMatrix.matrix_unit(3, 2, 0, 2, exponent=-2), v)


def test_diagonal_conjugation_realizes_lambda():
    """Conjugating M_n(O) by diag(p^-m_i) lands exactly in the lattice order at m.

    Both directions: integral matrices map into Lambda(m), and members of
    Lambda(m) map back to integral matrices.
    """
    rng = random.Random(929)
    for p in (2, 3, 5):
        for _ in range(25):
            n = rng.randint(2, 3)
            coords = [0] + [rng.randint(-3, 3) for _ in range(n - 1)]
            v = ApartmentVertex(coords)
            xi = LocalMatrix.diagonal([Fraction(p) ** -m for m in coords], p)
            A = LocalMatrix(
                [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)], p
            )
            assert lambda_membership(conjugate(xi, A), v)
            B = sample_split_order_element(maximal_order_exponents(v), rng, p)
            assert conjugate(xi.inverse(), B).is_integral()


def test_conjugation_example():
    """xi = [[1,1],[0,p]] sends diag(1,0) to [[1,-1/p],[0,0]] under xi . xi^(-1)."""
    p = 2
    xi = LocalMatrix([[1, 1], [0, p]], p)
    A = LocalMatrix.diagonal([1, 0], p)
    out = conjugate(xi.inverse(), A)
    assert out.fractions() == ((1, Fraction(-1, p)), (0, 0))
    assert not out.is_integral()
    # the opposite orientation: conjugate(xi, .) is xi^(-1) A xi
    assert conjugate(xi, A) == xi.inverse() @ A @ xi


def test_conjugation_rejects_singular():
    with pytest.raises(SingularConjugatorError):
        conjugate(LocalMatrix([[1, 1], [1, 1]], 2), LocalMatrix.identity(2, 2))


def test_hermite_form_fixed_point():
    xi = LocalMatrix([[1, 1], [0, 2]], 2)
    form, transform = hermite_normal_form(xi)
    assert form.matrix == xi
    assert form.exponents == (0, 1)
    assert transform == LocalMatrix.identity(2, 2)
    assert not form.is_diagonal()
    # [[p,1],[0,p]] is already canonical: 1 is a residue mod p
    for p in (2, 3, 5):
        xi = LocalMatrix([[p, 1], [0, p]], p)
        form, transform = hermite_normal_form(xi)
        assert form.matrix == xi
        assert form.exponents == (1, 1)
        assert transform == LocalMatrix.identity(2, p)


def test_hermite_form_normalizes_units_and_residues():
    form, _ = hermite_normal_form(LocalMatrix([[3, 0], [0, 1]], 2))
    assert form.matrix == LocalMatrix.identity(2, 2)
    assert form.exponents == (0, 0)

    form, transform = hermite_normal_form(LocalMatrix([[1, 5], [0, 4]], 2))
    assert form.matrix == LocalMatrix([[1, 1], [0, 4]], 2)
    assert form.exponents == (0, 2)
    assert transform @ LocalMatrix([[1, 5], [0, 4]], 2) == form.matrix


def test_hermite_form_diagonal_exponents_not_sorted():
    form, _ = hermite_normal_form(LocalMatrix.diagonal([4, 1], 2))
    assert form.matrix == LocalMatrix.diagonal([4, 1], 2)
    assert form.exponents == (2, 0)
    assert form.is_diagonal()


def test_hermite_form_input_validation():
    with pytest.raises(NonIntegralInputError):
        hermite_normal_form(LocalMatrix([["1/2", 0], [0, 1]], 2))
    with pytest.raises(SingularInputError):
        hermite_normal_form(LocalMatrix([[1, 1], [1, 1]], 2))
    with pytest.raises(SingularInputError):
        hermite_normal_form(LocalMatrix([[0, 0], [0, 0]], 2))
    # at n = 3: a zero first column, and a zero second pivot
    for rows in ([[0, 1, 0], [0, 1, 1], [0, 0, 1]], [[1, 1, 0], [1, 1, 1], [2, 2, 1]]):
        with pytest.raises(SingularInputError, match="^matrix is singular$"):
            hermite_normal_form(LocalMatrix(rows, 2))


def test_hermite_form_left_unit_invariance():
    rng = random.Random(71)
    for p in (2, 3, 5):
        for _ in range(40):
            n = rng.randint(2, 3)
            H = _rand_triangular(rng, n, p)
            base, _ = hermite_normal_form(H)
            U = _rand_unit(rng, n, p)
            form, transform = hermite_normal_form(U @ H)
            assert form.matrix == base.matrix
            assert transform.is_integral()
            assert rational_valuation(transform.det(), p) == 0
            assert transform @ (U @ H) == form.matrix


def test_hermite_form_shape_is_canonical():
    """Diagonal p powers, residues below the column modulus, zeros below."""
    rng = random.Random(73)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 3)
        xi = _rand_unit(rng, n, p) @ _rand_triangular(rng, n, p)
        form, _ = hermite_normal_form(xi)
        fr = form.matrix.fractions()
        for i in range(n):
            assert fr[i][i] == Fraction(p) ** form.exponents[i]
            for j in range(i):
                assert fr[i][j] == 0
            for j in range(i + 1, n):
                assert fr[i][j] == int(fr[i][j])
                assert 0 <= fr[i][j] < p ** form.exponents[j]


def test_diagonal_witness_frozen():
    form, _ = hermite_normal_form(LocalMatrix([[1, 1], [0, 2]], 2))
    D = diagonal_witness(form)
    assert D == LocalMatrix.diagonal([0, 1], 2)
    xi = form.matrix
    assert not (xi @ D @ xi.inverse()).is_integral()


def test_diagonal_witness_requires_off_diagonal():
    form, _ = hermite_normal_form(LocalMatrix.diagonal([2, 1], 2))
    xi = form.matrix
    for bits in itertools.product((0, 1), repeat=2):
        D = LocalMatrix.diagonal(bits, 2)
        assert (xi @ D @ xi.inverse()).is_integral()
    with pytest.raises(AlreadyDiagonalError):
        diagonal_witness(form)


def test_diagonal_witness_random():
    rng = random.Random(79)
    found = 0
    while found < 60:
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 3)
        form, _ = hermite_normal_form(_rand_triangular(rng, n, p))
        if form.is_diagonal():
            continue
        found += 1
        D = diagonal_witness(form)
        assert not (form.matrix @ D @ form.matrix.inverse()).is_integral()
        assert form.matrix.prime == p


def test_elementary_divisors_frozen():
    I2 = LocalMatrix.identity(2, 2)
    assert elementary_divisors(I2, LocalMatrix.diagonal([1, 2], 2)) == (0, 1)
    assert elementary_divisors(I2, LocalMatrix.diagonal([2, 4], 2)) == (1, 2)
    assert elementary_divisors(LocalMatrix.diagonal([2, 1], 2), I2) == (-1, 0)
    assert elementary_divisors(I2, I2) == (0, 0)
    assert elementary_divisors(I2, LocalMatrix([[1, 1], [0, 1]], 2)) == (0, 0)


def test_elementary_divisors_of_diagonal_lattices():
    rng = random.Random(83)
    for _ in range(80):
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 4)
        a = [rng.randint(-3, 3) for _ in range(n)]
        b = [rng.randint(-3, 3) for _ in range(n)]
        L = LocalMatrix.diagonal([Fraction(p) ** e for e in a], p)
        Lp = LocalMatrix.diagonal([Fraction(p) ** e for e in b], p)
        assert elementary_divisors(L, Lp) == tuple(sorted(y - x for x, y in zip(a, b)))


def test_elementary_divisors_reject_singular():
    with pytest.raises(SingularInputError):
        elementary_divisors(LocalMatrix([[1, 1], [1, 1]], 2), LocalMatrix.identity(2, 2))
    with pytest.raises(SingularInputError):
        elementary_divisors(LocalMatrix.identity(2, 2), LocalMatrix([[0, 0], [0, 0]], 2))


def test_sharp_sampling():
    rng = random.Random(89)
    nu = ExponentMatrix([[0, -1, 2], [3, 0, 1], [0, 2, 0]])
    for p in (2, 3, 5):
        for _ in range(20):
            A = sample_split_order_element(nu, rng, p)
            assert A.valuation_matrix() == nu.entries
            assert in_split_order(A, nu)


def test_ring_closure_on_orders():
    nu = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
    for p in (2, 3, 5):
        assert ring_closure_check(nu, trials=60, seed=4, prime=p) is True
    # the full matrix ring itself
    full_ring = ExponentMatrix([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    assert ring_closure_check(full_ring, trials=60, seed=4, prime=2) is True


def test_ring_closure_witness_on_non_order():
    nu_prime = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    result = ring_closure_check(nu_prime, trials=60, seed=4, prime=2)
    assert result is not True
    A, B = result
    # the deterministic witness for the violated triple (1,2,3)
    assert A == LocalMatrix.matrix_unit(3, 0, 1, 2, exponent=0)
    assert B == LocalMatrix.matrix_unit(3, 1, 2, 2, exponent=1)
    assert in_split_order(A, nu_prime)
    assert in_split_order(B, nu_prime)
    assert not in_split_order(A @ B, nu_prime)


def _rand_matrix(rng, n, p):
    rows = [
        [Fraction(rng.randint(-12, 12), rng.choice((1, 2, 3, 4))) for _ in range(n)]
        for _ in range(n)
    ]
    return LocalMatrix(rows, p)


def _rand_triangular(rng, n, p):
    exps = [rng.randint(0, 3) for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = p ** exps[i]
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(p ** exps[j])
    return LocalMatrix(rows, p)


def _rand_unit(rng, n, p):
    # product of integral elementary operations, so det is a unit
    out = LocalMatrix.identity(n, p)
    for _ in range(5):
        i, j = rng.sample(range(n), 2)
        step = [[1 if r == s else 0 for s in range(n)] for r in range(n)]
        step[i][j] = rng.randint(-p * p, p * p)
        out = out @ LocalMatrix(step, p)
        u = rng.choice([1, -1, p + 1, p - 1, 2 * p + 1])
        diag = [[u if r == s == i else (1 if r == s else 0) for s in range(n)] for r in range(n)]
        out = out @ LocalMatrix(diag, p)
    return out
