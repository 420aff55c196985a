import random

import pytest

from splitorders.errors import (
    NegativeCycleError,
    NonZeroDiagonalError,
    NotAnOrderError,
    UnsupportedDimensionError,
)
from splitorders.exponent import (
    ExponentMatrix,
    first_violation,
    has_containing_maximal,
    hijikata_normal_form,
    is_order,
    minplus_closure,
    order_hull,
)

from _oracles import simple_cycles_nonneg, simple_path_closure

NU = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
NU_PRIME = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])


def test_worked_example_is_order():
    assert is_order(NU)
    assert first_violation(NU) is None


def test_worked_example_variant_is_not_order():
    assert not is_order(NU_PRIME)
    # scanning order fixes the reported triple: nu[0][1] + nu[1][2] = 1 < 2
    assert first_violation(NU_PRIME) == (0, 1, 2)


def test_hull_of_variant_is_the_worked_example():
    assert order_hull(NU_PRIME) == NU
    assert order_hull(NU) == NU


def test_zero_matrix_is_order():
    zero = ExponentMatrix([[0, 0], [0, 0]])
    assert is_order(zero)
    assert order_hull(zero) == zero


def test_nonzero_diagonal_rejected():
    with pytest.raises(NonZeroDiagonalError):
        ExponentMatrix([[1, 0], [0, 0]])
    with pytest.raises(NonZeroDiagonalError):
        ExponentMatrix([[0, 2, 0], [0, 0, 0], [0, 0, -1]])


def test_shape_validation():
    with pytest.raises(ValueError):
        ExponentMatrix([[0]])
    with pytest.raises(ValueError):
        ExponentMatrix([[0, 1], [2, 0], [0, 0]])
    with pytest.raises(ValueError):
        ExponentMatrix([[0, 1, 2], [3, 0]])


def test_negative_cycle_has_no_hull():
    # 1 -> 2 -> 1 sums to 2 + (-3) = -1
    bad = ExponentMatrix([[0, 2, -3], [0, 0, 0], [2, 2, 0]])
    assert not has_containing_maximal(bad)
    assert minplus_closure(bad.entries) is None
    with pytest.raises(NegativeCycleError):
        order_hull(bad)


def test_closure_is_idempotent_and_dominated():
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(2, 4)
        nu = _random(rng, n)
        closed = minplus_closure(nu.entries)
        if closed is None:
            continue
        again = minplus_closure(closed)
        assert again == closed
        assert all(
            closed[i][j] <= nu.entries[i][j] for i in range(n) for j in range(n)
        )


def test_closure_matches_simple_path_oracle():
    rng = random.Random(23)
    for _ in range(600):
        n = rng.randint(2, 4)
        nu = _random(rng, n)
        expected = simple_path_closure(nu.entries)
        got = minplus_closure(nu.entries)
        if expected is None:
            assert got is None
        else:
            assert got == expected


def test_feasibility_matches_cycle_oracle():
    rng = random.Random(37)
    for _ in range(600):
        n = rng.randint(2, 4)
        nu = _random(rng, n)
        assert has_containing_maximal(nu) == simple_cycles_nonneg(nu.entries)


def test_order_criterion_matches_violation_scan():
    rng = random.Random(41)
    for _ in range(400):
        nu = _random(rng, rng.randint(2, 4))
        triple = first_violation(nu)
        assert is_order(nu) == (triple is None)
        if triple is not None:
            i, k, j = triple
            assert nu.entries[i][k] + nu.entries[k][j] < nu.entries[i][j]


def test_hijikata_level():
    assert hijikata_normal_form(ExponentMatrix([[0, -2], [5, 0]])) == 3
    assert hijikata_normal_form(ExponentMatrix([[0, 0], [0, 0]])) == 0


def test_hijikata_rejects_non_order():
    with pytest.raises(NotAnOrderError):
        hijikata_normal_form(ExponentMatrix([[0, -2], [1, 0]]))


def test_hijikata_needs_two_by_two():
    with pytest.raises(UnsupportedDimensionError):
        hijikata_normal_form(NU)


def test_json_roundtrip():
    data = NU.to_json_dict()
    assert data == {"n": 3, "nu": [[0, 0, 1], [3, 0, 1], [3, 2, 0]]}
    assert ExponentMatrix.from_json_dict(data) == NU


def test_json_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        ExponentMatrix.from_json_dict({"n": 2, "nu": [[0, 0, 1], [3, 0, 1], [3, 2, 0]]})


def test_equality_and_hash():
    a = ExponentMatrix([[0, 1], [2, 0]])
    b = ExponentMatrix([[0, 1], [2, 0]])
    assert a == b and hash(a) == hash(b)
    assert a != ExponentMatrix([[0, 1], [3, 0]])
    assert a != [[0, 1], [2, 0]]


@pytest.mark.parametrize(
    "i, j, error", [(-1, 0, IndexError), (0, 3, IndexError), (True, 0, TypeError), (0, 1.0, TypeError)]
)
def test_entry_refuses_bad_indices(i, j, error):
    """entry(-1, 0) used to wrap around to 5 on [[0, 1, 2], [3, 0, 4], [5, 6, 0]]."""
    nu = ExponentMatrix([[0, 1, 2], [3, 0, 4], [5, 6, 0]])
    assert nu.entry(2, 0) == 5
    with pytest.raises(error):
        nu.entry(i, j)


def _random(rng, n, lo=-3, hi=5):
    return ExponentMatrix(
        [[rng.randint(lo, hi) if i != j else 0 for j in range(n)] for i in range(n)]
    )


def test_json_object_with_an_unknown_key_is_refused():
    with pytest.raises(ValueError, match="^unknown field 'extra'; the fields are 'n' and 'nu'$"):
        ExponentMatrix.from_json_dict({"nu": [[0, 1], [0, 0]], "extra": 5})
    assert ExponentMatrix.from_json_dict({"nu": [[0, 1], [0, 0]]}).n == 2
