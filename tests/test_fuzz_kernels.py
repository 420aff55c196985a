"""The kernels under run_fuzz against independent references.

Lattice-point enumeration is compared with a filtered scan of the full
box, intersections of maximal orders with an entrywise maximum over the
vertex exponent matrices, and the integer LocalMatrix builders with the
same matrices built from Fractions.  Points and vertices built from
trusted enumerator tuples must behave exactly like validated ones.  The
golden tests pin the outputs and the random streams of the fuzz matrix
generators, so ``fuzz --seed S`` keeps replaying the same inputs.
"""

import ast
import hashlib
import itertools
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from splitorders.correspondence import (
    ApartmentVertex,
    intersect_maximal,
    maximal_orders_containing,
    maximal_order_exponents,
    verify_roundtrip,
)
from splitorders.dvr import PRIME_BOUND, LocalMatrix, _below, check_prime
from splitorders.errors import (
    DimensionMismatchError,
    EmptyVertexListError,
    EnumerationLimitError,
    NegativeCycleError,
)
from splitorders.exponent import ExponentMatrix, has_containing_maximal, order_hull
import splitorders.fuzz as fuzz
import splitorders.polytope as polytope
from splitorders.fuzz import random_change_of_basis, random_unit_matrix
from splitorders.polytope import contains, enumerate_lattice_points, is_reduced

from _oracles import entrywise_max, naive_box_points, plain_random_unit_matrix

PRIMES = (2, 3, 5)


def _random_entries(rng, n, lo, hi):
    return [[0 if i == j else rng.randint(lo, hi) for j in range(n)] for i in range(n)]


def _matrices(seed, count_per_n, lo, hi):
    rng = random.Random(seed)
    for n in range(2, 6):
        # n = 5 boxes grow as (hi - lo + 1)^4, so keep them few and small
        count, top = (count_per_n // 3, min(hi, 3)) if n == 5 else (count_per_n, hi)
        for _ in range(count):
            yield ExponentMatrix(_random_entries(rng, n, lo, top))


# ---------------------------------------------------------------------------
# enumeration


def test_maximal_orders_containing_is_the_enumerator():
    # one function under two names, so the tests below check it once
    assert maximal_orders_containing is enumerate_lattice_points


def _assert_enumeration_matches(nu):
    points = enumerate_lattice_points(nu)
    expected = naive_box_points(nu.entries)
    assert [p.m for p in points] == expected
    assert all(contains(nu, p.m) for p in points)
    return expected


def test_enumeration_matches_box_scan_on_random_matrices():
    feasible = infeasible = 0
    for nu in _matrices(11, 45, -3, 5):
        points = _assert_enumeration_matches(nu)
        if has_containing_maximal(nu):
            feasible += 1
            assert points
            _assert_enumeration_matches(order_hull(nu))
        else:
            infeasible += 1
            assert points == []
    assert feasible > 20 and infeasible > 20


def test_enumeration_matches_box_scan_on_feasible_non_orders():
    # declared bounds looser than their closure: the box is wider than
    # the region, and some prefixes extend to no point
    rng = random.Random(12)
    seen = 0
    for _ in range(200):
        n = rng.randint(3, 4)
        nu = ExponentMatrix(_random_entries(rng, n, 0, 5))
        if order_hull(nu) != nu:
            seen += 1
            _assert_enumeration_matches(nu)
    assert seen > 50


@pytest.mark.parametrize(
    "entries",
    [
        [[0, 0], [0, 0]],  # one point
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 2, -1], [-2, 0, -3], [1, 3, 0]],  # one vertex: m = (0, -2, 1)
        [[0, 1, 2], [-1, 0, 3], [4, 1, 0]],  # x_2 = x_1 + 1 pinned: flat region
        [[0, -1], [1, 0]],  # zero-width cycle
        [[0, 0, 0, 0], [0, 0, 0, 0], [5, 5, 0, 5], [0, 0, 0, 0]],
    ],
)
def test_enumeration_on_degenerate_regions(entries):
    nu = ExponentMatrix(entries)
    assert has_containing_maximal(nu)
    assert _assert_enumeration_matches(nu)


@pytest.mark.parametrize(
    "entries",
    [
        [[0, -1], [0, 0]],
        [[0, -3, 0], [0, 0, 1], [1, 1, 0]],
        [[0, 100, 100], [100, 0, -201], [100, 100, 0]],  # huge box, empty
    ],
)
def test_enumeration_of_empty_regions_is_empty(entries, monkeypatch):
    nu = ExponentMatrix(entries)
    assert not has_containing_maximal(nu)
    monkeypatch.setattr(polytope, "DEFAULT_POINT_LIMIT", 1)
    assert enumerate_lattice_points(nu) == []


def test_enumeration_box_limit(monkeypatch):
    box = ExponentMatrix([[0, 3], [4, 0]])  # box of 8 cells
    monkeypatch.setattr(polytope, "DEFAULT_POINT_LIMIT", 8)
    assert len(enumerate_lattice_points(box)) == 8
    monkeypatch.setattr(polytope, "DEFAULT_POINT_LIMIT", 7)
    with pytest.raises(EnumerationLimitError, match="^bounding box has more than 7 cells$"):
        enumerate_lattice_points(box)
    # the limit counts the declared box, not the box of the closed bounds
    nu = ExponentMatrix([[0, 9, 0], [9, 0, 0], [0, 0, 0]])  # 19 x 1 box, 1 point
    monkeypatch.setattr(polytope, "DEFAULT_POINT_LIMIT", 19)
    assert [p.m for p in enumerate_lattice_points(nu)] == [(0, 0, 0)]
    monkeypatch.setattr(polytope, "DEFAULT_POINT_LIMIT", 18)
    with pytest.raises(EnumerationLimitError):
        enumerate_lattice_points(nu)
    with pytest.raises(EnumerationLimitError):
        maximal_orders_containing(nu)


@pytest.mark.parametrize("delta", [1, -1])
def test_max_difference_check_catches_an_off_by_one_closure(monkeypatch, delta):
    """The enumeration the check brute-forces over does not follow the closure.

    The closure here is off by ``delta`` in entry (0, 1) and feeds both
    ``max_difference`` and the emptiness test; enumeration keeps cutting
    by the declared bounds, so the check sees the wrong maximum.
    """
    from splitorders import exponent, fuzz

    check = dict(fuzz.CHECKS)["max-difference-enumeration"]
    config = fuzz.FuzzConfig(trials=60, seed=5)
    assert check(random.Random(5), config)[1] is None
    real = exponent.minplus_closure

    def off_by_one(upper):
        closed = real(upper)
        if closed is not None:
            closed[0][1] += delta
        return closed

    monkeypatch.setattr(exponent, "minplus_closure", off_by_one)
    _, failure = check(random.Random(5), config)
    assert failure is not None and "pair (0, 1)" in failure["note"]


def test_roundtrip_report_matches_its_definition():
    """Each field of the report is what its definition computes."""
    for nu in _matrices(13, 30, -3, 5):
        if not has_containing_maximal(nu):
            with pytest.raises(NegativeCycleError):
                verify_roundtrip(nu)
            continue
        report = verify_roundtrip(nu)
        hull = order_hull(nu)
        vertices = tuple(maximal_orders_containing(hull))
        refix = intersect_maximal(vertices)
        assert report.hull == hull
        assert report.vertices == vertices
        assert report.input_reduced == is_reduced(nu)
        assert report.hull_fixed == (refix == hull)
        assert report.reduced_fixed == ((not is_reduced(nu)) or refix == nu)


# ---------------------------------------------------------------------------
# intersection


def _reference_intersection(coords_family):
    return entrywise_max(
        [
            [list(row) for row in maximal_order_exponents(ApartmentVertex(c)).entries]
            for c in coords_family
        ]
    )


def test_intersection_matches_entrywise_max():
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 5)
        family = [
            [rng.randint(-4, 4) for _ in range(n)] for _ in range(rng.randint(1, 7))
        ]
        got = intersect_maximal([ApartmentVertex(c) for c in family])
        assert [list(row) for row in got.entries] == _reference_intersection(family)


def test_intersection_of_enumerated_vertices_matches_entrywise_max():
    for nu in _matrices(22, 15, -2, 4):
        vertices = maximal_orders_containing(nu)
        if vertices:
            got = intersect_maximal(vertices)
            assert [list(row) for row in got.entries] == _reference_intersection(
                [v.m for v in vertices]
            )


def test_intersection_accepts_any_iterable():
    family = [ApartmentVertex([0, 1, 3]), ApartmentVertex([0, 2, -1])]
    assert intersect_maximal(iter(family)) == intersect_maximal(family)
    assert intersect_maximal(tuple(family)) == intersect_maximal(family)


def test_intersection_errors():
    with pytest.raises(EmptyVertexListError):
        intersect_maximal([])
    with pytest.raises(EmptyVertexListError):
        intersect_maximal(iter(()))
    for family in (
        [[0, 1], [0, 1, 2]],
        [[0, 1, 2], [0, 1]],
        [[0, 1, 2], [0, 1, 2], [0, 1, 2, 3]],
    ):
        with pytest.raises(DimensionMismatchError):
            intersect_maximal([ApartmentVertex(c) for c in family])


# ---------------------------------------------------------------------------
# trusted construction


def test_enumerated_points_equal_validated_points():
    nu = ExponentMatrix([[0, 0, 1, 2], [3, 0, 1, 2], [3, 2, 0, 1], [2, 2, 2, 0]])
    points = enumerate_lattice_points(nu)
    box = naive_box_points(nu.entries)
    assert [p.m for p in points] == box and len(points) > 10
    for p, x in zip(points, box):
        assert type(p) is ApartmentVertex
        assert type(p.m) is tuple
        assert all(type(c) is int for c in p.m)
        checked = ApartmentVertex(list(x))
        assert p == checked and hash(p) == hash(checked)
        assert repr(p) == repr(checked)
        assert list(p.m) == list(checked.m) and p.n == checked.n == 4
        assert contains(nu, p.m)
    assert points == sorted(points)
    assert len(set(points)) == len(points)
    assert set(points) == {ApartmentVertex(x) for x in box}


# ---------------------------------------------------------------------------
# integer LocalMatrix builders


@pytest.mark.parametrize("p", PRIMES)
def test_matrix_unit_matches_fraction_build(p):
    for n in (1, 2, 3):
        for i, j in itertools.product(range(n), repeat=2):
            for e in range(-3, 4):
                rows = [[0] * n for _ in range(n)]
                rows[i][j] = Fraction(p) ** e
                expected = LocalMatrix(rows, p)
                got = LocalMatrix.matrix_unit(n, i, j, p, exponent=e)
                assert got == expected
                assert (got.nums, got.den) == (expected.nums, expected.den)
                assert got.fractions() == expected.fractions()
    assert LocalMatrix.matrix_unit(2, 0, 1, p) == LocalMatrix([[0, 1], [0, 0]], p)


@pytest.mark.parametrize("p", PRIMES)
def test_power_diagonal_matches_fraction_build(p):
    cases = [list(c) for c in itertools.product(range(-3, 4), repeat=2)]
    rng = random.Random(p)
    cases += [[rng.randint(-3, 3) for _ in range(n)] for n in (1, 3, 4) for _ in range(20)]
    for exps in cases:
        expected = LocalMatrix.diagonal([Fraction(p) ** e for e in exps], p)
        got = LocalMatrix.power_diagonal(exps, p)
        assert got == expected
        assert (got.nums, got.den) == (expected.nums, expected.den)


def test_integer_builders_validate():
    with pytest.raises(ValueError):
        LocalMatrix.power_diagonal([0, 1], 4)
    with pytest.raises(ValueError):
        LocalMatrix.power_diagonal([], 2)
    with pytest.raises(ValueError):
        LocalMatrix.matrix_unit(2, 0, 1, 9, exponent=-1)
    with pytest.raises(IndexError):
        LocalMatrix.matrix_unit(2, 2, 0, 2)
    # a bool index used to read as 0 or 1: (True, 0) gave E(1, 0)
    with pytest.raises(TypeError):
        LocalMatrix.matrix_unit(2, True, 0, 2)


@pytest.mark.parametrize("i, j", [(-1, 0), (0, -1), (-2, -2), (0, 2), (3, 1)])
def test_matrix_unit_refuses_indices_outside_the_matrix(i, j):
    """A negative index used to wrap around: (-1, 0) at n = 2 gave E(1, 0)."""
    with pytest.raises(IndexError, match="out of range"):
        LocalMatrix.matrix_unit(2, i, j, 2)
    with pytest.raises(IndexError, match="out of range"):
        LocalMatrix.matrix_unit(2, i, j, 2, exponent=-1)


# ---------------------------------------------------------------------------
# golden generator streams, captured from the Fraction-built generators

_GOLDEN = [
    ("random_unit_matrix", 0, 2, 2, ((9, 0), (0, -3)), 1, 10326739782786242647),
    ("random_unit_matrix", 1, 3, 2, ((0, 0, 1), (7, 3, 0), (2, 1, 0)), 1, 11205253249702154886),
    ("random_unit_matrix", 2, 3, 3, ((1, 2, -2), (0, 0, 1), (0, 1, -1)), 1, 7944452632916890165),
    ("random_unit_matrix", 3, 4, 5, ((441, 0, 0, 0), (0, 8, 0, -104), (0, 0, 272, 0), (0, 0, 0, -8)), 1, 2940409807404031313),
    ("random_unit_matrix", 4, 1, 3, ((20,),), 1, 1085536589165212248),
    ("random_unit_matrix", 5, 3, 5, ((0, 48, 0), (0, 0, -112), (-144, 0, 0)), 1, 16903588442734887601),
    ("random_change_of_basis", 0, 2, 2, ((9, 0), (0, -6)), 1, 1857609452829537054),
    ("random_change_of_basis", 1, 3, 2, ((0, 0, 1), (1, 24, 0), (0, 8, 0)), 4, 15417145005318368486),
    ("random_change_of_basis", 2, 3, 3, ((54, 1, -18), (0, 0, 9), (27, 0, -9)), 3, 7259380703130999695),
    ("random_change_of_basis", 3, 4, 5, ((-525, 0, 0, 0), (0, -1, 0, 104), (0, 0, 16, 0), (0, 0, 0, 8)), 5, 17078650019880908676),
    ("random_change_of_basis", 4, 1, 3, ((-12,),), 1, 16933281752253045094),
    ("random_change_of_basis", 5, 3, 5, ((0, 3750, 0), (0, 0, -16), (-1000, 0, 0)), 25, 4599339987076239173),
]

_GENERATORS = {
    "random_unit_matrix": random_unit_matrix,
    "random_change_of_basis": random_change_of_basis,
}


@pytest.mark.parametrize("name, seed, n, p, nums, den, after", _GOLDEN)
def test_generator_golden_outputs(name, seed, n, p, nums, den, after):
    rng = random.Random(seed)
    M = _GENERATORS[name](rng, n, p)
    assert (M.nums, M.den) == (nums, den)
    assert rng.getrandbits(64) == after


def test_generator_golden_stream():
    rng = random.Random(11)
    acc = []
    for t in range(300):
        n = 1 + t % 4
        p = (2, 3, 5, 7)[t % 4 if t % 3 else 0]
        M = random_unit_matrix(rng, n, p, steps=1 + t % 6)
        if not t % 2:
            # random_change_of_basis at this step count
            M = M @ LocalMatrix.power_diagonal(fuzz._randints(rng, -2, 2, n), p)
        acc.append((M.n, M.prime, M.nums, M.den))
    digest = hashlib.sha256(repr(acc).encode()).hexdigest()
    assert digest == "f2563c15e6b85204eab2cd4fbf56c8435c6704a981d2cfd53f2f40f4c396a89d"
    assert rng.getrandbits(64) == 15931380275450984282


# (lo, hi): widths 1, 2, 2^k and 2^k + 1, and negative lows
_RANDINT_RANGES = [
    (0, 0), (-5, -5), (3, 4), (-1, 0), (0, 7), (-8, 7), (1, 16),
    (0, 8), (-4, 4), (-125, 125), (-(2**70), 2**70), (1, 625),
]


@pytest.mark.parametrize("lo, hi", _RANDINT_RANGES)
def test_exact_stream_draw_is_randint(lo, hi):
    for seed in range(5):
        ours, theirs = random.Random(seed), random.Random(seed)
        for count in (0, 1, 2, 7, 200):
            assert fuzz._randints(ours, lo, hi, count) == [
                theirs.randint(lo, hi) for _ in range(count)
            ]
        assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("lo, hi", _RANDINT_RANGES)
def test_exponent_matrix_draws_are_randint(lo, hi):
    """random_exponent_matrix draws through _randints; the entries, row by
    row off the diagonal, and the state left behind are those of randint."""
    for seed in range(3):
        for n in (2, 3, 5):
            ours, theirs = random.Random(seed), random.Random(seed)
            nu = fuzz.random_exponent_matrix(ours, n, lo, hi)
            expected = [
                [0 if i == j else theirs.randint(lo, hi) for j in range(n)] for i in range(n)
            ]
            assert nu == ExponentMatrix(expected) and repr(nu) == repr(ExponentMatrix(expected))
            assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("lo, hi", _RANDINT_RANGES)
def test_vertex_draws_are_randint(lo, hi):
    """random_vertex draws through _randints; its coordinates, in order,
    and the state left behind are those of randint."""
    for seed in range(3):
        for n in (2, 3, 5):
            ours, theirs = random.Random(seed), random.Random(seed)
            v = fuzz.random_vertex(ours, n, lo, hi)
            assert v == ApartmentVertex([theirs.randint(lo, hi) for _ in range(n)])
            assert ours.getstate() == theirs.getstate()


def test_integral_matrix_draws_are_randint():
    """random_integral_matrix draws through _randints; its entries, row by
    row from [-p^3, p^3], and the state left behind are those of randint."""
    for seed in range(3):
        for n in (1, 2, 4):
            for p in (2, 3, 7):
                ours, theirs = random.Random(seed), random.Random(seed)
                M = fuzz.random_integral_matrix(ours, n, p)
                b = p**3
                rows = [[theirs.randint(-b, b) for _ in range(n)] for _ in range(n)]
                assert M == LocalMatrix(rows, p)
                assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("val_lo, val_hi", [(-2, 2), (-1, 3), (0, 0), (2, 5), (-4, -1)])
def test_local_matrix_draws_are_randint(val_lo, val_hi):
    """random_local_matrix draws its words itself; entry by entry it takes
    num from randint(-p^3, p^3), then e from randint(val_lo, val_hi), and
    leaves the state randint would."""
    for seed in range(3):
        for n in (1, 2, 3):
            for p in (2, 3, 5, 7):
                ours, theirs = random.Random(seed), random.Random(seed)
                M = fuzz.random_local_matrix(ours, n, p, val_lo, val_hi)
                rows = []
                for _ in range(n):
                    row = []
                    for _ in range(n):
                        num = theirs.randint(-(p**3), p**3)
                        row.append(num * Fraction(p) ** theirs.randint(val_lo, val_hi))
                    rows.append(row)
                assert M == LocalMatrix(rows, p)
                assert ours.getstate() == theirs.getstate()


def test_generator_draws_refuse_empty_ranges():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="empty range"):
        fuzz.random_vertex(rng, 3, 1, 0)
    with pytest.raises(ValueError, match="empty range"):
        fuzz.random_local_matrix(rng, 3, 2, 1, 0)


def test_exponent_matrix_draws_refuse_bad_shapes():
    with pytest.raises(ValueError, match="empty range"):
        fuzz.random_exponent_matrix(random.Random(0), 3, 1, 0)
    with pytest.raises(ValueError, match="dimension >= 2"):
        fuzz.random_exponent_matrix(random.Random(0), 1, 0, 3)


def test_exact_stream_draw_refuses_an_empty_range():
    with pytest.raises(ValueError, match="empty range"):
        fuzz._randints(random.Random(0), 1, 0, 3)
    with pytest.raises(ValueError, match="empty range"):
        fuzz._randints(random.Random(0), 1, 0, 0)


_STREAM_GENERATORS = [
    (fuzz.random_exponent_matrix, lambda n, p: (n, -3, 5)),
    (fuzz.random_vertex, lambda n, p: (n, -4, 4)),
    (fuzz.random_vertex, lambda n, p: (n, -3, 3)),
    (fuzz.random_integral_matrix, lambda n, p: (n, p)),
    (fuzz.random_local_matrix, lambda n, p: (n, p)),
    (fuzz.random_local_matrix, lambda n, p: (n, p, -1, 3)),
    (fuzz.random_unit_matrix, lambda n, p: (n, p)),
    (fuzz.random_change_of_basis, lambda n, p: (n, p)),
    (fuzz.random_triangular_form, lambda n, p: (n, p)),
]


@pytest.mark.parametrize("generator, args", _STREAM_GENERATORS)
def test_generators_replay_the_randint_stream(monkeypatch, generator, args):
    """Each generator gives the same output and state with _randints as with randint."""

    def run():
        rng = random.Random(17)
        out = [repr(generator(rng, *args(n, p))) for n in (2, 3, 4) for p in (2, 3, 5)]
        return out, rng.getstate()

    ours = run()
    monkeypatch.setattr(
        fuzz, "_randints", lambda rng, lo, hi, count: [rng.randint(lo, hi) for _ in range(count)]
    )
    assert run() == ours


def test_unit_matrix_draws_are_the_plain_calls():
    """``random_unit_matrix`` draws through ``getrandbits`` the words that
    ``randrange``, ``sample``, ``randint`` and ``shuffle`` consume."""
    for seed in range(150):
        for n in (1, 2, 3, 4):
            for p in (2, 3, 5, 7):
                steps = 1 + seed % 5
                ours, theirs = random.Random(seed), random.Random(seed)
                M = random_unit_matrix(ours, n, p, steps=steps)
                rows = plain_random_unit_matrix(theirs, n, p, steps=steps)
                assert (M.nums, M.den) == (tuple(map(tuple, rows)), 1)
                assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize(
    "n, prime, message",
    [(0, 2, "square and nonempty"), (2, 4, "4 is not prime"), (2, 2.5, "not an integer")],
)
def test_unit_matrix_refuses_bad_arguments(n, prime, message):
    """The refusals of the identity matrix the steps start from."""
    with pytest.raises(ValueError, match=message):
        random_unit_matrix(random.Random(0), n, prime)


@pytest.mark.parametrize(
    "generator",
    [
        fuzz.random_integral_matrix,
        fuzz.random_local_matrix,
        fuzz.random_unit_matrix,
        fuzz.random_change_of_basis,
        fuzz.random_triangular_form,
    ],
    ids=lambda f: f.__name__,
)
def test_matrix_generators_check_the_prime_and_size(generator):
    """random_local_matrix built LocalMatrix(..., prime=4) and
    LocalMatrix([], prime=2), which LocalMatrix itself refuses, and
    random_integral_matrix raised AttributeError on the prime 2.0."""
    for n, prime, error, message in [
        (2, 4, ValueError, "4 is not prime"),
        (2, 1, ValueError, "prime must be >= 2, got 1"),
        (2, True, TypeError, "prime True is not an integer"),
        (0, 2, ValueError, "square and nonempty"),
    ]:
        with pytest.raises(error, match=message):
            generator(random.Random(1), n, prime)
    # an integral float reads as its int, as check_prime reads it
    assert generator(random.Random(1), 3, 2.0) == generator(random.Random(1), 3, 2)


class _Subclass(random.Random):
    pass


class _OwnBits(random.Random):
    """Reads its words through its own getrandbits, complemented."""

    def getrandbits(self, k):
        return super().getrandbits(k) ^ ((1 << k) - 1)


class _OwnRandom(random.Random):
    def random(self):
        return super().random()


@pytest.mark.parametrize("cls", [random.Random, _Subclass, _OwnBits], ids=lambda c: c.__name__)
def test_below_reads_the_words_of_randrange(cls):
    for seed in range(3):
        ours, theirs = cls(seed), cls(seed)
        for width in [*range(1, 301), 2**32 - 1, 2**32 + 1, 2**70 + 13]:
            got = [_below(ours.getrandbits, width) for _ in range(4)]
            assert got == [theirs.randrange(width) for _ in range(4)]
            assert ours.getstate() == theirs.getstate()


def test_below_leaves_randrange_for_a_subclass_that_overrides_random_alone():
    """Such a subclass keeps getrandbits, but its randrange reads random()."""
    ours, theirs = _OwnRandom(5), _OwnRandom(5)
    assert [_below(ours.getrandbits, 10) for _ in range(20)] != [
        theirs.randrange(10) for _ in range(20)
    ]


def _getrandbits_calls(tree):
    """The function path of each call of a ``getrandbits``, directly or
    through a name the module binds to one."""
    def is_bits(node):
        return isinstance(node, ast.Attribute) and node.attr == "getrandbits"

    aliases = {
        target.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and is_bits(node.value)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    sites = []

    def visit(node, path):
        for child in ast.iter_child_nodes(node):
            inner = path + (child.name,) if isinstance(child, ast.FunctionDef) else path
            if isinstance(child, ast.Call) and (
                is_bits(child.func) or isinstance(child.func, ast.Name) and child.func.id in aliases
            ):
                sites.append(".".join(inner))
            visit(child, inner)

    visit(tree, ())
    return sites


def test_only_the_table_sampler_and_randints_call_getrandbits():
    """Every other integer drawn from a range reads its words through
    ``dvr._below``, which calls the ``draw`` it is given; ``_randints``,
    the hot loop of the fuzz driver, keeps ``_below`` written out.  The
    sharp sampler's units are read in ``_exact_units``, in bulk at p = 2
    and 3 and word by word otherwise."""
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(Path(fuzz.__file__).parent.glob("*.py"))
    }
    sites = [(name, site) for name, tree in trees.items() for site in _getrandbits_calls(tree)]
    assert sites == (
        [("dvr.py", "_exact_units")] * 3 + [("fuzz.py", "_randints")] * 2
    )
    below = next(
        node for node in ast.walk(trees["dvr.py"])
        if isinstance(node, ast.FunctionDef) and node.name == "_below"
    )
    assert [arg.arg for arg in below.args.args] == ["draw", "width"]
    calls = [node.func for node in ast.walk(below) if isinstance(node, ast.Call)]
    assert {"draw"} <= {f.id for f in calls if isinstance(f, ast.Name)}


# ---------------------------------------------------------------------------
# primality


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_check_prime_matches_trial_division():
    for n in range(-3, 20000):
        if _trial_division(n):
            assert check_prime(n) == n
        else:
            with pytest.raises(ValueError):
                check_prime(n)


def test_check_prime_large_values():
    start = time.perf_counter()
    assert check_prime(2**31 - 1) == 2**31 - 1
    assert check_prime(2**61 - 1) == 2**61 - 1
    assert time.perf_counter() - start < 1.0
    # a Carmichael number, the least strong pseudoprime to bases 2, 3, 5, 7,
    # and the least one to every prime base up to 37
    for composite in (561, 3215031751, 318665857834031151167461, 2**61 + 1):
        with pytest.raises(ValueError, match="is not prime"):
            check_prime(composite)
    # primality is not decided at or above the bound, even for primes
    for too_large in (PRIME_BOUND, 2**89 - 1, 2**127 - 1):
        with pytest.raises(ValueError, match="prime must be below"):
            check_prime(too_large)


# ---------------------------------------------------------------------------
# strict integer entries


@pytest.mark.parametrize("bad", [True, False, "2", 1.7, float("inf"), float("nan"), None, Fraction(1, 2)])
def test_constructors_reject_non_integer_entries(bad):
    with pytest.raises((TypeError, ValueError)):
        ExponentMatrix([[0, bad], [1, 0]])
    with pytest.raises((TypeError, ValueError)):
        ApartmentVertex([0, bad])


def test_constructors_accept_integral_floats():
    nu = ExponentMatrix([[0, 2.0], [-1.0, 0]])
    assert nu.entries == ((0, 2), (-1, 0))
    assert all(type(x) is int for row in nu.entries for x in row)
    assert ApartmentVertex([1.0, 3]).m == (0, 2)
