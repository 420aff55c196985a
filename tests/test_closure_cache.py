"""The min-plus closure kept on exponent matrices.

Each ``ExponentMatrix`` computes its closure at most once, on first use,
and keeps it in ``_closure``; a region is its exponent matrix, so the
region functions of ``polytope`` read that same slot.  These tests pin
that the kept copy is invisible to equality, hashing, repr and copying,
that nothing outside can change it, that the unchecked producers leave a
correct one, that each command computes one closure, and that a wrong
fill is caught by the fuzz checks and by the referees here.  The
referees read ``minplus_closure`` and ``tests/_oracles.py``, never the
slot.
"""

import ast
import copy
import inspect
import json
import pickle
import random
from pathlib import Path

import pytest

from splitorders import cli, exponent, polytope, render
from splitorders.correspondence import (
    ApartmentVertex,
    intersect_maximal,
    maximal_order_exponents,
)
from splitorders.errors import EmptyPolytopeError
from splitorders.exponent import (
    ExponentMatrix,
    has_containing_maximal,
    is_order,
    minplus_closure,
    order_hull,
)
from splitorders.fuzz import CHECKS, FuzzConfig, random_exponent_matrix
from splitorders.polytope import contains, enumerate_lattice_points, is_reduced, max_difference

from _oracles import brute_max_difference, naive_box_points, simple_path_closure

# the one module that fills a slot, through its minplus_closure binding
FILLERS = (exponent,)
# the modules that read a slot, through their _cached_closure binding
READERS = (exponent, polytope, render)


def _fresh(nu):
    """The closure of nu's entries as the slot stores it, computed anew."""
    closed = minplus_closure(nu.entries)
    return () if closed is None else tuple(map(tuple, closed))


def _random_matrices(seed, count, dims=(2, 3, 4, 5, 6), lo=-3, hi=5):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.choice(dims)
        yield ExponentMatrix(
            [[0 if i == j else rng.randint(lo, hi) for j in range(n)] for i in range(n)]
        )


@pytest.fixture
def closure_calls(monkeypatch):
    """Counts the closures computed through every filling module."""
    calls = []
    real = exponent.minplus_closure

    def counted(rows):
        calls.append(len(rows))
        return real(rows)

    for module in FILLERS:
        monkeypatch.setattr(module, "minplus_closure", counted)
    return calls


# ---------------------------------------------------------------------------
# one closure per matrix


def test_every_reader_shares_one_closure(closure_calls):
    nu = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    assert nu._closure is None
    assert has_containing_maximal(nu)
    hull = order_hull(nu)
    assert not is_reduced(nu) and is_reduced(hull)
    assert [max_difference(nu, i, j) for i in range(3) for j in range(3)] == [
        x for row in hull.entries for x in row
    ]
    assert len(enumerate_lattice_points(nu)) == 13
    assert len(closure_calls) == 1
    # the hull is its own closure, and its region reads it
    assert is_reduced(hull) and len(enumerate_lattice_points(hull)) == 13
    assert len(closure_calls) == 1


def test_enumeration_fills_the_closure_slot_of_its_matrix(closure_calls):
    nu = ExponentMatrix([[0, 1, 4], [2, 0, 1], [0, 3, 0]])
    assert nu._closure is None
    points = enumerate_lattice_points(nu)
    assert nu._closure == _fresh(nu)
    assert is_reduced(nu) == (nu._closure == nu.entries)
    assert [p.m for p in points] == naive_box_points(nu.entries)
    assert len(closure_calls) == 1


def test_negative_cycle_is_kept_once(closure_calls):
    nu = ExponentMatrix([[0, 2, -3], [0, 0, 0], [2, 2, 0]])
    assert not has_containing_maximal(nu)
    assert nu._closure == ()
    assert not is_reduced(nu)
    assert enumerate_lattice_points(nu) == []
    with pytest.raises(EmptyPolytopeError):
        max_difference(nu, 0, 1)
    assert len(closure_calls) == 1


def _cli_input(tmp_path, entries):
    path = tmp_path / "nu.json"
    path.write_text(json.dumps({"nu": entries}))
    return str(path)


@pytest.mark.parametrize(
    "argv, entries",
    [
        (["check"], [[0, 0, 1], [3, 0, 1], [3, 2, 0]]),  # an order
        (["check"], [[0, 0, 2], [3, 0, 1], [3, 2, 0]]),  # a non-order with a hull
        (["check"], [[0, 2, -3], [0, 0, 0], [2, 2, 0]]),  # a negative cycle
        (["hull"], [[0, 0, 2], [3, 0, 1], [3, 2, 0]]),
        (["vertices"], [[0, 0, 2], [3, 0, 1], [3, 2, 0]]),
        (["roundtrip"], [[0, 0, 2], [3, 0, 1], [3, 2, 0]]),
        (["roundtrip"], [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]),
        (["draw", "--out", "{tmp}/r.svg"], [[0, 0, 2], [3, 0, 1], [3, 2, 0]]),
    ],
)
def test_each_command_computes_one_closure(tmp_path, capsys, closure_calls, argv, entries):
    command = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    main_args = command[:1] + [_cli_input(tmp_path, entries)] + command[1:]
    assert cli.main(main_args) in (0, 1)
    capsys.readouterr()
    assert len(closure_calls) == 1


# ---------------------------------------------------------------------------
# hygiene of the slot


def test_equality_hash_and_repr_ignore_the_slot():
    rows = [[0, 1, 4], [2, 0, 1], [0, 3, 0]]
    filled, empty = ExponentMatrix(rows), ExponentMatrix(rows)
    assert has_containing_maximal(filled)
    assert filled._closure and empty._closure is None
    assert filled == empty and hash(filled) == hash(empty)
    assert repr(filled) == repr(empty) == "ExponentMatrix([[0, 1, 4], [2, 0, 1], [0, 3, 0]])"


def test_attributes_refuse_assignment_and_deletion():
    nu = ExponentMatrix([[0, 1], [1, 0]])
    assert has_containing_maximal(nu)
    hull = order_hull(nu)
    for name, value in (("entries", ((0, -5), (1, 0))), ("n", 3), ("_closure", ())):
        with pytest.raises(AttributeError):
            setattr(nu, name, value)
        with pytest.raises(AttributeError):
            delattr(nu, name)
    with pytest.raises(AttributeError):
        nu.other = 1
    assert nu.entries == ((0, 1), (1, 0)) and nu._closure == ((0, 1), (1, 0))
    assert has_containing_maximal(nu) and order_hull(nu) == hull
    assert not has_containing_maximal(ExponentMatrix([[0, -5], [1, 0]]))


def _filled_objects():
    feasible = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    has_containing_maximal(feasible)
    infeasible = ExponentMatrix([[0, -2], [1, 0]])
    has_containing_maximal(infeasible)
    hull = order_hull(ExponentMatrix([[0, 5, 1], [0, 0, 0], [0, 1, 0]]))
    return [feasible, infeasible, hull]


@pytest.mark.parametrize("index", range(3))
def test_copies_keep_an_equal_closure(index):
    obj = _filled_objects()[index]
    closed = obj._closure
    assert type(closed) is tuple
    assert closed == _fresh(ExponentMatrix(obj.entries))
    for clone in (
        pickle.loads(pickle.dumps(obj)),
        pickle.loads(pickle.dumps(obj, protocol=2)),
        copy.copy(obj),
        copy.deepcopy(obj),
    ):
        assert type(clone) is type(obj)
        assert clone == obj and hash(clone) == hash(obj) and repr(clone) == repr(obj)
        assert clone._closure == closed


def test_mutating_a_returned_closure_leaves_the_slot_alone(monkeypatch):
    handed_out = []
    real = exponent.minplus_closure

    def keep(rows):
        closed = real(rows)
        handed_out.append(closed)
        return closed

    monkeypatch.setattr(exponent, "minplus_closure", keep)
    nu = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    assert max_difference(nu, 0, 2) == 1
    (returned,) = handed_out
    returned[0][2] = 99
    returned[1] = [7, 7, 7]
    assert max_difference(nu, 0, 2) == 1
    assert nu._closure == ((0, 0, 1), (3, 0, 1), (3, 2, 0))
    # the public function always hands out a fresh list
    public = minplus_closure(nu.entries)
    public[0][0] = -1
    assert nu._closure[0][0] == 0 and order_hull(nu).entries[0] == (0, 0, 1)


def _assert_trusted(m):
    """m is indistinguishable from the validated matrix on its entries,
    and its slot, once read, holds the closure computed anew."""
    checked = ExponentMatrix([list(row) for row in m.entries])
    assert type(m.entries) is tuple and all(type(row) is tuple for row in m.entries)
    assert all(type(x) is int for row in m.entries for x in row)
    assert m == checked and hash(m) == hash(checked) and repr(m) == repr(checked)
    assert m.n == checked.n
    assert m._closure in (None, _fresh(m))
    has_containing_maximal(m)
    assert m._closure == _fresh(m)


def test_trusted_producers_leave_a_correct_slot():
    rng = random.Random(8)
    for nu in _random_matrices(31, 120):
        if has_containing_maximal(nu):
            hull = order_hull(nu)
            assert hull._closure is hull.entries
            _assert_trusted(hull)
        family = [
            ApartmentVertex([rng.randint(-4, 4) for _ in range(nu.n)])
            for _ in range(rng.randint(1, 5))
        ]
        _assert_trusted(intersect_maximal(family))
        _assert_trusted(maximal_order_exponents(family[0]))
        _assert_trusted(random_exponent_matrix(rng, nu.n, -3, 5))


def test_only_exponent_computes_or_keeps_a_closure():
    """No module but ``exponent`` names ``minplus_closure``, touches a
    ``_closure`` slot or hands ``_cached_closure`` more than the matrix;
    the package ``__init__`` and ``polytope`` only import ``minplus_closure``
    to re-export it."""
    assert list(inspect.signature(exponent._cached_closure).parameters) == ["nu"]
    for path in sorted(Path(exponent.__file__).parent.glob("*.py")):
        if path.stem == "exponent":
            continue
        tree = ast.parse(path.read_text(), str(path))
        nodes = list(ast.walk(tree))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        attrs = {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        imported = {
            alias.name for node in nodes if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        strings = {
            node.value for node in nodes
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
        }
        assert "minplus_closure" not in names | attrs, path.name
        # the package and polytope re-export the name; neither reads it
        if path.stem not in ("__init__", "polytope"):
            assert "minplus_closure" not in imported, path.name
        assert "_closure" not in attrs | strings, path.name
        for node in nodes:
            if isinstance(node, ast.Call) and "_cached_closure" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                assert len(node.args) == 1 and not node.keywords, (path.name, node.lineno)


# ---------------------------------------------------------------------------
# referees that never read the slot


def _assert_tropical_generators(nu):
    """Columns of the closure are points of the region that intersect to the hull.

    Column j of the closure c, shifted to x_0 = 0, is the point
    x_k = c[k][j] - c[0][j].  These are the tropical generators of the
    region (Develin and Sturmfels, "Tropical convexity", 2004): each lies
    in the region, and their maximal orders intersect to the hull.
    """
    c = minplus_closure(nu.entries)
    n = nu.n
    columns = [[c[k][j] - c[0][j] for k in range(n)] for j in range(n)]
    assert all(contains(nu, x) for x in columns)
    assert intersect_maximal([ApartmentVertex(x) for x in columns]) == order_hull(nu)


def _feasible_matrices(seed, count):
    """Random feasible matrices at n = 2..6: m_i - m_j plus a slack in [0, 4],
    so the region holds the vertex m and its bounds are rarely attained."""
    rng = random.Random(seed)
    for t in range(count):
        n = 2 + t % 5
        m = [rng.randint(-4, 4) for _ in range(n)]
        yield ExponentMatrix(
            [[0 if i == j else m[i] - m[j] + rng.randint(0, 4) for j in range(n)]
             for i in range(n)]
        )


def test_closure_columns_generate_the_hull():
    reduced = 0
    for nu in _feasible_matrices(47, 500):
        _assert_tropical_generators(nu)
        reduced += is_reduced(nu)
    assert reduced < 250


def _assert_readers_match_oracles(nu):
    expected = simple_path_closure(nu.entries)
    assert has_containing_maximal(nu) == (expected is not None)
    if expected is None:
        return
    assert [list(row) for row in order_hull(nu).entries] == expected
    assert is_reduced(nu) == is_order(nu)
    points = naive_box_points(nu.entries)
    for i in range(nu.n):
        for j in range(nu.n):
            assert max_difference(nu, i, j) == brute_max_difference(points, i, j)


def test_closure_readers_match_the_oracles():
    for nu in _random_matrices(53, 200, dims=(2, 3, 4)):
        _assert_readers_match_oracles(nu)


@pytest.fixture
def off_by_one_fill(monkeypatch):
    """Every slot filled with a closure one too large in entry (0, 1)."""
    real = exponent._cached_closure

    def mutant(nu):
        closed = nu._closure
        if closed is None:
            closed = real(nu)
            if closed:
                bumped = [list(row) for row in closed]
                bumped[0][1] += 1
                closed = tuple(map(tuple, bumped))
                ExponentMatrix._closure.__set__(nu, closed)
        return closed

    for module in READERS:
        monkeypatch.setattr(module, "_cached_closure", mutant)


@pytest.mark.parametrize(
    "name", ["hull-path-scan", "order-iff-reduced", "max-difference-enumeration"]
)
def test_an_off_by_one_fill_fails_the_fuzz_checks(off_by_one_fill, name):
    check = dict(CHECKS)[name]
    _, failure = check(random.Random(5), FuzzConfig(trials=30, seed=5))
    assert failure is not None


def test_an_off_by_one_fill_fails_the_referees(off_by_one_fill):
    with pytest.raises(AssertionError):
        for nu in _feasible_matrices(47, 500):
            _assert_tropical_generators(nu)
    with pytest.raises(AssertionError):
        for nu in _random_matrices(53, 200, dims=(2, 3, 4)):
            _assert_readers_match_oracles(nu)
