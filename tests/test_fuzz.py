import inspect
import json
import random

import pytest

from splitorders import fuzz
from splitorders.cli import main
from splitorders.correspondence import (
    ApartmentVertex,
    intersect_maximal,
    maximal_orders_containing,
)
from splitorders.dvr import hermite_normal_form, rational_valuation
from splitorders.errors import NotAnOrderError
from splitorders.exponent import ExponentMatrix, has_containing_maximal
from splitorders.fuzz import (
    CHECKS,
    FuzzConfig,
    box_scan_points,
    cycle_scan_feasible,
    minimize_failing_matrix,
    path_scan_hull,
    random_change_of_basis,
    random_exponent_matrix,
    random_triangular_form,
    random_unit_matrix,
    run_fuzz,
)
from splitorders.polytope import DEFAULT_POINT_LIMIT


def test_config_validation():
    with pytest.raises(ValueError):
        FuzzConfig(trials=0)
    with pytest.raises(ValueError):
        FuzzConfig(entry_min=3, entry_max=-3)
    with pytest.raises(ValueError):
        FuzzConfig(n_max=1)
    with pytest.raises(ValueError):
        FuzzConfig(n_max=7)


@pytest.mark.parametrize("n_max, widest", [(4, 49), (6, 7)])
def test_entry_range_stays_within_the_enumeration_guard(n_max, widest):
    """The widest region box, (2 max + 1)^(n - 1) cells, must fit the guard."""
    assert FuzzConfig(n_max=n_max, entry_max=widest).entry_max == widest
    cells = (2 * widest + 3) ** (n_max - 1)
    message = (
        f"entry range too wide: a region box at n = {n_max} can have {cells} cells, "
        f"more than {DEFAULT_POINT_LIMIT}"
    )
    with pytest.raises(ValueError) as info:
        FuzzConfig(n_max=n_max, entry_max=widest + 1)
    assert str(info.value) == message


def test_vertex_intersection_boxes_fit_the_guard(monkeypatch):
    """At every dimension the driver accepts, the vertex-intersection check
    draws coordinates from a range whose widest intersection, two vertices
    at opposite corners, has a box within the enumeration guard."""
    ranges = {}
    draw = fuzz.random_vertex

    def spy(rng, n, *args):
        bound = inspect.signature(draw).bind(rng, n, *args)
        bound.apply_defaults()
        ranges[n] = (bound.arguments["lo"], bound.arguments["hi"])
        return draw(rng, n, *args)

    monkeypatch.setattr(fuzz, "random_vertex", spy)
    check = dict(CHECKS)["vertex-intersection"]
    check(random.Random(0), FuzzConfig(n_max=fuzz.MAX_DIMENSION, trials=1))
    assert sorted(ranges) == list(range(2, fuzz.MAX_DIMENSION + 1))
    for n, (lo, hi) in ranges.items():
        corners = [ApartmentVertex([lo] + [hi] * (n - 1)), ApartmentVertex([hi] + [lo] * (n - 1))]
        members = {v.m for v in maximal_orders_containing(intersect_maximal(corners))}
        assert all(c.m in members for c in corners)


def test_small_run_passes_and_is_deterministic():
    config = FuzzConfig(trials=60, seed=9)
    first = run_fuzz(config)
    second = run_fuzz(config)
    assert first.ok
    assert first == second
    assert first.summary_lines() == second.summary_lines()


def test_different_seeds_draw_different_inputs():
    rng_a = random.Random(1)
    rng_b = random.Random(2)
    a = [random_exponent_matrix(rng_a, 3, -3, 5) for _ in range(8)]
    b = [random_exponent_matrix(rng_b, 3, -3, 5) for _ in range(8)]
    assert a != b


def test_check_names_unique_and_reported():
    names = [name for name, _ in CHECKS]
    assert len(names) == len(set(names))
    report = run_fuzz(FuzzConfig(trials=30, seed=3))
    assert [r.name for r in report.results] == names
    assert all(r.trials > 0 for r in report.results)


def test_generator_ranges():
    rng = random.Random(17)
    for _ in range(50):
        nu = random_exponent_matrix(rng, 4, -3, 5)
        for i in range(4):
            assert nu.entries[i][i] == 0
            for j in range(4):
                if i != j:
                    assert -3 <= nu.entries[i][j] <= 5


def test_unit_generator_lands_in_the_unit_group():
    rng = random.Random(19)
    for p in (2, 3, 5):
        for _ in range(25):
            U = random_unit_matrix(rng, 3, p)
            assert U.is_integral()
            assert rational_valuation(U.det(), p) == 0


def test_change_of_basis_is_invertible():
    rng = random.Random(23)
    for _ in range(25):
        g = random_change_of_basis(rng, 3, 2)
        assert g.det() != 0


def test_triangular_generator_is_canonical():
    rng = random.Random(29)
    for _ in range(40):
        H = random_triangular_form(rng, 3, 2)
        form, _ = hermite_normal_form(H)
        assert form.matrix == H


def test_referees_agree_with_library_on_a_known_case():
    nu = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])
    assert cycle_scan_feasible(nu.entries)
    assert path_scan_hull(nu.entries) == [[0, 0, 1], [3, 0, 1], [3, 2, 0]]
    assert len(box_scan_points(nu.entries)) == 13


def test_minimizer_shrinks_to_a_single_entry():
    start = ExponentMatrix([[0, 3, -5], [2, 0, 4], [1, -2, 0]])
    failing = lambda m: not has_containing_maximal(m)
    assert failing(start)
    small = minimize_failing_matrix(start, failing)
    assert failing(small)
    assert small == ExponentMatrix([[0, 0, -1], [0, 0, 0], [0, 0, 0]])


def test_minimizer_keeps_the_input_when_nothing_shrinks():
    start = ExponentMatrix([[0, -1], [0, 0]])
    failing = lambda m: not has_containing_maximal(m)
    assert minimize_failing_matrix(start, failing) == start


def test_minimizer_tries_each_matrix_once():
    """An entry of +-1 is tried at 0 only: its one step toward 0 is 0 again."""
    start = ExponentMatrix([[0, 1, -1], [1, 0, 1], [-1, 1, 0]])
    seen = []

    def failing(m):
        seen.append(m)
        return m.entries[0][1] == 1

    small = minimize_failing_matrix(start, failing)
    assert small == ExponentMatrix([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    assert len(seen) == len(set(seen)) == 7


def test_a_check_that_raises_reports_fail_and_the_run_goes_on(monkeypatch, capsys):
    """A SplitOrderError inside a trial is that check's failure, not an abort."""

    def body(rng, config, t):
        if t == 2:
            raise NotAnOrderError("exponent matrix must be reduced")
        return None

    monkeypatch.setattr(dict(fuzz.CHECKS)["membership-transport"], "trial", body)
    assert main(["fuzz", "--trials", "20", "--seed", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "seed: 3"
    summary = lines[1:18]
    assert [line.split()[1] for line in summary] == [name for name, _ in CHECKS]
    failed = [line for line in summary if line.startswith("FAIL")]
    assert failed == ["FAIL membership-transport (3 trials)"]
    assert lines[18] == "counterexamples:"
    assert json.loads("\n".join(lines[19:])) == [
        {
            "check": "membership-transport",
            "note": "raised NotAnOrderError: exponent matrix must be reduced",
            "trial": 2,
        }
    ]
