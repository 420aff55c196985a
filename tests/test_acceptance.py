"""Acceptance suite: eight desk-scale criteria, all exact.

Each test prints one ``criterion N: PASS`` line through the terminal
summary (see conftest).  Scale: n <= 4, exponents in [-3, 5], primes
{2, 3, 5}.
"""

import itertools
import json
import random

from splitorders.apartments import (
    Apartment,
    divisor_invariance_check,
    general_membership,
    intersect_in_apartment,
    lattice_basis,
)
from splitorders.cli import main
from splitorders.correspondence import (
    ApartmentVertex,
    intersect_maximal,
    maximal_order_exponents,
    verify_roundtrip,
)
from splitorders.dvr import (
    LocalMatrix,
    diagonal_witness,
    hermite_normal_form,
    in_split_order,
    lambda_membership,
    ring_closure_check,
    sample_split_order_element,
)
from splitorders.exponent import (
    ExponentMatrix,
    first_violation,
    hijikata_normal_form,
    is_order,
    order_hull,
)
from splitorders.fuzz import (
    random_change_of_basis,
    random_exponent_matrix,
    random_local_matrix,
    random_triangular_form,
    random_unit_matrix,
    random_vertex,
)
from splitorders.polytope import (
    difference_range,
    enumerate_lattice_points,
    is_reduced,
)

from conftest import record_criterion

NU = ExponentMatrix([[0, 0, 1], [3, 0, 1], [3, 2, 0]])
NU_PRIME = ExponentMatrix([[0, 0, 2], [3, 0, 1], [3, 2, 0]])


def test_criterion_1_worked_example_check(tmp_path, capsys):
    """cmd_check on the worked example and its non-order variant."""
    nu_path = tmp_path / "nu.json"
    nu_path.write_text(json.dumps(NU.to_json_dict()))
    variant_path = tmp_path / "nu_prime.json"
    variant_path.write_text(json.dumps(NU_PRIME.to_json_dict()))

    assert main(["check", str(nu_path)]) == 0
    out = capsys.readouterr().out
    assert "order: true" in out and "reduced: true" in out

    assert main(["check", str(variant_path)]) == 1
    out = capsys.readouterr().out
    assert "order: false" in out
    # the violated triple (i, k, j) = (1, 2, 3) in 1-based labels
    assert first_violation(NU_PRIME) == (0, 1, 2)
    assert "violated: (1,3) via k=2" in out
    assert order_hull(NU_PRIME) == NU
    assert json.loads(out.split("hull: ", 1)[1]) == NU.to_json_dict()
    record_criterion("criterion 1: PASS (check verdicts, triple (1,2,3), hull)")


def test_criterion_2_polytope_match():
    """Eq-(1) bounds, identical point sets, five named vertices."""
    assert difference_range(NU, 1, 0) == (0, 3)
    assert difference_range(NU, 2, 0) == (-1, 3)
    assert difference_range(NU, 2, 1) == (-1, 2)

    ours = [p.m for p in enumerate_lattice_points(NU)]
    theirs = [p.m for p in enumerate_lattice_points(NU_PRIME)]
    assert ours == theirs
    assert len(ours) == 13
    named = [(0, 0, -1), (0, 3, 2), (0, 3, 3), (0, 1, 3), (0, 0, 2)]
    assert all(v in ours for v in named)
    record_criterion("criterion 2: PASS (bounds, 13 shared points, named vertices)")


def test_criterion_3_intersection_displays():
    """The three displayed vertex subsets each cut out the example order."""
    subsets = [
        [(0, 0, -1), (0, 3, 2), (0, 1, 3)],
        [(0, 0, -1), (0, 3, 2), (0, 3, 3), (0, 1, 3)],
        [(0, 0, -1), (0, 3, 2), (0, 1, 3), (0, 0, 2)],
    ]
    for coords in subsets:
        assert intersect_maximal([ApartmentVertex(c) for c in coords]) == NU

    displays = {
        (0, 0, -1): ((0, 0, 1), (0, 0, 1), (-1, -1, 0)),
        (0, 3, 2): ((0, -3, -2), (3, 0, 1), (2, -1, 0)),
        (0, 1, 3): ((0, -1, -3), (1, 0, -2), (3, 2, 0)),
    }
    for coords, expected in displays.items():
        assert maximal_order_exponents(ApartmentVertex(coords)).entries == expected
    record_criterion("criterion 3: PASS (3 subsets -> nu, 3 matrix displays)")


def test_criterion_4_bijection_theorem():
    """order <-> reduced on 10^4 draws per n, and exact reduced round trips."""
    rng = random.Random(202401)
    reduced_seen = 0
    for n in (2, 3, 4):
        for _ in range(10000):
            nu = random_exponent_matrix(rng, n, -3, 5)
            order = is_order(nu)
            assert order == is_reduced(nu)
            if order:
                reduced = order_hull(nu)
                assert reduced == nu
                report = verify_roundtrip(nu)
                assert report.ok and report.input_reduced
                assert intersect_maximal(list(report.vertices)) == nu
                reduced_seen += 1
    assert reduced_seen > 1000
    record_criterion(
        f"criterion 4: PASS (3x10^4 draws, {reduced_seen} exact round trips)"
    )


def test_criterion_5_general_split_orders():
    """Transported membership and divisor invariance at n = 3, p = 2."""
    rng = random.Random(202405)
    p = 2
    for trial in range(1000):
        gamma = random_change_of_basis(rng, 3, p)
        ap = Apartment(gamma)
        family = [random_vertex(rng, 3, -3, 3) for _ in range(rng.randint(1, 4))]
        S = intersect_in_apartment(ap, family)
        for k in range(100):
            if k % 2 == 0:
                A = random_local_matrix(rng, 3, p)
            else:
                A = ap.from_standard(sample_split_order_element(S.nu, rng, p))
            pulled = ap.to_standard(A)
            direct = general_membership(S, A)
            assert direct == all(lambda_membership(pulled, v) for v in family)
            if k % 2 == 1:
                assert direct
        u, v = random_vertex(rng, 3, -3, 3), random_vertex(rng, 3, -3, 3)
        assert divisor_invariance_check(gamma, lattice_basis(u, p), lattice_basis(v, p))
    record_criterion("criterion 5: PASS (10^3 pairs x 100 matrices, divisors stable)")


def test_criterion_6_maximal_order_characterization():
    """Triangular forms either normalize the torus or expose a witness."""
    rng = random.Random(202406)
    non_diagonal = 0
    while non_diagonal < 500:
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 3)
        form, _ = hermite_normal_form(random_triangular_form(rng, n, p))
        xi = form.matrix
        xi_inv = xi.inverse()
        if form.is_diagonal():
            for bits in itertools.product((0, 1), repeat=n):
                D = LocalMatrix.diagonal(bits, p)
                assert (xi @ D @ xi_inv).is_integral()
            continue
        non_diagonal += 1
        D = diagonal_witness(form)
        assert not (xi @ D @ xi_inv).is_integral()
        for _ in range(100):
            U = random_unit_matrix(rng, n, p, steps=2)
            again, transform = hermite_normal_form(U @ xi)
            assert again.matrix == xi
            assert transform @ (U @ xi) == xi
    record_criterion("criterion 6: PASS (500 witnesses, 100 unit mults each)")


def test_criterion_7_hijikata_specialization():
    """Exhaustive 2 x 2 sweep: levels, geodesics, two-endpoint intersections."""
    for a in range(-3, 6):
        for b in range(-3, 6):
            nu = ExponentMatrix([[0, a], [b, 0]])
            if a + b < 0:
                assert not is_order(nu)
                continue
            assert is_order(nu)
            level = hijikata_normal_form(nu)
            assert level == a + b
            points = [p.m for p in enumerate_lattice_points(nu)]
            assert points == [(0, x) for x in range(-a, b + 1)]
            assert len(points) == level + 1
            endpoints = [ApartmentVertex([0, -a]), ApartmentVertex([0, b])]
            assert intersect_maximal(endpoints) == nu
    record_criterion("criterion 7: PASS (81 cases, geodesics and levels exact)")


def test_criterion_8_ring_closure_bridge():
    """Sampled products stay inside orders; witnesses escape non-orders."""
    rng = random.Random(202408)
    orders = 0
    for trial in range(200):
        p = (2, 3, 5)[trial % 3]
        n = rng.randint(2, 4)
        nu = random_exponent_matrix(rng, n, -3, 5)
        result = ring_closure_check(nu, trials=1000, seed=trial, prime=p)
        if is_order(nu):
            orders += 1
            assert result is True
        else:
            A, B = result
            assert in_split_order(A, nu)
            assert in_split_order(B, nu)
            assert not in_split_order(A @ B, nu)
    assert orders >= 20
    record_criterion(
        f"criterion 8: PASS ({orders} orders x 10^3 products, witnesses escape)"
    )
