"""Golden failure reports of every fuzz check under injected faults.

Passing runs never build a failure report or call the shrinker, so each
case here monkeypatches one production function (at its binding in
``splitorders.fuzz`` or in the module that owns it) to misbehave, runs one
check through ``fuzz.CHECKS`` and compares the failure dict with the
golden copy in ``tests/golden/fuzz_failures.json``, key order included.
Every check has at least one case, and the five shrinking checks have one
case per failure note they can report.

The trial-count tests make a fault fire at trial k and require the
report to count k trials.
"""

import json
import random
from pathlib import Path

import pytest

from splitorders import apartments, correspondence, dvr, exponent, fuzz, polytope
from splitorders.dvr import LocalMatrix, LocalScalar
from splitorders.exponent import ExponentMatrix

GOLDEN = Path(__file__).parent / "golden" / "fuzz_failures.json"


def _run(name, seed=1, **config):
    check = dict(fuzz.CHECKS)[name]
    return check(random.Random(seed), fuzz.FuzzConfig(seed=seed, **config))


def _bump(matrix, i, j):
    """Exponent matrix with entry (i, j) raised by one."""
    entries = [list(row) for row in matrix.entries]
    entries[i][j] += 1
    return ExponentMatrix(entries)


# ---------------------------------------------------------------------------
# faults: each takes monkeypatch and installs one misbehaving function


def accept_diagonal(mp):
    mp.setattr(fuzz, "ExponentMatrix", lambda entries: entries)


def feasible_minus_one_cycle(mp):
    real = exponent.has_containing_maximal
    mp.setattr(
        fuzz,
        "has_containing_maximal",
        lambda m: real(m) or m.entries[0][1] + m.entries[1][0] == -1,
    )


def hull_corner_off_by_one(mp):
    real = exponent.order_hull
    mp.setattr(
        fuzz, "order_hull", lambda m: _bump(real(m), 0, m.n - 1) if m.n >= 3 else real(m)
    )


def hull_too_tight(mp):
    # for a non-order, a strictly smaller feasible hull: still an
    # idempotent dominated order, but with fewer integer points
    real = exponent.order_hull
    feasible = exponent.has_containing_maximal

    def fault(m):
        hull = real(m)
        if hull == m:
            return hull
        entries = [list(row) for row in hull.entries]
        entries[0][1] -= 1
        tighter = ExponentMatrix(entries)
        return real(tighter) if feasible(tighter) else hull

    mp.setattr(fuzz, "order_hull", fault)


def infeasible_large_corner(mp):
    real = exponent.has_containing_maximal
    mp.setattr(fuzz, "has_containing_maximal", lambda m: real(m) and m.entries[0][1] < 4)


def hull_is_input(mp):
    mp.setattr(fuzz, "order_hull", lambda m: m)


def reduced_when_entry_is_five(mp):
    real = polytope.is_reduced
    mp.setattr(fuzz, "is_reduced", lambda m: real(m) or m.entries[1][0] == 5)


def max_difference_off_by_one(mp):
    real = polytope.max_difference
    mp.setattr(fuzz, "max_difference", lambda nu, i, j: real(nu, i, j) + ((i, j) == (1, 0)))


def enumerate_nothing(mp):
    mp.setattr(fuzz, "enumerate_lattice_points", lambda nu: [])


def _intersection_off_by_one(real):
    def fault(vertices):
        exact = real(vertices)
        return _bump(exact, 1, 2) if len(vertices) > 1 and exact.n >= 3 else exact

    return fault


def check_intersection_off_by_one(mp):
    mp.setattr(fuzz, "intersect_maximal", _intersection_off_by_one(correspondence.intersect_maximal))


def roundtrip_intersection_off_by_one(mp):
    mp.setattr(
        correspondence,
        "intersect_maximal",
        _intersection_off_by_one(correspondence.intersect_maximal),
    )


def drop_last_vertex(mp):
    real = correspondence.maximal_orders_containing
    mp.setattr(fuzz, "maximal_orders_containing", lambda mu: real(mu)[:-1] or real(mu))


def level_off_by_one(mp):
    real = exponent.hijikata_normal_form
    mp.setattr(fuzz, "hijikata_normal_form", lambda nu: real(nu) + (nu.entries[0][1] == 2))


def order_at_minus_one(mp):
    real = exponent.is_order
    mp.setattr(fuzz, "is_order", lambda nu: real(nu) or sum(map(sum, nu.entries)) == -1)


def level_always_zero(mp):
    mp.setattr(fuzz, "hijikata_normal_form", lambda nu: 0)


def negative_valuation_plus_one(mp):
    real = LocalScalar.valuation
    mp.setattr(LocalScalar, "valuation", lambda self: real(self) + (self.value < 0))


def sum_divided_by_p(mp):
    mp.setattr(
        LocalScalar,
        "__add__",
        lambda self, other: LocalScalar((self.value + other.value) / self.prime, self.prime),
    )


def reject_high_vertices(mp):
    real = dvr.lambda_membership
    mp.setattr(fuzz, "lambda_membership", lambda A, v: real(A, v) and max(v.m) < 3)


def unit_transform_valuation(mp):
    real = dvr.rational_valuation
    mp.setattr(fuzz, "rational_valuation", lambda x, p: real(x, p) + 1)


def hermite_scales_by_p(mp):
    real = dvr.hermite_normal_form
    mp.setattr(fuzz, "hermite_normal_form", lambda M: real(M.scale(M.prime)))


def identity_witness(mp):
    mp.setattr(fuzz, "diagonal_witness", lambda form: _identity_witness(None, form))


def always_closed(mp):
    mp.setattr(fuzz, "ring_closure_check", lambda nu, trials, seed, prime: True)


def identity_escape(mp):
    real = dvr.ring_closure_check

    def fault(nu, trials, seed, prime):
        result = real(nu, trials=trials, seed=seed, prime=prime)
        if result is True:
            return result
        unit = LocalMatrix.identity(nu.n, prime)
        return unit, unit

    mp.setattr(fuzz, "ring_closure_check", fault)


def every_vertex_admits(mp):
    mp.setattr(fuzz, "lambda_membership", lambda A, v: True)


def reversed_divisors(mp):
    real = dvr.elementary_divisors
    mp.setattr(fuzz, "elementary_divisors", lambda L, Lp: tuple(reversed(real(L, Lp))))


def transport_never_invariant(mp):
    mp.setattr(fuzz, "divisor_invariance_check", lambda gamma, L, Lp: False)


def negated_incidence(mp):
    real = apartments.incident
    mp.setattr(fuzz, "incident", lambda u, v: not real(u, v))


# (check name, fault, config); a case's id in the golden file is
# "<check name>:<fault name>"
CASES = [
    ("reject-nonzero-diagonal", accept_diagonal, {}),
    ("feasibility-cycle-scan", feasible_minus_one_cycle, {"trials": 300}),
    ("hull-path-scan", hull_corner_off_by_one, {"trials": 300}),
    # this case and the first roundtrip case fail in the last branch of
    # their predicates, so each shrink step must pass every earlier branch
    ("hull-properties", hull_too_tight, {"trials": 300}),
    ("hull-properties", infeasible_large_corner, {"trials": 300}),
    ("hull-properties", hull_is_input, {"trials": 300}),
    ("order-iff-reduced", reduced_when_entry_is_five, {"trials": 300}),
    ("max-difference-enumeration", max_difference_off_by_one, {"trials": 300}),
    ("max-difference-enumeration", enumerate_nothing, {"trials": 300}),
    ("roundtrip-reduced", check_intersection_off_by_one, {"trials": 300}),
    ("roundtrip-reduced", roundtrip_intersection_off_by_one, {"trials": 300}),
    ("vertex-intersection", drop_last_vertex, {"trials": 300}),
    ("hijikata-exhaustive", level_off_by_one, {}),
    ("hijikata-exhaustive", order_at_minus_one, {}),
    ("hijikata-exhaustive", level_always_zero, {}),
    ("valuation-axioms", negative_valuation_plus_one, {}),
    ("valuation-axioms", sum_divided_by_p, {}),
    ("integral-conjugation", reject_high_vertices, {}),
    ("triangular-form", unit_transform_valuation, {}),
    ("triangular-form", hermite_scales_by_p, {}),
    ("diagonal-witness", identity_witness, {}),
    ("ring-closure", always_closed, {}),
    ("ring-closure", identity_escape, {}),
    ("membership-transport", every_vertex_admits, {"prime": 3}),
    ("divisor-invariance", reversed_divisors, {}),
    ("divisor-invariance", transport_never_invariant, {}),
    ("incidence-transport", negated_incidence, {}),
]


def _case_id(case):
    return f"{case[0]}:{case[1].__name__}"


def test_every_check_has_a_case():
    assert {name for name, _, _ in CASES} == {name for name, _ in fuzz.CHECKS}


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_failure_report_matches_golden(monkeypatch, case):
    name, fault, config = case
    golden = json.loads(GOLDEN.read_text())[_case_id(case)]
    fault(monkeypatch)
    _, failure = _run(name, **config)
    assert failure is not None
    assert failure["check"] == name
    assert json.dumps(failure) == json.dumps(golden)


# ---------------------------------------------------------------------------
# trial counts


def _fire_on_call(mp, owner, attr, k, per_trial, faulty):
    """Replace owner.attr by a counter that calls ``faulty`` on trial k."""
    real = getattr(owner, attr)
    calls = [0]

    def wrapper(*args, **kwargs):
        calls[0] += 1
        if (calls[0] - 1) // per_trial + 1 == k:
            return faulty(real, *args, **kwargs)
        return real(*args, **kwargs)

    mp.setattr(owner, attr, wrapper)


def _accept(real, entries):
    return entries


def _negate(real, *args, **kwargs):
    return not real(*args, **kwargs)


def _reject(real, *args):
    return False


def _valuation_plus_one(real, scalar):
    return real(scalar) + 1


def _no_divisors(real, *args):
    return ()


def _wrong_form(real, M):
    return real(M.scale(M.prime))


def _identity_witness(real, form):
    return LocalMatrix.identity(form.matrix.n, form.matrix.prime)


# (check, module holding the binding, attribute, calls per trial, fault)
FIRE_AT = [
    ("reject-nonzero-diagonal", fuzz, "ExponentMatrix", 1, _accept),
    ("order-iff-reduced", fuzz, "is_reduced", 1, _negate),
    ("hijikata-exhaustive", fuzz, "is_order", 1, _negate),
    ("valuation-axioms", LocalScalar, "valuation", 4, _valuation_plus_one),
    ("integral-conjugation", fuzz, "lambda_membership", 1, _reject),
    ("triangular-form", fuzz, "hermite_normal_form", 2, _wrong_form),
    ("diagonal-witness", fuzz, "diagonal_witness", 1, _identity_witness),
    ("ring-closure", fuzz, "is_order", 1, _negate),
    ("membership-transport", fuzz, "general_membership", 22, _negate),
    ("divisor-invariance", fuzz, "elementary_divisors", 1, _no_divisors),
    # no two equal vertices are drawn in the first seven trials at seed 1
    ("incidence-transport", fuzz, "incident", 1, _negate),
]


@pytest.mark.parametrize(
    "name, owner, attr, per_trial, faulty", FIRE_AT, ids=[c[0] for c in FIRE_AT]
)
@pytest.mark.parametrize("k", [1, 7])
def test_failure_at_trial_k_reports_k_trials(
    monkeypatch, name, owner, attr, per_trial, faulty, k
):
    assert _run(name, trials=40)[1] is None
    _fire_on_call(monkeypatch, owner, attr, k, per_trial, faulty)
    trials, failure = _run(name, trials=40)
    assert failure is not None
    assert trials == k


def test_hijikata_grid_respects_the_trial_budget():
    trials, failure = _run(
        "hijikata-exhaustive", trials=5, n_max=2, entry_min=-300, entry_max=300
    )
    assert (trials, failure) == (5, None)
    assert _run("hijikata-exhaustive", trials=10**4) == (81, None)
    assert _run("hijikata-exhaustive", trials=80) == (80, None)


def test_hijikata_grid_walks_rows_in_order(monkeypatch):
    seen = []
    real = exponent.is_order

    def spy(nu):
        seen.append((nu.entries[0][1], nu.entries[1][0]))
        return real(nu)

    monkeypatch.setattr(fuzz, "is_order", spy)
    _run("hijikata-exhaustive", trials=12, entry_min=-2, entry_max=2)
    assert seen == [(a, b) for a in range(-2, 3) for b in range(-2, 3)][:12]
