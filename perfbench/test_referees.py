"""Each referee accepts the package's real output and rejects a corrupted copy.

Run from the repository root:

    python3 -m pytest -q perfbench/test_referees.py
"""

import contextlib
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import referees as ref  # noqa: E402
import workloads as wl  # noqa: E402
from splitorders import cli  # noqa: E402
from splitorders.apartments import Apartment, divisor_invariance_check  # noqa: E402
from splitorders.dvr import (  # noqa: E402
    LocalMatrix,
    diagonal_witness,
    elementary_divisors,
    hermite_normal_form,
    ring_closure_check,
)
from splitorders.exponent import ExponentMatrix  # noqa: E402

NON_ORDER = [[0, 0, 2], [3, 0, 1], [3, 2, 0]]
ORDER = [[0, 0, 1], [3, 0, 1], [3, 2, 0]]
INFEASIBLE = [[0, -2], [1, 0]]


def run_cli(tmp_path, argv_tail, payload, extra=()):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main([argv_tail, str(path), *extra])
    return rc, out.getvalue(), err.getvalue()


def test_check_referee(tmp_path):
    for nu in (NON_ORDER, ORDER, INFEASIBLE):
        rc, out, err = run_cli(tmp_path, "check", {"nu": nu})
        assert ref.ref_check(nu, rc, out, err) is None
    rc, out, err = run_cli(tmp_path, "check", {"nu": NON_ORDER})
    assert ref.ref_check(NON_ORDER, 0, out, err)
    assert ref.ref_check(NON_ORDER, rc, out.replace("(1,3) via k=2", "(1,3) via k=1"), err)
    assert ref.ref_check(NON_ORDER, rc, out.replace("reduced: false", "reduced: true"), err)


def test_hull_referee(tmp_path):
    rc, out, err = run_cli(tmp_path, "hull", {"nu": NON_ORDER})
    assert ref.ref_hull(NON_ORDER, rc, out, err) is None
    assert ref.ref_hull(NON_ORDER, rc, out.replace("[0, 0, 1]", "[0, 0, 2]"), err)
    rc, out, err = run_cli(tmp_path, "hull", {"nu": INFEASIBLE})
    assert ref.ref_hull(INFEASIBLE, rc, out, err) is None
    assert ref.ref_hull(INFEASIBLE, 0, out, err)


def test_vertices_referee(tmp_path):
    rc, out, err = run_cli(tmp_path, "vertices", {"nu": ORDER})
    assert ref.ref_vertices(ORDER, rc, out, err) is None
    points = json.loads(out)
    dropped = json.dumps(points[1:])
    assert ref.ref_vertices(ORDER, rc, dropped, f"{len(points) - 1} lattice points\n")
    swapped = json.dumps([points[1], points[0]] + points[2:])
    assert ref.ref_vertices(ORDER, rc, swapped, err)
    outside = json.dumps(points[:-1] + [[0, 9, 9]])
    assert ref.ref_vertices(ORDER, rc, outside, err)
    assert ref.ref_vertices(ORDER, rc, out, "12 lattice points\n")


def test_roundtrip_referee(tmp_path):
    rc, out, err = run_cli(tmp_path, "roundtrip", {"nu": NON_ORDER})
    assert ref.ref_roundtrip(NON_ORDER, rc, out, err) is None
    report = json.loads(out)
    for key, value in (("hull_fixed", False), ("input_reduced", True),
                       ("vertices", report["vertices"][:-1])):
        bad = dict(report, **{key: value})
        assert ref.ref_roundtrip(NON_ORDER, rc, json.dumps(bad, indent=2) + "\n", err)
    rc, out, err = run_cli(tmp_path, "roundtrip", {"nu": INFEASIBLE})
    assert ref.ref_roundtrip(INFEASIBLE, rc, out, err) is None
    assert ref.ref_roundtrip(INFEASIBLE, 0, out, err)


def test_intersect_referee(tmp_path):
    family = [[0, 0, -1], [0, 3, 2], [0, 1, 3]]
    rc, out, err = run_cli(tmp_path, "intersect", family)
    assert ref.ref_intersect(family, rc, out, err) is None
    assert ref.ref_intersect(family, rc, out.replace("[3, 2, 0]", "[3, 1, 0]"), err)


def test_hijikata_referee(tmp_path):
    nu = [[0, 2], [1, 0]]
    rc, out, err = run_cli(tmp_path, "hijikata", {"nu": nu})
    assert ref.ref_hijikata(nu, rc, out, err) is None
    assert ref.ref_hijikata(nu, rc, "4\n", err)
    rc, out, err = run_cli(tmp_path, "hijikata", {"nu": INFEASIBLE})
    assert ref.ref_hijikata(INFEASIBLE, rc, out, err) is None
    assert ref.ref_hijikata(INFEASIBLE, 0, out, err)


def test_draw_referee(tmp_path):
    svg_path = str(tmp_path / "out.svg")
    rc, out, err = run_cli(tmp_path, "draw", {"nu": NON_ORDER}, ("--out", svg_path))
    svg = Path(svg_path).read_text()
    assert ref.ref_draw(NON_ORDER, rc, out, err, svg_path, svg) is None
    dot = svg.index('<circle id="pt_')
    missing_dot = svg[:dot] + svg[svg.index("/>", dot) + 2:]
    assert ref.ref_draw(NON_ORDER, rc, out, err, svg_path, missing_dot)
    undashed = svg.replace(' stroke-dasharray="6 4"', "", 1)
    assert ref.ref_draw(NON_ORDER, rc, out, err, svg_path, undashed)


def _fr(m):
    return [list(row) for row in m.fractions()]


def _arith_case(kind):
    ops, _ = wl.build_local_arith(7)
    return next(op for op in ops if op.kind == kind and op.n == 3)


def test_membership_referee():
    op = _arith_case("membership")
    c, p = op.case, op.prime
    from splitorders.apartments import general_membership, intersect_in_apartment
    from splitorders.correspondence import ApartmentVertex
    order = intersect_in_apartment(Apartment(LocalMatrix(c["gamma"], p)),
                                   [ApartmentVertex(v) for v in c["family"]])
    verdicts = tuple(general_membership(order, LocalMatrix(a, p)) for a in c["elements"])
    assert ref.ref_membership(c, verdicts) is None
    flipped = (not verdicts[0],) + verdicts[1:]
    assert ref.ref_membership(c, flipped)


def test_hermite_referee():
    ops, _ = wl.build_local_arith(7)
    op = next(o for o in ops if o.kind == "hermite" and o.n == 3
              and any(o.case["canonical"][i][j] for i in range(3) for j in range(i + 1, 3)))
    c, p = op.case, op.prime
    form, transform = hermite_normal_form(LocalMatrix(c["product"], p))
    witness = diagonal_witness(form)
    bits = tuple(int(witness.entry(k, k)) for k in range(3))
    good = (_fr(form.matrix), tuple(form.exponents), _fr(transform), bits)
    assert ref.ref_hermite(c, good) is None
    bad_form = [row[:] for row in good[0]]
    bad_form[0][1] += 1
    assert ref.ref_hermite(c, (bad_form,) + good[1:])
    bad_transform = [row[:] for row in good[2]]
    bad_transform[0][0] += 1
    assert ref.ref_hermite(c, good[:2] + (bad_transform, bits))
    assert ref.ref_hermite(c, good[:3] + (None,))


def test_divisors_referee():
    c = _arith_case("divisors").case
    p = c["prime"]
    lm = {k: LocalMatrix(c[k], p) for k in ("gamma", "L", "Lp", "gL", "gLp")}
    result = (elementary_divisors(lm["gL"], lm["gLp"]),
              divisor_invariance_check(lm["gamma"], lm["L"], lm["Lp"]))
    assert ref.ref_divisors(c, result) is None
    shifted = tuple(e + 1 for e in result[0])
    assert ref.ref_divisors(c, (shifted, True))
    assert ref.ref_divisors(c, (result[0], False))


def test_ring_referee():
    p = 3
    order_case = {"nu": ORDER, "prime": p}
    assert ref.ref_ring(order_case, ring_closure_check(ExponentMatrix(ORDER), 50, 1, p)) is None
    a = LocalMatrix([[1, 0, 0], [0, 0, 0], [0, 0, 0]], p)
    assert ref.ref_ring(order_case, (_fr(a), _fr(a)))
    case = {"nu": NON_ORDER, "prime": p}
    witness = ring_closure_check(ExponentMatrix(NON_ORDER), 50, 1, p)
    good = (_fr(witness[0]), _fr(witness[1]))
    assert ref.ref_ring(case, good) is None
    assert ref.ref_ring(case, True)
    assert ref.ref_ring(case, (_fr(a), _fr(a)))


def test_chain_referee():
    c = _arith_case("chain").case
    p = c["prime"]
    ap = Apartment(LocalMatrix(c["gamma"], p))
    a = LocalMatrix(c["start"], p)
    for _ in range(3):
        a = ap.to_standard(ap.from_standard(a))
    assert ref.ref_chain(c, _fr(a)) is None
    bad = _fr(a)
    bad[1][1] += Fraction(1, p)
    assert ref.ref_chain(c, bad)


def test_fuzz_referee():
    good = [(name, 10, True) for name in wl.FUZZ_CHECKS]
    assert ref.ref_fuzz(wl.FUZZ_CHECKS, good) is None
    failing = good[:3] + [(good[3][0], 10, False)] + good[4:]
    assert ref.ref_fuzz(wl.FUZZ_CHECKS, failing)
    assert ref.ref_fuzz(wl.FUZZ_CHECKS, good[:-1])


def test_generators_repeat_for_a_seed(tmp_path):
    first, _ = wl.build_cli_small(5, str(tmp_path))
    again, _ = wl.build_cli_small(5, str(tmp_path))
    other, _ = wl.build_cli_small(6, str(tmp_path))
    assert [(o.argv, o.subject) for o in first] == [(o.argv, o.subject) for o in again]
    assert [o.subject for o in first] != [o.subject for o in other]
    arith = wl.build_local_arith(5)[0]
    assert [o.case for o in arith] == [o.case for o in wl.build_local_arith(5)[0]]


def test_tracer_counts_and_restores():
    from tracing import Tracer
    from splitorders import correspondence, exponent, polytope

    original = exponent.minplus_closure
    tracer = Tracer()
    tracer.install()
    try:
        assert polytope.minplus_closure is not original
        polytope.is_reduced(ExponentMatrix(ORDER))
        correspondence.verify_roundtrip(ExponentMatrix(ORDER))
    finally:
        tracer.uninstall()
    assert polytope.minplus_closure is original and exponent.minplus_closure is original
    calls, self_s, total_s = tracer.stat("correspondence.verify_roundtrip")
    assert calls == 1 and 0 <= self_s <= total_s
    assert tracer.stat("polytope.is_reduced")[0] == 2
    assert tracer.points == 13
    spans = len(tracer.sp_name)
    assert all(tracer.sp_end[i] >= tracer.sp_start[i] for i in range(spans))


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
