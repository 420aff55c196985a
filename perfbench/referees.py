"""Independent referees for every benchmark op.

Nothing here imports the package under test.  Exponent matrices are
plain lists of integer rows, matrices over Q are lists of Fraction rows,
and every check is re-derived from the definitions: simple-path and
simple-cycle scans for closures, a closed-bound count for lattice
points, Gauss-Jordan elimination over Fraction for inverses.  A referee
returns None when the output is right and a one-line reason when it is
wrong.
"""

from __future__ import annotations

import itertools
import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from typing import Optional, Sequence

# ---------------------------------------------------------------------------
# exponent matrices and their regions


def has_negative_cycle(entries: Sequence[Sequence[int]]) -> bool:
    """Whether some directed simple cycle has negative weight (exhaustive)."""
    n = len(entries)
    for size in range(2, n + 1):
        for nodes in itertools.combinations(range(n), size):
            head = nodes[0]
            for tail in itertools.permutations(nodes[1:]):
                cycle = (head,) + tail + (head,)
                if sum(entries[a][b] for a, b in zip(cycle, cycle[1:])) < 0:
                    return True
    return False


def closure(entries: Sequence[Sequence[int]]) -> Optional[list[list[int]]]:
    """Least weight over simple paths for every pair, or None on a negative cycle."""
    if has_negative_cycle(entries):
        return None
    n = len(entries)
    out = [list(row) for row in entries]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            middle = [k for k in range(n) if k not in (i, j)]
            for size in range(1, len(middle) + 1):
                for mids in itertools.permutations(middle, size):
                    chain = (i,) + mids + (j,)
                    w = sum(entries[a][b] for a, b in zip(chain, chain[1:]))
                    if w < out[i][j]:
                        out[i][j] = w
    return out


def is_order(entries: Sequence[Sequence[int]]) -> bool:
    n = len(entries)
    return all(
        entries[i][k] + entries[k][j] >= entries[i][j]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def first_violation(entries: Sequence[Sequence[int]]) -> Optional[tuple[int, int, int]]:
    """First (i, k, j) in the scan order i, then j, then k that breaks the criterion."""
    n = len(entries)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if entries[i][k] + entries[k][j] < entries[i][j]:
                    return (i, k, j)
    return None


def _ranges(closed, prefix):
    """Exact range of the next coordinate given the fixed prefix (closed bounds)."""
    idx = len(prefix)
    lo = max(prefix[i] - closed[i][idx] for i in range(idx))
    hi = min(prefix[i] + closed[idx][i] for i in range(idx))
    return lo, hi


def count_points(entries: Sequence[Sequence[int]]) -> int:
    """Number of integer points of the region, without listing them.

    With closed bounds every consistent prefix extends, so the count is
    a sum of range lengths over the prefixes of all but the last
    coordinate.
    """
    closed = closure(entries)
    if closed is None:
        return 0
    n = len(closed)

    def walk(prefix: list[int]) -> int:
        lo, hi = _ranges(closed, prefix)
        if hi < lo:
            return 0
        if len(prefix) == n - 1:
            return hi - lo + 1
        total = 0
        for x in range(lo, hi + 1):
            prefix.append(x)
            total += walk(prefix)
            prefix.pop()
        return total

    return walk([0])


def list_points(entries: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Every integer point of the region in lexicographic order."""
    closed = closure(entries)
    if closed is None:
        return []
    n = len(closed)
    out = []

    def walk(prefix: list[int]) -> None:
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        lo, hi = _ranges(closed, prefix)
        for x in range(lo, hi + 1):
            prefix.append(x)
            walk(prefix)
            prefix.pop()

    walk([0])
    return out


def box_cells(entries: Sequence[Sequence[int]]) -> int:
    """Cells of the bounding box the package scans (coordinate 0 pinned)."""
    cells = 1
    for i in range(1, len(entries)):
        cells *= max(0, entries[i][0] + entries[0][i] + 1)
    return cells


def check_point_list(entries, points, expected=None) -> Optional[str]:
    """Points must be exactly the region's integer points in rising lexicographic order.

    ``expected`` may carry ``list_points(entries)`` computed earlier for
    the same region.
    """
    got = [tuple(x) for x in points]
    want = list_points(entries) if expected is None else expected
    if got == want:
        return None
    if len(got) != len(want):
        return f"{len(got)} points, region has {len(want)}"
    for x, y in zip(got, want):
        if x != y:
            return f"point {list(x)} where {list(y)} belongs"
    return "point list differs"


def entrywise_max(vertices: Sequence[Sequence[int]]) -> list[list[int]]:
    n = len(vertices[0])
    return [[max(v[i] - v[j] for v in vertices) for j in range(n)] for i in range(n)]


def _nu_json(entries) -> dict:
    return {"n": len(entries), "nu": [list(row) for row in entries]}


# ---------------------------------------------------------------------------
# CLI outputs: (exit code, stdout, stderr) against the input that produced them


def _expect(rc: int, want_rc: int) -> Optional[str]:
    return None if rc == want_rc else f"exit code {rc}, expected {want_rc}"


def _flag(b: bool) -> str:
    return "true" if b else "false"


def ref_check(nu, rc, out, err) -> Optional[str]:
    closed = closure(nu)
    order = is_order(nu)
    reduced = closed is not None and closed == [list(r) for r in nu]
    lines = [
        f"order: {_flag(order)}",
        f"reduced: {_flag(reduced)}",
        f"feasible: {_flag(closed is not None)}",
    ]
    if not order:
        i, k, j = first_violation(nu)
        lines.append(f"violated: ({i + 1},{j + 1}) via k={k + 1}")
        if closed is None:
            lines.append("hull: unavailable (negative cycle)")
        else:
            lines.append(f"hull: {json.dumps(_nu_json(closed))}")
    want = "\n".join(lines) + "\n"
    if out != want:
        return f"check printed {out!r}, expected {want!r}"
    return _expect(rc, 0 if order else 1)


def ref_hull(nu, rc, out, err) -> Optional[str]:
    closed = closure(nu)
    if closed is None:
        if out or not err.startswith("error:"):
            return "infeasible hull must print only an error line"
        return _expect(rc, 1)
    want = json.dumps(_nu_json(closed)) + "\n"
    if out != want:
        return f"hull printed {out[:80]!r}, expected {want[:80]!r}"
    return _expect(rc, 0)


def ref_vertices(nu, rc, out, err) -> Optional[str]:
    try:
        points = json.loads(out)
    except ValueError:
        return "vertices output is not JSON"
    bad = check_point_list(nu, points)
    if bad:
        return bad
    if err != f"{len(points)} lattice points\n":
        return f"vertices stderr {err!r}"
    return _expect(rc, 0)


def ref_roundtrip(nu, rc, out, err) -> Optional[str]:
    closed = closure(nu)
    if closed is None:
        if out or not err.startswith("error:"):
            return "infeasible roundtrip must print only an error line"
        return _expect(rc, 1)
    try:
        report = json.loads(out)
    except ValueError:
        return "roundtrip output is not JSON"
    if out != json.dumps(report, indent=2) + "\n":
        return "roundtrip output is not indented JSON"
    if report.get("input") != _nu_json(nu):
        return "roundtrip echoes the wrong input"
    if report.get("hull") != _nu_json(closed):
        return "roundtrip hull differs from the path closure"
    bad = check_point_list(closed, report.get("vertices", []))
    if bad:
        return "roundtrip vertices: " + bad
    reduced = closed == [list(r) for r in nu]
    if report.get("input_reduced") is not reduced:
        return f"input_reduced should be {reduced}"
    if report.get("hull_fixed") is not True or report.get("reduced_fixed") is not True:
        return "roundtrip flags must both hold"
    return _expect(rc, 0)


def ref_intersect(vertices, rc, out, err) -> Optional[str]:
    want = json.dumps(_nu_json(entrywise_max(vertices))) + "\n"
    if out != want:
        return f"intersect printed {out!r}, expected {want!r}"
    return _expect(rc, 0)


def ref_hijikata(nu, rc, out, err) -> Optional[str]:
    level = nu[0][1] + nu[1][0]
    if level < 0:
        if out or not err.startswith("error:"):
            return "a non-order must print only an error line"
        return _expect(rc, 1)
    if out != f"{level}\n":
        return f"hijikata printed {out!r}, expected level {level}"
    return _expect(rc, 0)


def ref_draw(nu, rc, out, err, svg_path: str, svg: str) -> Optional[str]:
    if err != f"wrote {svg_path}\n" or out:
        return f"draw printed {out!r} / {err!r}"
    try:
        root = ET.fromstring(svg.split("\n", 1)[1])
    except (ET.ParseError, IndexError):
        return "draw wrote no parsable SVG"
    ns = "{http://www.w3.org/2000/svg}"
    groups = {g.get("id"): g for g in root.iter(ns + "g")}
    if not {"lattice", "walls", "region"} <= set(groups):
        return "SVG lacks a lattice, walls or region group"
    ids = [c.get("id") for c in groups["region"].iter(ns + "circle")]
    want_ids = [f"pt_{x2}_{x3}" for _, x2, x3 in list_points(nu)]
    if ids != want_ids:
        return f"SVG region has {len(ids)} dots, region has {len(want_ids)} points"
    closed = closure(nu)
    pairs = [(0, 1), (1, 0), (0, 2), (2, 0), (1, 2), (2, 1)]
    want_dashed = [
        not (closed is not None and closed[i][j] == nu[i][j]) for i, j in pairs
    ]
    lines = list(groups["walls"].iter(ns + "line"))
    dashed = [line.get("stroke-dasharray") is not None for line in lines]
    if dashed != want_dashed:
        return f"SVG dashes {dashed}, expected {want_dashed}"
    return _expect(rc, 0)


CLI_REFEREES = {
    "check": ref_check,
    "hull": ref_hull,
    "vertices": ref_vertices,
    "roundtrip": ref_roundtrip,
    "intersect": ref_intersect,
    "hijikata": ref_hijikata,
}

# ---------------------------------------------------------------------------
# exact matrices over Q with a p-adic valuation


def valuation(x: Fraction, p: int):
    if x == 0:
        return float("inf")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def fmul(a, b):
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def finv(a):
    """Inverse by Gauss-Jordan over Fraction; raises ZeroDivisionError when singular."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            raise ZeroDivisionError("singular matrix")
        work[col], work[piv] = work[piv], work[col]
        pv = work[col][col]
        work[col] = [x / pv for x in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def fdet(a):
    n = len(a)
    if n == 1:
        return Fraction(a[0][0])
    return sum(
        (-1) ** j * a[0][j] * fdet([row[:j] + row[j + 1:] for row in a[1:]])
        for j in range(n)
    )


def fdiag(values):
    n = len(values)
    return [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)]


def integral(a, p: int) -> bool:
    return all(valuation(x, p) >= 0 for row in a for x in row)


def in_shape(a, nu, p: int) -> bool:
    """Every entry (i, j) has valuation at least nu[i][j]."""
    n = len(a)
    return all(valuation(a[i][j], p) >= nu[i][j] for i in range(n) for j in range(n))


def ref_membership(case, verdicts) -> Optional[str]:
    """Criterion-5 identity: A is in gamma S(nu) gamma^-1 iff gamma^-1 A gamma is in S(nu)."""
    p, gamma = case["prime"], case["gamma"]
    nu = entrywise_max(case["family"])
    g_inv = finv(gamma)
    want = tuple(in_shape(fmul(fmul(g_inv, a), gamma), nu, p) for a in case["elements"])
    if tuple(verdicts) != want:
        return f"membership verdicts {verdicts}, expected {want}"
    if not all(want[i] for i in case["inside"]):
        return "an element built inside the order was not a member"
    return None


def ref_hermite(case, result) -> Optional[str]:
    """The form is the canonical input, the transform is a unit, the witness is first."""
    p, canon, m = case["prime"], case["canonical"], case["product"]
    form, exponents, transform, witness = result
    n = len(canon)
    if form != canon:
        return "triangular form differs from the canonical input"
    if list(exponents) != [valuation(canon[i][i], p) for i in range(n)]:
        return f"exponents {exponents} do not match the diagonal"
    if fmul(transform, m) != canon:
        return "transform does not carry the input to its form"
    if not integral(transform, p) or valuation(fdet(transform), p) != 0:
        return "transform is not an integral unit"
    inv = finv(canon)
    want = None
    for bits in itertools.product((0, 1), repeat=n):
        if not integral(fmul(fmul(canon, fdiag(bits)), inv), p):
            want = bits
            break
    if witness != want:
        return f"witness {witness}, expected {want}"
    return None


def ref_divisors(case, result) -> Optional[str]:
    """Divisors of a diagonal pair are the coordinate differences, before and after transport."""
    divisors, invariant = result
    want = tuple(sorted(b - a for a, b in zip(case["u"], case["v"])))
    if tuple(divisors) != want:
        return f"divisors {divisors}, expected {want}"
    if invariant is not True:
        return "divisor invariance reported a change"
    return None


def ref_ring(case, result) -> Optional[str]:
    nu, p = case["nu"], case["prime"]
    if is_order(nu):
        return None if result is True else "an order was reported as not closed"
    if result is True:
        return "a non-order was reported as closed"
    a, b = result
    if not (in_shape(a, nu, p) and in_shape(b, nu, p)):
        return "witness factors are not in S(nu)"
    if in_shape(fmul(a, b), nu, p):
        return "witness product stays in S(nu)"
    return None


def ref_chain(case, result) -> Optional[str]:
    if result != case["start"]:
        return "chained transport did not return the starting matrix"
    return None


ARITH_REFEREES = {
    "membership": ref_membership,
    "hermite": ref_hermite,
    "divisors": ref_divisors,
    "ring": ref_ring,
    "chain": ref_chain,
}


def ref_fuzz(check_names: Sequence[str], summary) -> Optional[str]:
    """A fuzz report must cover every check and report no failure."""
    seen = [name for name, _, _ in summary]
    if seen != list(check_names):
        return f"fuzz report covers {seen}"
    bad = [name for name, trials, ok in summary if not ok or trials < 1]
    if bad:
        return f"fuzz checks failed: {bad}"
    return None
