"""Seeded inputs and op lists for the four workloads.

Every input comes from ``random.Random(f"{workload}/{seed}")``, so one
seed always gives the same inputs.  The generators use only the
referees' own arithmetic, never the package, so a change to the package
cannot change what the benchmark feeds it.  Each ``build_*`` function returns the
list of distinct ops one pass runs and the input properties the result
records.

Why these workloads (``regions-large`` runs by hand only; see README.md):

* ``cli-small``: a person at a terminal.  Small inputs (n = 2..6, at
  most 150 region points) through ``cli.main``; argument parsing, JSON
  and repeated closures dominate, enumeration does little.
* ``regions-large``: ``vertices``, ``roundtrip`` and ``check`` on n = 5..6
  orders whose regions hold 10^3..3.2*10^4 points, plus the all-6 n = 6
  matrix (70,993 points).  Enumeration, intersection and JSON output do the work, and
  ``check`` next to the other two shows whether a layer serves all three.
* ``local-arith``: exact p-adic linear algebra in ``dvr`` and
  ``apartments`` in the shapes of the acceptance criteria, plus chains of
  transports that expose denominator growth.  Enumeration does nothing.
* ``fuzz``: ``run_fuzz`` in the default shape, the maintainers' check;
  the only workload that times the ``run_fuzz`` loop and its 17 checks.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from fractions import Fraction

import referees as ref

# Names of the checks in ``splitorders.fuzz.CHECKS`` at the commit that
# defined the benchmark; the fuzz referee and per-layer metrics use them.
FUZZ_CHECKS = (
    "reject-nonzero-diagonal",
    "feasibility-cycle-scan",
    "hull-path-scan",
    "hull-properties",
    "order-iff-reduced",
    "max-difference-enumeration",
    "roundtrip-reduced",
    "vertex-intersection",
    "hijikata-exhaustive",
    "valuation-axioms",
    "integral-conjugation",
    "triangular-form",
    "diagonal-witness",
    "ring-closure",
    "membership-transport",
    "divisor-invariance",
    "incidence-transport",
)

# fuzz runs the default shape (n 2..4, entries [-3, 5], p = 2) at 10^3
# trials instead of 10^4, about 3 s a call instead of 8, so a run repeats
# the call often enough for each check's fastest repeat to be steady.
FUZZ_TRIALS = 1000

PRIMES = (2, 3, 5)
CHAIN_LENGTHS = (10, 25, 50)
BOX_LIMIT = 10**6  # the package's enumeration guard on bounding-box cells


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def quantiles(values, qs=(0.0, 0.25, 0.5, 0.75, 1.0)) -> list:
    s = sorted(values)
    if not s:
        return []
    return [s[min(len(s) - 1, int(q * (len(s) - 1) + 0.5))] for q in qs]


def _fw(entries):
    """Floyd-Warshall closure, used only to shape generated inputs."""
    n = len(entries)
    d = [list(r) for r in entries]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def _random_matrix(rng, n, lo, hi):
    return [[0 if i == j else rng.randint(lo, hi) for j in range(n)] for i in range(n)]


def _key(rows) -> tuple:
    return tuple(tuple(r) for r in rows)


def _classify(nu) -> str:
    if ref.has_negative_cycle(nu):
        return "infeasible"
    return "order" if ref.is_order(nu) else "non-order"


# ---------------------------------------------------------------------------
# CLI workloads: ops are (command, argv, subject) with the input on disk


class CliOp:
    """One ``cli.main(argv)`` call and the subject its referee checks against."""

    __slots__ = ("command", "argv", "subject", "svg_path")

    def __init__(self, command, argv, subject, svg_path=None):
        self.command = command
        self.argv = argv
        self.subject = subject
        self.svg_path = svg_path


def _write(workdir, name, obj) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# entry range per n that keeps regions small for cli-small
_SMALL_RANGE = {2: (-3, 6), 3: (-2, 4), 4: (-1, 3), 5: (-1, 2), 6: (-1, 2)}
_SMALL_CLASSES = ("order", "non-order", "infeasible", "order",
                  "non-order", "order", "infeasible", "non-order")
SMALL_POINT_LIMIT = 150
MATRICES_PER_N = 40
VERTEX_LISTS_PER_N = 40


def _small_matrix(rng, n, want, seen):
    lo, hi = _SMALL_RANGE[n]
    for _ in range(20000):
        nu = _random_matrix(rng, n, lo, hi)
        if want == "order":
            if ref.has_negative_cycle(nu):
                continue
            nu = _fw(nu)
        if _key(nu) in seen or _classify(nu) != want:
            continue
        if want != "infeasible" and not 1 <= ref.count_points(nu) <= SMALL_POINT_LIMIT:
            continue
        seen.add(_key(nu))
        return nu
    raise RuntimeError(f"no {want} input found at n = {n}")


def build_cli_small(seed: int, workdir: str):
    rng = _rng("cli-small", seed)
    ops, classes, ns, points = [], Counter(), Counter(), []
    seen = set()
    for n in range(2, 7):
        for idx in range(MATRICES_PER_N):
            want = _SMALL_CLASSES[idx % len(_SMALL_CLASSES)]
            if n == 2 and want == "non-order":
                want = "order"  # at n = 2 every feasible matrix is an order
            nu = _small_matrix(rng, n, want, seen)
            classes[want] += 1
            ns[n] += 1
            points.append(ref.count_points(nu))
            path = _write(workdir, f"nu_{n}_{idx}.json", {"n": n, "nu": nu})
            for command in ("check", "hull", "vertices", "roundtrip"):
                ops.append(CliOp(command, [command, path], nu))
            if n == 2:
                ops.append(CliOp("hijikata", ["hijikata", path], nu))
            if n == 3:
                svg = os.path.join(workdir, f"nu_{n}_{idx}.svg")
                ops.append(CliOp("draw", ["draw", path, "--out", svg], nu, svg))
        seen_lists = set()
        for idx in range(VERTEX_LISTS_PER_N):
            while True:
                family = [[rng.randint(-4, 4) for _ in range(n)]
                          for _ in range(rng.randint(1, 5))]
                if _key(family) not in seen_lists:
                    seen_lists.add(_key(family))
                    break
            path = _write(workdir, f"vertices_{n}_{idx}.json", family)
            ops.append(CliOp("intersect", ["intersect", path], family))
    props = {
        "n_histogram": dict(sorted(ns.items())),
        "matrix_classes": dict(classes),
        "region_points_quantiles": quantiles(points),
        "command_mix": dict(Counter(op.command for op in ops)),
        "distinct_inputs": len(seen) + 5 * VERTEX_LISTS_PER_N,
    }
    return ops, props


# regions-large: seeded orders sized to a ladder of (point count, n)
REGION_TARGETS = ((1000, 5), (2000, 6), (4000, 5), (8000, 6), (16000, 5), (32000, 6))
REGION_TOLERANCE = 0.03
ALL_SIX = [[0 if i == j else 6 for j in range(6)] for i in range(6)]


def _sized_order(rng, n, target):
    """Order of dimension n whose region holds target points, within tolerance.

    Scales a random closed real shape by s, floors it and closes it
    again; the point count rises with s, so bisection on s finds the
    nearest count.
    """
    for _ in range(50):
        shape = _fw([[0.0 if i == j else rng.uniform(0.2, 1.0) for j in range(n)]
                     for i in range(n)])

        def at(s):
            nu = _fw([[int(x * s) for x in row] for row in shape])
            return nu, ref.count_points(nu)

        lo, hi = 1.0, 1.25
        while at(hi)[1] < target:
            lo, hi = hi, hi * 1.25
        for _ in range(12):
            mid = (lo + hi) / 2
            if at(mid)[1] < target:
                lo = mid
            else:
                hi = mid
        for s in (lo, hi):
            nu, count = at(s)
            if abs(count - target) <= REGION_TOLERANCE * target and \
                    ref.box_cells(nu) <= BOX_LIMIT:
                return nu, count
    raise RuntimeError(f"no order near {target} points at n = {n}")


def build_regions_large(seed: int, workdir: str):
    rng = _rng("regions-large", seed)
    inputs = [(ALL_SIX, ref.count_points(ALL_SIX))]
    for target, n in REGION_TARGETS:
        inputs.append(_sized_order(rng, n, target))
    ops = []
    for idx, (nu, _) in enumerate(inputs):
        path = _write(workdir, f"region_{idx}.json", {"n": len(nu), "nu": nu})
        for command in ("vertices", "roundtrip", "check"):
            ops.append(CliOp(command, [command, path], nu))
    props = {
        "n_histogram": dict(sorted(Counter(len(nu) for nu, _ in inputs).items())),
        "matrix_classes": {"order": len(inputs)},
        "region_points": [count for _, count in inputs],
        "region_points_quantiles": quantiles([c for _, c in inputs]),
        "command_mix": dict(Counter(op.command for op in ops)),
        "distinct_inputs": len(inputs),
    }
    return ops, props


# ---------------------------------------------------------------------------
# local-arith: library calls on exact matrices, built from Fraction rows


def _unit(rng, p, bound):
    while True:
        u = rng.randint(1, bound)
        if u % p:
            return u if rng.random() < 0.5 else -u


def _unit_matrix(rng, n, p, steps):
    """Product of integral elementary operations: an element of GL_n(O)."""
    out = ref.fdiag([1] * n)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            i, j = rng.sample(range(n), 2)
            step = ref.fdiag([1] * n)
            step[i][j] = Fraction(rng.randint(-p * p, p * p))
        elif kind == 1:
            step = ref.fdiag([_unit(rng, p, p * p) for _ in range(n)])
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            step = [[Fraction(int(perm[r] == s)) for s in range(n)] for r in range(n)]
        out = ref.fmul(out, step)
    return out


def _change_of_basis(rng, n, p):
    powers = [Fraction(p) ** rng.randint(-2, 2) for _ in range(n)]
    return ref.fmul(_unit_matrix(rng, n, p, 3), ref.fdiag(powers))


def _local(rng, n, p):
    """Entries num * p^e with num in [-p^3, p^3] and e in [-2, 2]."""
    return [[Fraction(rng.randint(-p ** 3, p ** 3)) * Fraction(p) ** rng.randint(-2, 2)
             for _ in range(n)] for _ in range(n)]


def _sharp_element(rng, nu, p):
    """Element of S(nu) whose (i, j) entry has valuation exactly nu[i][j]."""
    return [[Fraction(_unit(rng, p, p ** 4)) * Fraction(p) ** e for e in row] for row in nu]


def _vertex(rng, n, lo=-3, hi=3):
    return [rng.randint(lo, hi) for _ in range(n)]


class ArithOp:
    """One library op: ``kind`` names the call shape, ``case`` holds plain inputs."""

    __slots__ = ("kind", "case", "args", "prime", "n")

    def __init__(self, kind, case, prime, n):
        self.kind = kind
        self.case = case
        self.prime = prime
        self.n = n
        self.args = None  # package objects, attached by run.py


ARITH_MIX = {"membership": 240, "hermite": 240, "divisors": 240, "ring": 240, "chain": 60}
RING_TRIALS = 100


def build_local_arith(seed: int):
    rng = _rng("local-arith", seed)
    ops = []
    for kind, count in ARITH_MIX.items():
        for idx in range(count):
            # p cycles fastest, then n, then (for chains) the chain length,
            # so every combination appears
            p = PRIMES[idx % len(PRIMES)]
            n = 2 + (idx // len(PRIMES)) % 2
            if kind == "membership":
                gamma = _change_of_basis(rng, n, p)
                family = [_vertex(rng, n) for _ in range(rng.randint(1, 4))]
                nu = ref.entrywise_max(family)
                g_inv = ref.finv(gamma)
                elements = []
                for k in range(8):
                    if k % 2 == 0:
                        elements.append(_local(rng, n, p))
                    else:
                        inner = _sharp_element(rng, nu, p)
                        elements.append(ref.fmul(ref.fmul(gamma, inner), g_inv))
                case = {"gamma": gamma, "family": family, "elements": elements,
                        "inside": [1, 3, 5, 7]}
            elif kind == "hermite":
                exps = [rng.randint(0, 3) for _ in range(n)]
                canon = [[Fraction(0)] * n for _ in range(n)]
                for i in range(n):
                    canon[i][i] = Fraction(p ** exps[i])
                    for j in range(i + 1, n):
                        canon[i][j] = Fraction(rng.randrange(p ** exps[j]))
                unit = _unit_matrix(rng, n, p, rng.randint(2, 4))
                case = {"canonical": canon, "product": ref.fmul(unit, canon)}
            elif kind == "divisors":
                u, v = _vertex(rng, n), _vertex(rng, n)
                gamma = _change_of_basis(rng, n, p)
                lat_u = ref.fdiag([Fraction(p) ** e for e in u])
                lat_v = ref.fdiag([Fraction(p) ** e for e in v])
                case = {"u": u, "v": v, "gamma": gamma, "L": lat_u, "Lp": lat_v,
                        "gL": ref.fmul(gamma, lat_u), "gLp": ref.fmul(gamma, lat_v)}
            elif kind == "ring":
                case = {"nu": _random_matrix(rng, n, -3, 5),
                        "seed": rng.randrange(2**31), "trials": RING_TRIALS}
            else:
                gamma = _change_of_basis(rng, n, p)
                case = {"gamma": gamma, "start": _local(rng, n, p),
                        "rounds": CHAIN_LENGTHS[(idx // 6) % len(CHAIN_LENGTHS)]}
            case["prime"] = p
            ops.append(ArithOp(kind, case, p, n))
    ring_orders = sum(1 for op in ops if op.kind == "ring" and ref.is_order(op.case["nu"]))
    props = {
        "n_histogram": dict(sorted(Counter(op.n for op in ops).items())),
        "op_mix": dict(ARITH_MIX),
        "primes": dict(sorted(Counter(op.prime for op in ops).items())),
        "chain_lengths": dict(sorted(Counter(
            op.case["rounds"] for op in ops if op.kind == "chain").items())),
        "ring_inputs_that_are_orders": ring_orders,
        "ring_trials_per_op": RING_TRIALS,
        "distinct_inputs": len(ops),
    }
    return ops, props
