"""Randomized invariant checking across the whole package.

Every check draws all of its randomness from ``random.Random`` (the
Mersenne Twister from the standard library) seeded deterministically from
the single master seed in the configuration: check number i uses
``seed * 1000003 + i`` reduced mod 2**64.  Re-running with the same seed
therefore replays the exact same inputs.  Where a generator reads the
words of ``randint``, ``sample`` or ``shuffle`` itself, it reads them
through ``dvr._below`` (``_randints`` has it written out), so it leaves
``rng`` where the plain calls would.

Each check is one ``Check`` record, listed in ``_RECORDS``, and
``run_check`` runs them all the same way.  The trial budget
(``FuzzConfig.trials``, ``--trials`` on the command line) is split evenly
over the dimensions n_min..n_max for the checks on random exponent
matrices, some of which cap the trials per dimension; every other check
runs ``min(trials, cap)`` trials, where the cap of the Hijikata check is
the number of cells in its grid of 2 x 2 matrices, walked row by row.
The first failing trial ends its check, and the trial count reported
counts the trials run, the failing one included.

To add a check, write its trial body, or for a property of one exponent
matrix a predicate returning the failure note (the driver then draws the
matrix and shrinks a failure), and add one record to ``_RECORDS``.  Check
bodies call production functions by their names in this module, so
tools that rebind those names see every call.

The heavy theorems are checked against the production code paths; small
brute-force referees (cycle scan, path scan, box scan) are kept here so
the driver does not trust the closure routines it is auditing.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import Callable, Optional, Sequence

from ._record import FrozenRecord
from .apartments import (
    Apartment,
    divisor_invariance_check,
    general_membership,
    incident,
    incident_lattices,
    intersect_in_apartment,
    lattice_basis,
)
from .correspondence import (
    ApartmentVertex,
    intersect_maximal,
    maximal_orders_containing,
    verify_roundtrip,
)
from .dvr import (
    LocalMatrix,
    LocalScalar,
    _below,
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
from .errors import (
    AlreadyDiagonalError,
    NonZeroDiagonalError,
    NotAnOrderError,
    SplitOrderError,
)
from .exponent import (
    ExponentMatrix,
    _as_int,
    has_containing_maximal,
    hijikata_normal_form,
    is_order,
    order_hull,
)
from .polytope import (
    DEFAULT_POINT_LIMIT,
    enumerate_lattice_points,
    is_reduced,
    max_difference,
)

_SEED_STRIDE = 1000003
_SEED_MASK = 2**64 - 1

# largest matrix dimension run_fuzz and the command line accept
MAX_DIMENSION = 6


class FuzzConfig(FrozenRecord):
    """Configuration of one driver run; all fields are validated ints.

    Integral floats read as ints; bools, strings and other non-integers
    are refused.  The checks run in order, trial count, entry range,
    dimensions, prime, and last that the widest region box a trial can
    enumerate, ``(2 * max(entry_max, 0) + 1) ** (n_max - 1)`` cells,
    stays within ``polytope.DEFAULT_POINT_LIMIT``; the first failure is
    the one reported.

    Raises TypeError or ValueError.
    """

    __match_args__ = (
        "n_min", "n_max", "entry_min", "entry_max", "trials", "seed", "prime"
    )

    def __init__(
        self,
        n_min: int = 2,
        n_max: int = 4,
        entry_min: int = -3,
        entry_max: int = 5,
        trials: int = 10000,
        seed: int = 0,
        prime: int = 2,
    ):
        # the first six fields, each named in its error; prime is checked below
        n_min, n_max, entry_min, entry_max, trials, seed = map(
            _as_int, (n_min, n_max, entry_min, entry_max, trials, seed), self.__match_args__
        )
        if trials < 1:
            raise ValueError("trial count must be >= 1")
        if entry_min > entry_max:
            raise ValueError("entry range is empty")
        if not 2 <= n_min <= n_max:
            raise ValueError("need 2 <= n_min <= n_max")
        if n_max > MAX_DIMENSION:
            raise ValueError(f"dimensions above {MAX_DIMENSION} are not supported")
        prime = check_prime(prime)
        cells = (2 * max(entry_max, 0) + 1) ** (n_max - 1)
        if cells > DEFAULT_POINT_LIMIT:
            raise ValueError(
                f"entry range too wide: a region box at n = {n_max} can have {cells} "
                f"cells, more than {DEFAULT_POINT_LIMIT}"
            )
        self._set(n_min, n_max, entry_min, entry_max, trials, seed, prime)


class CheckResult(FrozenRecord):
    __match_args__ = ("name", "trials", "failure")

    def __init__(self, name: str, trials: int, failure: Optional[dict]):
        self._set(name, trials, failure)

    @property
    def ok(self) -> bool:
        return self.failure is None


class FuzzReport(FrozenRecord):
    __match_args__ = ("seed", "results")

    def __init__(self, seed: int, results: tuple[CheckResult, ...]):
        self._set(seed, results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[dict]:
        return [r.failure for r in self.results if r.failure is not None]

    def summary_lines(self) -> list[str]:
        lines = []
        for r in self.results:
            status = "ok" if r.ok else "FAIL"
            lines.append(f"{status:4s} {r.name} ({r.trials} trials)")
        return lines


# ---------------------------------------------------------------------------
# random generators


def _randints(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """``[rng.randint(lo, hi) for _ in range(count)]``: each value is lo
    plus ``_below`` of the width, so the values and the state left behind
    are those of ``randint``; only its layers of argument checks are
    skipped."""
    width = hi - lo + 1
    if width < 1:
        raise ValueError(f"empty range [{lo}, {hi}]")
    k = width.bit_length()
    draw = rng.getrandbits
    out = []
    # _below written out: calling it here put the fuzz benchmark's median
    # latency 6.0% above this loop's (ten alternating 35 s pairs)
    for _ in range(count):
        r = draw(k)
        while r >= width:
            r = draw(k)
        out.append(lo + r)
    return out


def random_exponent_matrix(
    rng: random.Random, n: int, lo: int, hi: int
) -> ExponentMatrix:
    """Exponent matrix whose off-diagonal entries, row by row, are drawn
    from [lo, hi] by ``_randints``."""
    if n < 2:
        raise ValueError(f"exponent matrix needs dimension >= 2, got {n}")
    d = _randints(rng, lo, hi, n * (n - 1))
    rows = []
    for i in range(n):
        row = d[i * (n - 1) : (i + 1) * (n - 1)]
        row.insert(i, 0)
        rows.append(tuple(row))
    return ExponentMatrix._trusted(tuple(rows))


def random_vertex(rng: random.Random, n: int, lo: int = -4, hi: int = 4) -> ApartmentVertex:
    """Vertex whose n coordinates are drawn from [lo, hi] by ``_randints``."""
    return ApartmentVertex(_randints(rng, lo, hi, n))


def random_integral_matrix(rng: random.Random, n: int, prime: int) -> LocalMatrix:
    """Integer matrix whose entries, row by row, are drawn from
    [-p^3, p^3] by ``_randints``."""
    p = check_prime(prime)
    bound = p**3
    d = _randints(rng, -bound, bound, n * n)
    return LocalMatrix([d[i * n : (i + 1) * n] for i in range(n)], p)


def random_local_matrix(
    rng: random.Random, n: int, prime: int, val_lo: int = -2, val_hi: int = 2
) -> LocalMatrix:
    """Matrix with entries num * p^e for random num and e in [val_lo, val_hi].

    Entry by entry, row by row, num is drawn from [-p^3, p^3] and then e,
    each as ``randint`` draws it, through ``_below``.
    """
    p = check_prime(prime)
    if n < 1:
        raise ValueError("matrix must be square and nonempty")
    e_width = val_hi - val_lo + 1
    if e_width < 1:
        raise ValueError(f"empty range [{val_lo}, {val_hi}]")
    bound = p**3
    num_width = 2 * bound + 1
    shift = max(0, -val_lo)
    base = val_lo + shift  # p^(base + d) / p^shift is p^(val_lo + d)
    draw = rng.getrandbits
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            num = _below(draw, num_width) - bound
            row.append(num * p ** (base + _below(draw, e_width)))
        rows.append(row)
    return LocalMatrix._from_raw(rows, p**shift, p)


def random_unit_matrix(
    rng: random.Random, n: int, prime: int, steps: int = 4
) -> LocalMatrix:
    """Random element of GL_n(O): product of integral elementary operations.

    Each step right-multiplies by an elementary matrix, applied as a column
    operation: I + c E(i, j) adds c times column i to column j, a diagonal
    of units scales the columns, and the permutation matrix with ones at
    (r, perm[r]) moves column r to column perm[r].

    Every integer is drawn through ``_below``, as ``randrange(3)`` (the
    kind of step), ``sample(range(n), 2)`` (the pair i, j, picked from a
    pool of n), ``randint`` (the multiplier and the units) and ``shuffle``
    (the permutation) draw them; each unit's sign is ``rng.random() <
    0.5``.  So the matrix and the state left behind are those of the plain
    calls.
    """
    p = check_prime(prime)
    if n < 1:
        raise ValueError("matrix must be square and nonempty")
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    draw = rng.getrandbits
    q = p * p
    for _ in range(steps):
        kind = _below(draw, 3)
        if kind == 0 and n >= 2:
            i = _below(draw, n)
            # the pool's slot i now holds its last element, n - 1
            j = _below(draw, n - 1)
            if j == i:
                j = n - 1
            c = _below(draw, 2 * q + 1) - q
            for row in rows:
                row[j] += c * row[i]
        elif kind == 1:
            units = []
            for _ in range(n):
                w = _below(draw, q) + 1
                while w % p == 0:
                    w = _below(draw, q) + 1
                units.append(w if rng.random() < 0.5 else -w)
            rows = [list(map(operator.mul, row, units)) for row in rows]
        else:
            perm = list(range(n))
            for i in range(n - 1, 0, -1):
                j = _below(draw, i + 1)
                perm[i], perm[j] = perm[j], perm[i]
            moved = [[0] * n for _ in range(n)]
            for new_row, row in zip(moved, rows):
                for r, x in zip(perm, row):
                    new_row[r] = x
            rows = moved
    return LocalMatrix._from_raw(rows, 1, p)


def random_change_of_basis(
    rng: random.Random, n: int, prime: int, steps: int = 3
) -> LocalMatrix:
    """Random invertible matrix over the field: units mixed with diagonal p powers."""
    out = random_unit_matrix(rng, n, prime, steps=steps)
    powers = _randints(rng, -2, 2, n)
    return out @ LocalMatrix.power_diagonal(powers, prime)


def random_triangular_form(rng: random.Random, n: int, prime: int) -> LocalMatrix:
    """Matrix already in canonical triangular shape, built entry by entry,
    with diagonal exponents in [0, 3]."""
    p = check_prime(prime)
    exps = _randints(rng, 0, 3, n)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = p ** exps[i]
        for j in range(i + 1, n):
            rows[i][j] = rng.randrange(p ** exps[j])
    return LocalMatrix(rows, p)


# ---------------------------------------------------------------------------
# brute-force referees, deliberately naive


def cycle_scan_feasible(entries: Sequence[Sequence[int]]) -> bool:
    """Every directed simple cycle has nonnegative weight (exhaustive scan)."""
    n = len(entries)
    for size in range(2, n + 1):
        for subset in itertools.combinations(range(n), size):
            first = subset[0]
            for rest in itertools.permutations(subset[1:]):
                cycle = (first,) + rest
                w = sum(
                    entries[cycle[t]][cycle[(t + 1) % size]] for t in range(size)
                )
                if w < 0:
                    return False
    return True


def path_scan_hull(entries: Sequence[Sequence[int]]) -> list[list[int]]:
    """Minimal weight over simple paths for every pair (exhaustive scan)."""
    n = len(entries)
    best = [list(row) for row in entries]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            rest = [k for k in range(n) if k not in (i, j)]
            for size in range(1, len(rest) + 1):
                for mids in itertools.permutations(rest, size):
                    chain = (i,) + mids + (j,)
                    w = sum(entries[a][b] for a, b in zip(chain, chain[1:]))
                    if w < best[i][j]:
                        best[i][j] = w
    return best


def box_scan_points(upper: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Filtered scan of the full bounding box, in lexicographic order."""
    n = len(upper)
    axes = [range(-upper[0][i], upper[i][0] + 1) for i in range(1, n)]
    bounds = [(i, j, upper[i][j]) for i in range(n) for j in range(n) if i != j]
    out = []
    for tail in itertools.product(*axes):
        x = (0,) + tail
        if all(x[i] - x[j] <= uij for i, j, uij in bounds):
            out.append(x)
    return out


# ---------------------------------------------------------------------------
# counterexample shrinking


def minimize_failing_matrix(
    nu: ExponentMatrix, failing: Callable[[ExponentMatrix], bool]
) -> ExponentMatrix:
    """Greedy shrink of a failing exponent matrix toward the zero matrix.

    Repeatedly tries to replace an off-diagonal entry by 0, or to move it
    one step toward 0, keeping only changes under which ``failing`` still
    returns True.  Deterministic and always terminates: every accepted
    step lowers the total magnitude.
    """
    entries = [list(row) for row in nu.entries]
    n = nu.n
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if i == j or entries[i][j] == 0:
                    continue
                original = entries[i][j]
                step = original - (1 if original > 0 else -1)
                for candidate in (0, step):
                    if candidate == original:
                        continue
                    entries[i][j] = candidate
                    if failing(ExponentMatrix(entries)):
                        changed = True
                        break
                    entries[i][j] = original
    return ExponentMatrix(entries)


# ---------------------------------------------------------------------------
# the check record and its driver


class Check:
    """One fuzz check: a name, a trial schedule and a trial body.

    With ``per_n`` the trial budget is split evenly over the dimensions
    n_min..n_max (at least one trial each, at most ``cap`` when given) and
    each trial gets its dimension n; otherwise there are
    ``min(config.trials, cap)`` trials and each gets its index t.  ``cap``
    is an int or a function of the config.

    ``trial(rng, config, n_or_t)`` returns None, or ``(note, data)`` for a
    failure.  A check given a ``predicate`` instead draws one random
    exponent matrix of dimension n per trial; ``predicate(nu)`` returns
    the failure note or None, and a failing matrix is reported with a
    shrunk copy on which the predicate returns the same note.

    Calling the record runs it: ``check(rng, config) -> (trials, failure)``.
    """

    __slots__ = ("name", "trial", "predicate", "per_n", "cap")

    def __init__(self, name, trial=None, predicate=None, per_n=False, cap=None):
        self.name = name
        self.trial = trial
        self.predicate = predicate
        self.per_n = per_n
        self.cap = cap

    def __call__(
        self, rng: random.Random, config: FuzzConfig
    ) -> tuple[int, Optional[dict]]:
        return run_check(self, rng, config)


def run_check(
    check: Check, rng: random.Random, config: FuzzConfig
) -> tuple[int, Optional[dict]]:
    """Run the trials of one check until one fails.

    Returns the number of trials run, the failing one included, and the
    failure dict (check name, note, then the data of the failure) or None.
    A trial that raises a SplitOrderError fails with the note
    ``raised <ExceptionName>: <message>`` and its index in the schedule,
    counted from 0, under ``trial``.
    """
    cap = check.cap(config) if callable(check.cap) else check.cap
    if check.per_n:
        span = range(config.n_min, config.n_max + 1)
        per = max(1, config.trials // len(span))
        if cap is not None:
            per = min(per, cap)
        schedule = (n for n in span for _ in range(per))
    else:
        schedule = range(min(config.trials, cap))
    used = 0
    for arg in schedule:
        used += 1
        try:
            if check.predicate is None:
                found = check.trial(rng, config, arg)
            else:
                found = _shrinking_trial(check.predicate, rng, config, arg)
        except SplitOrderError as exc:
            found = f"raised {type(exc).__name__}: {exc}", {"trial": used - 1}
        if found is not None:
            note, data = found
            return used, {"check": check.name, "note": note, **data}
    return used, None


def _shrinking_trial(predicate, rng, config, n):
    nu = random_exponent_matrix(rng, n, config.entry_min, config.entry_max)
    note = predicate(nu)
    if note is None:
        return None
    small = minimize_failing_matrix(nu, lambda m: predicate(m) == note)
    return note, {"input": nu.to_json_dict(), "minimized": small.to_json_dict()}


# ---------------------------------------------------------------------------
# predicates of the shrinking checks: the failure note of one matrix, or None


def _feasibility_cycle_scan(nu):
    if has_containing_maximal(nu) != cycle_scan_feasible(nu.entries):
        return "closure disagrees with exhaustive cycle scan"
    return None


def _hull_path_scan(nu):
    if not has_containing_maximal(nu):
        return None
    hull = order_hull(nu)
    if [list(r) for r in hull.entries] != path_scan_hull(nu.entries):
        return "hull disagrees with exhaustive path scan"
    return None


def _hull_properties(nu):
    n = nu.n
    feasible = has_containing_maximal(nu)
    nu_is_order = is_order(nu)
    if nu_is_order and not feasible:
        return "an order must admit a containing maximal order"
    if not feasible:
        return None
    hull = order_hull(nu)
    ok = (
        is_order(hull)
        # rebuilt from its entries, so the hull is closed again and not
        # read back from the closure order_hull keeps on it
        and order_hull(ExponentMatrix(hull.entries)) == hull
        and all(
            hull.entries[i][j] <= nu.entries[i][j]
            for i in range(n)
            for j in range(n)
        )
        and (nu_is_order == (hull == nu))
    )
    if not ok:
        return "hull not an idempotent dominated order"
    if box_scan_points(nu.entries) != box_scan_points(hull.entries):
        return "hull changed the integer points"
    return None


def _order_iff_reduced(nu):
    if is_order(nu) != is_reduced(nu):
        return "algebraic and geometric criteria disagree"
    return None


def _roundtrip_reduced(nu):
    if not has_containing_maximal(nu):
        return None
    report = verify_roundtrip(nu)
    if not report.ok:
        return "roundtrip flags failed"
    if report.input_reduced and intersect_maximal(report.vertices) != nu:
        return "reduced matrix not recovered from its vertices"
    return None


# ---------------------------------------------------------------------------
# trial bodies of the other checks: None, or (failure note, failure data)


def _reject_bad_diagonal(rng, config, t):
    n = rng.randint(config.n_min, config.n_max)
    entries = [
        [rng.randint(config.entry_min, config.entry_max) for _ in range(n)]
        for _ in range(n)
    ]
    i = rng.randrange(n)
    entries[i][i] = rng.choice([-2, -1, 1, 2, 3])
    try:
        ExponentMatrix(entries)
    except NonZeroDiagonalError:
        return None
    return "constructor accepted a nonzero diagonal", {"input": entries}


def _max_difference_enumeration(rng, config, n):
    nu = random_exponent_matrix(rng, n, config.entry_min, config.entry_max)
    if not has_containing_maximal(nu):
        return None
    points = enumerate_lattice_points(nu)
    if not points:
        return "nonempty region enumerated no points", {"input": nu.to_json_dict()}
    cols = list(zip(*(p.m for p in points)))
    for i in range(n):
        for j in range(n):
            brute = max(map(operator.sub, cols[i], cols[j]))
            if max_difference(nu, i, j) != brute:
                return (
                    f"pair ({i}, {j}): path bound differs from point maximum",
                    {"input": nu.to_json_dict()},
                )
    return None


def _vertex_intersection(rng, config, n):
    family = [random_vertex(rng, n) for _ in range(rng.randint(1, 6))]
    mu = intersect_maximal(family)
    vertices = maximal_orders_containing(mu)
    members = {v.m for v in vertices}
    sub = intersect_maximal(family[: max(1, len(family) - 1)])
    ok = (
        is_order(mu)
        and is_reduced(mu)
        and all(v.m in members for v in family)
        and intersect_maximal(vertices) == mu
        and all(
            sub.entries[i][j] <= mu.entries[i][j]
            for i in range(n)
            for j in range(n)
        )
    )
    if not ok:
        return (
            "intersection of maximal orders misbehaved",
            {"vertices": [list(v.m) for v in family]},
        )
    return None


def _grid_cells(config):
    return (config.entry_max - config.entry_min + 1) ** 2


def _hijikata_exhaustive(rng, config, t):
    # cell t of the grid of 2 x 2 matrices, row by row
    width = config.entry_max - config.entry_min + 1
    a = config.entry_min + t // width
    b = config.entry_min + t % width
    nu = ExponentMatrix([[0, a], [b, 0]])
    expected_order = a + b >= 0
    if is_order(nu) != expected_order:
        note = "2 x 2 order criterion is the sign of the exponent sum"
    elif not expected_order:
        try:
            hijikata_normal_form(nu)
        except NotAnOrderError:
            return None
        note = "normal form accepted a non-order"
    else:
        level = hijikata_normal_form(nu)
        points = enumerate_lattice_points(nu)
        coords = [p.m[1] for p in points]
        endpoints = [ApartmentVertex([0, -a]), ApartmentVertex([0, b])]
        ok = (
            level == a + b
            and coords == list(range(-a, b + 1))
            and intersect_maximal(endpoints) == nu
        )
        if ok:
            return None
        note = "geodesic data disagrees with the level"
    return note, {"input": nu.to_json_dict()}


def _valuation_axioms(rng, config, t):
    from fractions import Fraction

    p = (2, 3, 5)[t % 3]
    a = LocalScalar(
        Fraction(rng.randint(-300, 300), rng.randint(1, 120)), p
    )
    b = LocalScalar(
        Fraction(rng.randint(-300, 300), rng.randint(1, 120)), p
    )
    va, vb = a.valuation(), b.valuation()
    if (a * b).valuation() != va + vb:
        note = "multiplicativity failed"
    elif (vs := (a + b).valuation()) < min(va, vb):
        note = "ultrametric bound failed"
    elif va != vb and vs != min(va, vb):
        note = "ultrametric equality failed for distinct valuations"
    else:
        return None
    return note, {"a": str(a.value), "b": str(b.value), "prime": p}


def _integral_conjugation(rng, config, t):
    p = (2, 3, 5)[t % 3]
    n = rng.randint(2, 3)
    v = random_vertex(rng, n, -3, 3)
    xi = LocalMatrix.power_diagonal([-e for e in v.m], p)
    A = random_integral_matrix(rng, n, p)
    if not lambda_membership(conjugate(xi, A), v):
        note = "conjugate of an integral matrix left the maximal order"
    else:
        member = random_local_matrix(rng, n, p, val_lo=0, val_hi=2)
        # scale row i, column j by p^(m_i - m_j), so its valuation is at
        # least m_i - m_j; the common factor p^shift keeps numerators integral
        m = v.m
        shift = max(m) - min(m)
        B = LocalMatrix._from_raw(
            [
                [x * p ** (mi - mj + shift) for x, mj in zip(row, m)]
                for row, mi in zip(member.nums, m)
            ],
            member.den * p**shift,
            p,
        )
        back = conjugate(LocalMatrix.power_diagonal(m, p), B)
        if back.is_integral():
            return None
        note = "member of the maximal order did not conjugate back integrally"
    return note, {"vertex": list(v.m), "prime": p}


def _triangular_form(rng, config, t):
    p = (2, 3, 5)[t % 3]
    n = rng.randint(2, 3)
    H = random_triangular_form(rng, n, p)
    form, transform = hermite_normal_form(H)
    if form.matrix != H:
        return "canonical input was not a fixed point", {"input": H.to_json_dict()}
    U = random_unit_matrix(rng, n, p)
    form2, transform2 = hermite_normal_form(U @ H)
    ok = (
        form2.matrix == H
        and form2.exponents == form.exponents
        and transform2.is_integral()
        and rational_valuation(transform2.det(), p) == 0
        and transform2 @ (U @ H) == form2.matrix
    )
    if not ok:
        return (
            "left unit changed the canonical form",
            {"input": H.to_json_dict(), "unit": U.to_json_dict()},
        )
    return None


def _diagonal_witness(rng, config, t):
    p = (2, 3, 5)[t % 3]
    n = rng.randint(2, 3)
    H = random_triangular_form(rng, n, p)
    form, _ = hermite_normal_form(H)
    if form.is_diagonal():
        xi = form.matrix
        xi_inv = xi.inverse()
        for bits in itertools.product((0, 1), repeat=n):
            D = LocalMatrix.diagonal(bits, p)
            if not (xi @ D @ xi_inv).is_integral():
                note = "diagonal form conjugated a 0/1 diagonal non-integrally"
                return note, {"input": H.to_json_dict()}
        try:
            diagonal_witness(form)
        except AlreadyDiagonalError:
            return None
        note = "witness search should fail on a diagonal form"
    else:
        D = diagonal_witness(form)
        conj = form.matrix @ D @ form.matrix.inverse()
        if not conj.is_integral():
            return None
        note = "returned witness conjugates integrally"
    return note, {"input": H.to_json_dict()}


def _ring_closure(rng, config, t):
    p = (2, 3, 5)[t % 3]
    n = rng.randint(config.n_min, config.n_max)
    nu = random_exponent_matrix(rng, n, config.entry_min, config.entry_max)
    result = ring_closure_check(
        nu, trials=40, seed=rng.randrange(_SEED_MASK), prime=p
    )
    if is_order(nu):
        if result is True:
            return None
        note = "sampled product escaped an order"
    elif result is True:
        note = "non-order reported as closed"
    else:
        A, B = result
        ok = (
            in_split_order(A, nu)
            and in_split_order(B, nu)
            and not in_split_order(A @ B, nu)
        )
        if ok:
            return None
        note = "deterministic witness is not a genuine escape"
    return note, {"input": nu.to_json_dict()}


def _membership_transport(rng, config, t):
    p = config.prime
    n = 3
    gamma = random_change_of_basis(rng, n, p)
    ap = Apartment(gamma)
    family = [random_vertex(rng, n, -3, 3) for _ in range(rng.randint(1, 4))]
    S = intersect_in_apartment(ap, family)
    note = None
    for k in range(20):
        if k % 2 == 0:
            A = random_local_matrix(rng, n, p)
        else:
            A = ap.from_standard(
                sample_split_order_element(S.nu, rng, p)
            )
        pulled = ap.to_standard(A)
        direct = general_membership(S, A)
        per_vertex = all(lambda_membership(pulled, v) for v in family)
        if direct != per_vertex:
            note = "hull membership and per-vertex membership disagree"
            break
        if k % 2 == 1 and not direct:
            note = "transported sharp element rejected"
            break
    else:
        idem = ap.from_standard(LocalMatrix.matrix_unit(n, 0, 0, p))
        if not general_membership(S, idem):
            note = "conjugated diagonal idempotent rejected"
        else:
            # a member pair multiplies to a member: the order is a ring
            left = ap.from_standard(sample_split_order_element(S.nu, rng, p))
            right = ap.from_standard(sample_split_order_element(S.nu, rng, p))
            if general_membership(S, left @ right):
                return None
            note = "product of members escaped the order"
    return note, {
        "gamma": gamma.to_json_dict(),
        "vertices": [list(v.m) for v in family],
    }


def _divisor_invariance(rng, config, t):
    p = config.prime
    n = 3
    u = random_vertex(rng, n, -3, 3)
    v = random_vertex(rng, n, -3, 3)
    L, Lp = lattice_basis(u, p), lattice_basis(v, p)
    expected = tuple(sorted(b - a for a, b in zip(u.m, v.m)))
    if elementary_divisors(L, Lp) != expected:
        return (
            "diagonal lattice pair has wrong divisors",
            {"u": list(u.m), "v": list(v.m)},
        )
    gamma = random_change_of_basis(rng, n, p)
    if not divisor_invariance_check(gamma, L, Lp):
        return (
            "divisors changed under transport",
            {"u": list(u.m), "v": list(v.m), "gamma": gamma.to_json_dict()},
        )
    M = random_change_of_basis(rng, n, p)
    Mp = random_change_of_basis(rng, n, p)
    if not divisor_invariance_check(gamma, M, Mp):
        return (
            "divisors of a generic pair changed under transport",
            {"gamma": gamma.to_json_dict()},
        )
    return None


def _incidence_transport(rng, config, t):
    p = config.prime
    n = rng.randint(2, 3)
    u = random_vertex(rng, n, -2, 2)
    v = random_vertex(rng, n, -2, 2)
    if u == v:
        return None
    L, Lp = lattice_basis(u, p), lattice_basis(v, p)
    gamma = random_change_of_basis(rng, n, p)
    direct = incident(u, v)
    via_divisors = incident_lattices(L, Lp)
    transported = incident_lattices(gamma @ L, gamma @ Lp)
    if not (direct == via_divisors == transported):
        return (
            "incidence not stable under transport",
            {"u": list(u.m), "v": list(v.m)},
        )
    return None


# every check, in run order; run_fuzz seeds check i from (seed, i)
_RECORDS = (
    Check("reject-nonzero-diagonal", _reject_bad_diagonal, cap=300),
    Check("feasibility-cycle-scan", predicate=_feasibility_cycle_scan, per_n=True, cap=2500),
    Check("hull-path-scan", predicate=_hull_path_scan, per_n=True, cap=2500),
    Check("hull-properties", predicate=_hull_properties, per_n=True),
    Check("order-iff-reduced", predicate=_order_iff_reduced, per_n=True),
    Check("max-difference-enumeration", _max_difference_enumeration, per_n=True, cap=1200),
    Check("roundtrip-reduced", predicate=_roundtrip_reduced, per_n=True),
    Check("vertex-intersection", _vertex_intersection, per_n=True, cap=2500),
    Check("hijikata-exhaustive", _hijikata_exhaustive, cap=_grid_cells),
    Check("valuation-axioms", _valuation_axioms, cap=1500),
    Check("integral-conjugation", _integral_conjugation, cap=600),
    Check("triangular-form", _triangular_form, cap=400),
    Check("diagonal-witness", _diagonal_witness, cap=400),
    Check("ring-closure", _ring_closure, cap=150),
    Check("membership-transport", _membership_transport, cap=120),
    Check("divisor-invariance", _divisor_invariance, cap=150),
    Check("incidence-transport", _incidence_transport, cap=200),
)
CHECKS: tuple[tuple[str, Callable], ...] = tuple((c.name, c) for c in _RECORDS)


def run_fuzz(config: FuzzConfig) -> FuzzReport:
    """Run every invariant suite on inputs replayable from the master seed."""
    results = []
    for index, (name, fn) in enumerate(CHECKS):
        rng = random.Random((config.seed * _SEED_STRIDE + index) & _SEED_MASK)
        trials, failure = fn(rng, config)
        results.append(CheckResult(name=name, trials=trials, failure=failure))
    return FuzzReport(seed=config.seed, results=tuple(results))
