"""Independent referee implementations used by the tests.

Everything here is deliberately naive: exhaustive scans over simple
cycles, simple paths, and bounding boxes, and a drawing built as an
ElementTree.  None of it shares code with
the package, so a test that compares the two is comparing independent
derivations.
"""

import itertools
import math
import xml.etree.ElementTree as ET


def simple_cycles_nonneg(entries):
    """True when every directed simple cycle has nonnegative weight."""
    n = len(entries)
    for size in range(2, n + 1):
        for nodes in itertools.combinations(range(n), size):
            anchor = nodes[0]
            for tail in itertools.permutations(nodes[1:]):
                cycle = (anchor,) + tail + (anchor,)
                if sum(entries[a][b] for a, b in zip(cycle, cycle[1:])) < 0:
                    return False
    return True


def simple_path_closure(entries):
    """Minimum weight over simple paths per pair, or None on a negative cycle."""
    if not simple_cycles_nonneg(entries):
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
                    out[i][j] = min(out[i][j], w)
    return out


def loop_minplus_closure(entries):
    """All-pairs minimal path sums by the plain triple loop over pivots k,
    rows i and columns j, relaxing in place; None when a diagonal entry
    ends negative."""
    n = len(entries)
    dist = [list(row) for row in entries]
    for k in range(n):
        for i in range(n):
            dik = dist[i][k]
            for j in range(n):
                if dik + dist[k][j] < dist[i][j]:
                    dist[i][j] = dik + dist[k][j]
    if any(dist[i][i] < 0 for i in range(n)):
        return None
    return dist


def naive_box_points(entries):
    """All integer points of the region, by filtering the full box."""
    n = len(entries)
    axes = [range(-entries[0][i], entries[i][0] + 1) for i in range(1, n)]
    points = []
    for tail in itertools.product(*axes):
        x = (0,) + tail
        good = all(
            x[i] - x[j] <= entries[i][j]
            for i in range(n)
            for j in range(n)
            if i != j
        )
        if good:
            points.append(x)
    return points


def brute_max_difference(points, i, j):
    """Largest x_i - x_j over explicit points."""
    return max(p[i] - p[j] for p in points)


def entrywise_max(matrices):
    n = len(matrices[0])
    return [
        [max(m[i][j] for m in matrices) for j in range(n)] for i in range(n)
    ]


def incidence_by_shift(u, v):
    """Vertices are incident when some shift puts their difference in {0, 1}.

    A shift that makes every difference equal would be a homothety, so
    those do not count; checking every shift that could possibly work is
    enough because shifting moves all differences together.
    """
    diffs = [b - a for a, b in zip(u, v)]
    lo, hi = min(diffs), max(diffs)
    for c in range(-hi - 1, -lo + 2):
        shifted = [d + c for d in diffs]
        if all(s in (0, 1) for s in shifted) and len(set(shifted)) == 2:
            return True
    return False


def frac_gauss_jordan(rows):
    """(det, inverse) of a square matrix by Fraction Gauss-Jordan elimination.

    The inverse is None when the determinant is zero.  Pivots are the
    first nonzero entry in each column, and nothing is reduced modulo
    anything, so the result is the plain textbook computation.
    """
    from fractions import Fraction

    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(rows)]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0), None
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        a[col] = [x / a[col][col] for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det, [row[n:] for row in a]


def frac_matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def padic_valuation(x, p):
    """Exponent of p in a nonzero rational given as a Fraction."""
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def frac_within(rows, bounds, p):
    """Whether every nonzero entry of the Fraction rows has valuation at
    least bounds[i][j]; zero entries pass whatever the bound."""
    return all(
        x == 0 or padic_valuation(x, p) >= b
        for row, brow in zip(rows, bounds)
        for x, b in zip(row, brow)
    )


def divisors_by_minors(rows, p):
    """Elementary divisor exponents from the determinantal divisors.

    The k-th determinantal divisor is the least valuation of a k x k
    minor; the divisor exponents are its successive differences.
    """
    n = len(rows)
    least = [0]
    for k in range(1, n + 1):
        vals = []
        for rs in itertools.combinations(range(n), k):
            for cs in itertools.combinations(range(n), k):
                d, _ = frac_gauss_jordan([[rows[r][c] for c in cs] for r in rs])
                if d != 0:
                    vals.append(padic_valuation(d, p))
        least.append(min(vals))
    return tuple(least[k] - least[k - 1] for k in range(1, n + 1))


def frac_sharp_sample(rng, entries, p):
    """Element of S(nu) with entry valuations exactly nu, as Fraction rows.

    Each entry is a unit drawn by ``rng.randrange(1, p^4 + 1)``, redrawn
    on multiples of p, times p^nu[i][j]; entries are drawn row by row.
    """
    from fractions import Fraction

    rows = []
    for row in entries:
        out = []
        for e in row:
            u = rng.randrange(1, p**4 + 1)
            while u % p == 0:
                u = rng.randrange(1, p**4 + 1)
            out.append(u * Fraction(p) ** e)
        rows.append(out)
    return rows


def frac_ring_closure(entries, trials, seed, p, escapes=None):
    """Fraction form of the randomized ring-closure check.

    A non-order gets the witness p^nu[i][k] E(i, k), p^nu[k][j] E(k, j)
    for the first triple (i, j, k), scanned in that nesting, with
    nu[i][k] + nu[k][j] < nu[i][j].  An order draws ``trials`` pairs
    from ``random.Random(seed)`` and returns the first pair whose product
    ``escapes`` (by default: some entry has valuation below nu), or True.
    """
    import random
    from fractions import Fraction

    n = len(entries)
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if entries[i][k] + entries[k][j] < entries[i][j]:
                    a = [[Fraction(0)] * n for _ in range(n)]
                    b = [[Fraction(0)] * n for _ in range(n)]
                    a[i][k] = Fraction(p) ** entries[i][k]
                    b[k][j] = Fraction(p) ** entries[k][j]
                    return a, b

    def below_nu(rows):
        return any(
            x != 0 and padic_valuation(x, p) < entries[i][j]
            for i, row in enumerate(rows)
            for j, x in enumerate(row)
        )

    escapes = escapes or below_nu
    rng = random.Random(seed)
    for _ in range(trials):
        a = frac_sharp_sample(rng, entries, p)
        b = frac_sharp_sample(rng, entries, p)
        if escapes(frac_matmul(a, b)):
            return a, b
    return True


def plain_random_unit_matrix(rng, n, p, steps=4):
    """Integer rows of a random unit matrix, drawn with the plain
    ``random.Random`` calls: ``randrange`` for the kind of step,
    ``sample`` for the pair of columns, ``randint`` for the multiplier and
    the units, ``random`` for each unit's sign and ``shuffle`` for the
    permutation, which moves column r to column perm[r]."""
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0 and n >= 2:
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-p * p, p * p)
            for row in rows:
                row[j] += c * row[i]
        elif kind == 1:
            units = []
            for _ in range(n):
                w = rng.randint(1, p * p)
                while w % p == 0:
                    w = rng.randint(1, p * p)
                units.append(w if rng.random() < 0.5 else -w)
            rows = [[x * u for x, u in zip(row, units)] for row in rows]
        else:
            perm = list(range(n))
            rng.shuffle(perm)
            moved = [[0] * n for _ in range(n)]
            for new_row, row in zip(moved, rows):
                for r, x in zip(perm, row):
                    new_row[r] = x
            rows = moved
    return rows


def etree_region_svg(entries, scale=40.0):
    """SVG drawing of the region of a 3 x 3 exponent matrix, built as an
    ElementTree and serialized once: the package's former renderer, with
    the closure and the points taken from ``loop_minplus_closure`` and
    ``naive_box_points``.  No argument checks."""
    u = entries
    margin = 1.5
    closed = loop_minplus_closure(entries)
    points = naive_box_points(entries)
    fmt = "{:.2f}".format
    sqrt3_2 = math.sqrt(3.0) / 2.0

    def to_plane(x2, x3):
        return (x2 + 0.5 * x3, sqrt3_2 * x3)

    x2_lo, x2_hi = min(-u[0][1], u[1][0]) - margin, max(-u[0][1], u[1][0]) + margin
    x3_lo, x3_hi = min(-u[0][2], u[2][0]) - margin, max(-u[0][2], u[2][0]) + margin
    corners = [to_plane(a, b) for a in (x2_lo, x2_hi) for b in (x3_lo, x3_hi)]
    px_lo = min(c[0] for c in corners)
    px_hi = max(c[0] for c in corners)
    py_lo = min(c[1] for c in corners)
    py_hi = max(c[1] for c in corners)
    pad = 0.75 * scale
    width = (px_hi - px_lo) * scale + 2 * pad
    height = (py_hi - py_lo) * scale + 2 * pad

    def to_screen(x2, x3):
        px, py = to_plane(x2, x3)
        return (pad + (px - px_lo) * scale, pad + (py_hi - py) * scale)

    root = ET.Element(
        "svg",
        {
            "xmlns": "http://www.w3.org/2000/svg",
            "version": "1.1",
            "width": fmt(width),
            "height": fmt(height),
            "viewBox": f"0 0 {fmt(width)} {fmt(height)}",
        },
    )
    ET.SubElement(
        root,
        "rect",
        {"x": "0", "y": "0", "width": fmt(width), "height": fmt(height), "fill": "#ffffff"},
    )
    lattice = ET.SubElement(root, "g", {"id": "lattice", "fill": "#c8c8c8"})
    for ix2 in range(math.ceil(x2_lo), math.floor(x2_hi) + 1):
        for ix3 in range(math.ceil(x3_lo), math.floor(x3_hi) + 1):
            sx, sy = to_screen(ix2, ix3)
            ET.SubElement(lattice, "circle", {"cx": fmt(sx), "cy": fmt(sy), "r": fmt(0.06 * scale)})
    walls = [
        ("x2", -u[0][1], "#b03a2e", (0, 1)),
        ("x2", u[1][0], "#b03a2e", (1, 0)),
        ("x3", -u[0][2], "#1f618d", (0, 2)),
        ("x3", u[2][0], "#1f618d", (2, 0)),
        ("diff", -u[1][2], "#196f3d", (1, 2)),
        ("diff", u[2][1], "#196f3d", (2, 1)),
    ]
    wall_group = ET.SubElement(root, "g", {"id": "walls", "fill": "none"})
    for family, c, color, (i, j) in walls:
        if family == "x2":
            start, end = to_screen(c, x3_lo), to_screen(c, x3_hi)
        elif family == "x3":
            start, end = to_screen(x2_lo, c), to_screen(x2_hi, c)
        else:
            start, end = to_screen(x2_lo, x2_lo + c), to_screen(x2_hi, x2_hi + c)
        attrs = {
            "x1": fmt(start[0]),
            "y1": fmt(start[1]),
            "x2": fmt(end[0]),
            "y2": fmt(end[1]),
            "stroke": color,
            "stroke-width": "1.5",
        }
        if closed is None or closed[i][j] != u[i][j]:
            attrs["stroke-dasharray"] = "6 4"
        ET.SubElement(wall_group, "line", attrs)
    region = ET.SubElement(root, "g", {"id": "region", "fill": "#1a1a1a"})
    for _, x2, x3 in points:
        sx, sy = to_screen(x2, x3)
        ET.SubElement(
            region,
            "circle",
            {"id": f"pt_{x2}_{x3}", "cx": fmt(sx), "cy": fmt(sy), "r": fmt(0.12 * scale)},
        )
    body = ET.tostring(root, encoding="unicode")
    return '<?xml version="1.0" encoding="UTF-8"?>\n' + body + "\n"
