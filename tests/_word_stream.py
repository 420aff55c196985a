"""The word layout that ``dvr._exact_units`` reads in bulk at p = 2 and 3,
and its units against ``randint``, checked on the running interpreter;
needs no pytest.

    PYTHONPATH=src python tests/_word_stream.py

prints the mismatches of each check and exits 1 if there are any.
``tests/test_dvr_sampling.py`` runs the same checks in the suite.
"""

import random
import sys

from splitorders.dvr import _exact_units

PRIMES = (2, 3, 5, 7, 257)  # 2 and 3 are read in bulk, the rest word by word
SEEDS = range(40)
COUNTS = (0, 1, 2, 17, 300, 2000)


def layout_mismatches(seeds=SEEDS, widths=(1, 2, 7, 64)) -> int:
    """Compare ``getrandbits(32 w)`` with w successive ``getrandbits(32)``
    words, the first one least significant, and the top byte of each word
    of that block, shifted right by 8 - k, with ``getrandbits(k)`` for
    k = 1..8."""
    bad = 0
    for seed in seeds:
        for w in widths:
            ours, theirs = random.Random(seed), random.Random(seed)
            words = [theirs.getrandbits(32) for _ in range(w)]
            bad += ours.getrandbits(32 * w) != sum(x << (32 * i) for i, x in enumerate(words))
            for k in range(1, 9):
                ours, theirs = random.Random(seed), random.Random(seed)
                tops = ours.getrandbits(32 * w).to_bytes(4 * w, "little")[3::4]
                bad += [b >> (8 - k) for b in tops] != [theirs.getrandbits(k) for _ in range(w)]
    return bad


def randint_units(rng, p, count) -> list:
    """``count`` draws of ``rng.randint(1, p^4)``, each redrawn while p
    divides it."""
    out = []
    while len(out) < count:
        u = rng.randint(1, p**4)
        if u % p:
            out.append(u)
    return out


def bulk_mismatches(primes=PRIMES, seeds=SEEDS, counts=COUNTS) -> int:
    """Compare ``_exact_units`` with ``randint_units``, on the units and on
    the state left behind; and successive ``_exact_units`` calls on one
    generator, of uneven counts with an empty one among them, with one
    call for the summed count."""
    bad = 0
    for p in primes:
        for seed in seeds:
            for count in counts:
                ours, theirs = random.Random(seed), random.Random(seed)
                bad += list(_exact_units(ours, p, count)) != randint_units(theirs, p, count)
                bad += ours.getstate() != theirs.getstate()
                sizes = (count // 3, 0, count - count // 3)
                blocks = [_exact_units(theirs, p, size) for size in sizes]
                bad += [len(block) for block in blocks] != list(sizes)
                bad += [u for block in blocks for u in block] != list(_exact_units(ours, p, count))
                bad += ours.getstate() != theirs.getstate()
    return bad


if __name__ == "__main__":
    layout, bulk = layout_mismatches(), bulk_mismatches()
    print(f"Python {sys.version.split()[0]}: {layout} layout and {bulk} unit-reader mismatches")
    sys.exit(1 if layout or bulk else 0)
