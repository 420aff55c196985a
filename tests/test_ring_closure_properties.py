"""``ring_closure_check`` against its Fraction reference on random orders,
with trial counts on both sides of the draw's block boundary.

The check reads its own generator ``dvr._BLOCK_TRIALS`` trials at a time,
at p = 2 and 3 in bulk and ahead of the units it uses; the samples and the
witness must still be those of the ``randint`` stream.
"""

import itertools
from unittest import mock

import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from _oracles import frac_ring_closure  # noqa: E402
from splitorders import dvr  # noqa: E402
from splitorders.dvr import ring_closure_check  # noqa: E402
from splitorders.exponent import ExponentMatrix  # noqa: E402

BLOCK = dvr._BLOCK_TRIALS
PRIMES = (2, 3, 5, 7)  # 2 and 3 are read in bulk, 5 and 7 word by word
# no shrinking: each example runs the Fraction reference over up to 259
# trials, so shrinking a failure took minutes; it is reported as drawn
SETTINGS = settings(
    max_examples=8,
    deadline=None,
    database=None,
    derandomize=True,
    phases=(Phase.explicit, Phase.generate),
)


@st.composite
def orders(draw):
    """An intersection of one or two maximal orders: nu[i][j] is the larger
    of m_i - m_j over the vertices m, so some entries are negative."""
    n = draw(st.integers(2, 4))
    vertices = draw(
        st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n), min_size=1, max_size=2)
    )
    return [[max(m[i] - m[j] for m in vertices) for j in range(n)] for i in range(n)]


trial_counts = st.one_of(
    st.sampled_from((1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1)), st.integers(1, 2 * BLOCK + 3)
)
seeds = st.integers(0, 2**32 - 1)


def _as_fractions(pair):
    return tuple([list(row) for row in m.fractions()] for m in pair)


@pytest.mark.parametrize("p", PRIMES)
@SETTINGS
@given(entries=orders(), trials=trial_counts, seed=seeds)
@example(entries=[[0, -1, 1], [1, 0, 2], [-1, -2, 0]], trials=2 * BLOCK + 1, seed=7)
@example(entries=[[0, 1, 2, 0], [0, 0, 1, 0], [0, 0, 0, 0], [0, 1, 2, 0]], trials=BLOCK + 1, seed=8)
def test_ring_closure_passes_an_order_on_the_reference_stream(entries, p, trials, seed):
    assert frac_ring_closure(entries, trials, seed, p) is True
    assert ring_closure_check(ExponentMatrix(entries), trials=trials, seed=seed, prime=p) is True


def _escape_at(index):
    """An ``escapes`` predicate that holds at its ``index``-th call alone."""
    calls = itertools.count()
    return lambda rows: next(calls) == index


@pytest.mark.parametrize("p", PRIMES)
@SETTINGS
@given(entries=orders(), seed=seeds, data=st.data())
def test_a_forced_escape_in_the_second_block_returns_the_reference_pair(entries, p, seed, data):
    """Membership is made to fail at one trial index past the first block:
    the witness is that trial's pair, drawn from the same stream."""
    index = data.draw(st.integers(BLOCK, 2 * BLOCK - 1), label="index")
    trials = data.draw(st.integers(index + 1, 2 * BLOCK + 3), label="trials")
    escapes = _escape_at(index)
    stricter = lambda bounds, vden, prime: lambda rows: not escapes(rows)  # noqa: E731
    with mock.patch.object(dvr, "_membership_test", stricter):
        got = ring_closure_check(ExponentMatrix(entries), trials=trials, seed=seed, prime=p)
    want = frac_ring_closure(entries, trials, seed, p, _escape_at(index))
    assert want is not True
    assert _as_fractions(got) == want
