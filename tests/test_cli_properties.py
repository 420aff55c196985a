"""Property tests of the command line on arbitrary input.

Whatever JSON a file holds, ``cli.main`` returns 0, 1 or 2 and raises
nothing; exit 2 (unusable input) writes exactly one ``error:`` line to
stderr, and whenever an ``error:`` line is written, at exit 1 as well, it
is the only stderr line and stdout is empty.  Entries stay small or are a few fixed extremes, so each example
runs in milliseconds.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from splitorders.cli import main  # noqa: E402

FILE_COMMANDS = ("check", "hull", "vertices", "intersect", "roundtrip", "hijikata", "draw")

SETTINGS = settings(
    max_examples=40,
    deadline=None,
    database=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

small_ints = st.integers(-4, 6)
extremes = st.sampled_from([10**20, -(10**20), 1e300, 2.5, float("inf"), float("nan")])
# strings that look like numbers, or would split an error message in two
texts = st.one_of(st.text(max_size=3), st.sampled_from(["2", "1e3", "\n", "a\nb", "\r"]))
scalars = st.one_of(small_ints, small_ints, extremes, st.none(), st.booleans(), texts)
entries = st.one_of(small_ints, small_ints, small_ints, scalars)
keys = st.one_of(st.sampled_from(["n", "nu"]), st.text(max_size=3))


def _square(entry, sizes):
    return sizes.flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def _zero_diagonal(rows):
    for i, row in enumerate(rows):
        row[i] = 0
    return rows


# well-formed exponent matrices reach the commands; the rest test rejection
exponent_matrices = _square(small_ints, st.integers(2, 4)).map(_zero_diagonal)
matrices = st.one_of(exponent_matrices, _square(entries, st.integers(1, 4)))
vertex_lists = st.lists(
    st.lists(entries, min_size=1, max_size=4), min_size=0, max_size=4
)
anything = st.recursive(
    scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.dictionaries(keys, kids, max_size=3)
    ),
    max_leaves=16,
)
documents = st.one_of(
    matrices,
    st.fixed_dictionaries(
        {"nu": matrices}, optional={"n": st.one_of(st.integers(1, 5), scalars)}
    ),
    vertex_lists,
    anything,
)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _check_contract(code, out, err):
    assert code in (0, 1, 2)
    lines = err.splitlines()
    if code == 2 or any(line.startswith("error:") for line in lines):
        assert len(lines) == 1, err
        assert lines[0].startswith("error: ")
        assert out == "", out


@pytest.mark.parametrize("command", FILE_COMMANDS)
@SETTINGS
@given(doc=documents)
def test_main_on_arbitrary_json_files(command, doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [command, path]
        if command == "draw":
            argv += ["--out", os.path.join(tmp, "out.svg")]
        code, out, err = _run(argv)
    _check_contract(code, out, err)


@SETTINGS
@given(
    trials=st.integers(-1, 3),
    seed=st.one_of(st.integers(-5, 5), st.just(2**70)),
    n=st.sampled_from([0, 1, 2, 3, 4, 7]),
    entry_min=st.integers(-4, 2),
    entry_max=st.integers(-2, 5),
    prime=st.sampled_from([-3, 0, 1, 2, 3, 4, 5, 9, 2**61 - 1, 2**89 - 1]),
)
def test_fuzz_on_arbitrary_flags(trials, seed, n, entry_min, entry_max, prime):
    argv = ["fuzz", "--trials", str(trials), "--seed", str(seed), "--n", str(n),
            "--min", str(entry_min), "--max", str(entry_max), "--prime", str(prime)]
    code, out, err = _run(argv)
    _check_contract(code, out, err)


@SETTINGS
@given(
    value=st.integers(-(10**400), 10**400),
    form=st.sampled_from(["{}.0", "{}e0", "{}.000E+0"]),
)
def test_integers_written_as_floats_round_trip_exactly(value, form):
    """A vertex [x, 0] gives exponents [[0, x], [-x, 0]], so x reappears."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "verts.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"[[{form.format(value)}, 0]]")
        code, out, err = _run(["intersect", path])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"n": 2, "nu": [[0, value], [-value, 0]]}
