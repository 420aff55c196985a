import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import splitorders
from splitorders.cli import UsageError, build_parser, cmd_fuzz, main
from splitorders.fuzz import FuzzConfig, FuzzReport

NU = {"n": 3, "nu": [[0, 0, 1], [3, 0, 1], [3, 2, 0]]}
NU_PRIME = {"n": 3, "nu": [[0, 0, 2], [3, 0, 1], [3, 2, 0]]}


@pytest.fixture
def nu_file(tmp_path):
    path = tmp_path / "nu.json"
    path.write_text(json.dumps(NU))
    return str(path)


@pytest.fixture
def nu_prime_file(tmp_path):
    path = tmp_path / "nu_prime.json"
    path.write_text(json.dumps(NU_PRIME))
    return str(path)


def test_check_order(nu_file, capsys):
    assert main(["check", nu_file]) == 0
    out = capsys.readouterr().out
    assert "order: true" in out
    assert "reduced: true" in out
    assert "feasible: true" in out
    assert "violated" not in out


def test_check_non_order_cites_the_violated_triple(nu_prime_file, capsys):
    assert main(["check", nu_prime_file]) == 1
    out = capsys.readouterr().out
    assert "order: false" in out
    assert "reduced: false" in out
    assert "violated: (1,3) via k=2" in out
    assert 'hull: {"n": 3, "nu": [[0, 0, 1], [3, 0, 1], [3, 2, 0]]}' in out


def test_check_zero_matrix(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text("[[0, 0], [0, 0]]")
    assert main(["check", str(path)]) == 0
    assert "order: true" in capsys.readouterr().out


def test_check_negative_cycle_has_no_hull(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"n": 2, "nu": [[0, -2], [1, 0]]}))
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "feasible: false" in out
    assert "hull: unavailable (negative cycle)" in out


def test_check_output_is_byte_identical(nu_prime_file, capsys):
    main(["check", nu_prime_file])
    first = capsys.readouterr()
    main(["check", nu_prime_file])
    second = capsys.readouterr()
    assert first.out == second.out


def test_parse_failures_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    diag = tmp_path / "diag.json"
    diag.write_text("[[1, 0], [0, 0]]")
    assert main(["check", str(diag)]) == 2
    capsys.readouterr()


def test_usage_failures_exit_two(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    assert main(["fuzz", "--trials", "0"]) == 2
    assert main(["fuzz", "--min", "4", "--max", "1"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "command",
    ["main", "check", "hull", "vertices", "intersect", "roundtrip", "hijikata", "draw", "fuzz"],
)
def test_help_matches_golden(monkeypatch, capsys, command):
    """Fuzz parser dests are named after FuzzConfig fields; help text must not show them."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = ["--help"] if command == "main" else [command, "--help"]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == (Path(__file__).parent / "golden" / "help" / f"{command}.txt").read_text()


def test_hull(nu_prime_file, capsys):
    assert main(["hull", nu_prime_file]) == 0
    assert json.loads(capsys.readouterr().out) == NU


def test_hull_negative_cycle(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"n": 2, "nu": [[0, -2], [1, 0]]}))
    assert main(["hull", str(path)]) == 1
    assert "negative cycle" in capsys.readouterr().err


def test_hull_and_roundtrip_print_the_same_negative_cycle_line(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    path.write_text("[[0, -2], [1, 0]]")
    for command in ("hull", "roundtrip"):
        assert main([command, str(path)]) == 1
        assert capsys.readouterr() == (
            "", "error: exponent matrix has a negative cycle; no order contains it\n"
        )


PAST_THE_FLOAT_RANGE = "drawing coordinates are past the float range"


@pytest.mark.parametrize(
    "argv, text, message",
    [
        (["intersect"], "[]", "intersection over an empty vertex family"),
        (["intersect"], "[[0, 1], [0, 1, 2]]", "vertices of different dimension"),
        (["hijikata"], json.dumps(NU), "normal form needs n = 2, got n = 3"),
        (["draw", "--out", "x.svg"], "[[0, 1], [1, 0]]", "drawing needs n = 3, got n = 2"),
        (
            ["vertices"],
            "[[0, 1000, 1000], [1000, 0, 1000], [1000, 1000, 0]]",
            "bounding box has more than 1000000 cells",
        ),
        (
            ["draw", "--out", "x.svg"],
            "[[0, 1200, 1200], [1200, 0, -5], [1200, -5, 0]]",
            "drawing window has more than 1000000 cells",
        ),
        (
            ["draw", "--out", "x.svg"],
            "[[0, 0, 0], [998, 0, 0], [998, 0, 0]]",
            "drawing window has more than 1000000 cells",
        ),
        *[
            (["draw", "--out", "x.svg"], json.dumps({"nu": rows}), PAST_THE_FLOAT_RANGE)
            for rows in (
                [[0, -10**400, 0], [10**400, 0, 10**400], [0, -10**400, 0]],
                [[0, 0, 0], [1, 0, 10**400], [1, 10**400, 0]],
                [[0, 0, 0], [1, 0, 10**307], [1, 10**307, 0]],
            )
        ],
    ],
    ids=[
        "intersect-empty",
        "intersect-mixed",
        "hijikata-n3",
        "draw-n2",
        "vertices-guard",
        "draw-empty-window",
        "draw-feasible-window",
        "draw-float-corner",
        "draw-float-diagonal",
        "draw-float-inf",
    ],
)
def test_domain_failures_exit_one_with_one_error_line(
    tmp_path, monkeypatch, capsys, argv, text, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "input.json").write_text(text)
    assert main([argv[0], "input.json", *argv[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not (tmp_path / "x.svg").exists()


def _zero_matrix_file(tmp_path, n):
    path = tmp_path / f"zero{n}.json"
    path.write_text(json.dumps([[0] * n for _ in range(n)]))
    return str(path)


@pytest.mark.parametrize("command", ["check", "hull", "vertices", "roundtrip"])
def test_a_matrix_over_the_dimension_limit_exits_one_before_any_closure(
    tmp_path, monkeypatch, capsys, command
):
    """An O(n^3) closure at n = 600 took 13.5 s; n over 256 is refused on loading."""
    from splitorders import exponent

    closures = []
    monkeypatch.setattr(exponent, "minplus_closure", lambda rows: closures.append(rows))
    path = _zero_matrix_file(tmp_path, 257)
    assert main([command, path]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: n = 257 is over the command line's limit of 256\n"
    )
    assert closures == []


def test_the_dimension_limit_admits_n_256(tmp_path, capsys):
    path = _zero_matrix_file(tmp_path, 256)
    assert main(["hijikata", path]) == 1
    assert capsys.readouterr() == ("", "error: normal form needs n = 2, got n = 256\n")


def test_a_vertex_over_the_dimension_limit_exits_one_before_intersecting(
    tmp_path, monkeypatch, capsys
):
    """A 300-coordinate vertex printed 440 KB; the intersection grows as n^2."""
    from splitorders import cli

    calls = []
    monkeypatch.setattr(cli, "intersect_maximal", lambda vertices: calls.append(vertices))
    path = tmp_path / "long.json"
    path.write_text(json.dumps([[0, 1], list(range(257))]))
    assert main(["intersect", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: {path}: n = 257 is over the command line's limit of 256\n"
    )
    assert calls == []


def test_the_dimension_limit_admits_a_vertex_of_256_coordinates(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text(json.dumps([list(range(256))]))
    assert main(["intersect", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 256
    assert out["nu"][1][0] == 1 and out["nu"][0][255] == -255


def test_vertices(nu_file, capsys):
    assert main(["vertices", nu_file]) == 0
    captured = capsys.readouterr()
    points = json.loads(captured.out)
    assert len(points) == 13
    assert points[0] == [0, 0, -1]
    assert "13 lattice points" in captured.err


def test_intersect(tmp_path, capsys):
    path = tmp_path / "verts.json"
    path.write_text("[[0, 0, -1], [0, 3, 2], [0, 1, 3]]")
    assert main(["intersect", str(path)]) == 0
    assert json.loads(capsys.readouterr().out) == NU


def test_intersect_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("[[0, 2, -1]]"))
    assert main(["intersect", "-"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nu"] == [[0, -2, 1], [2, 0, 3], [-1, -3, 0]]


def test_intersect_rejects_empty_and_mismatched(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    assert main(["intersect", str(empty)]) == 1
    mixed = tmp_path / "mixed.json"
    mixed.write_text("[[0, 1], [0, 1, 2]]")
    assert main(["intersect", str(mixed)]) == 1
    capsys.readouterr()


def test_roundtrip(nu_file, capsys):
    assert main(["roundtrip", nu_file]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hull_fixed"] and data["input_reduced"] and data["reduced_fixed"]
    assert len(data["vertices"]) == 13


def test_roundtrip_infeasible(tmp_path, capsys):
    path = tmp_path / "cyc.json"
    path.write_text(json.dumps({"n": 2, "nu": [[0, -2], [1, 0]]}))
    assert main(["roundtrip", str(path)]) == 1
    capsys.readouterr()


def test_hijikata(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text("[[0, -2], [5, 0]]")
    assert main(["hijikata", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_hijikata_non_order_exits_one(tmp_path, capsys):
    path = tmp_path / "h.json"
    path.write_text("[[0, -2], [1, 0]]")
    assert main(["hijikata", str(path)]) == 1
    capsys.readouterr()


def test_hijikata_wrong_dimension_exits_one(nu_file, capsys):
    assert main(["hijikata", nu_file]) == 1
    capsys.readouterr()


def test_draw(nu_file, tmp_path, capsys):
    out = tmp_path / "fig.svg"
    assert main(["draw", nu_file, "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert f"wrote {out}" in captured.err
    text = out.read_text()
    assert text.startswith("<?xml")
    assert text.count("pt_") == 13


def test_draw_scale_flag_changes_output(nu_file, tmp_path, capsys):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    main(["draw", nu_file, "--out", str(a)])
    main(["draw", nu_file, "--out", str(b), "--scale", "80"])
    capsys.readouterr()
    assert a.read_text() != b.read_text()


def test_draw_rejects_two_by_two(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text("[[0, 1], [1, 0]]")
    assert main(["draw", str(path), "--out", str(tmp_path / "x.svg")]) == 1
    capsys.readouterr()


def test_draw_unwritable_output_exits_two(nu_file, tmp_path, capsys):
    target = tmp_path / "missing" / "x.svg"
    assert main(["draw", nu_file, "--out", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {target}: ")
    assert err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize("scale", ["nan", "inf"])
def test_draw_rejects_non_finite_scale(nu_file, tmp_path, capsys, scale):
    target = tmp_path / "x.svg"
    assert main(["draw", nu_file, "--out", str(target), "--scale", scale]) == 2
    assert capsys.readouterr().err == "error: scale must be a positive finite number\n"
    assert not target.exists()


def test_fuzz_rejects_non_prime(capsys):
    assert main(["fuzz", "--prime", "4", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 4 is not prime\n"
    with pytest.raises(ValueError):
        FuzzConfig(prime=4)


def test_fuzz_rejects_an_entry_range_past_the_enumeration_guard(capsys):
    """A wide range used to run for seconds and then exit 1 from one check's guard."""
    assert main(["fuzz", "--max", "100", "--trials", "30", "--seed", "1"]) == 2
    assert capsys.readouterr() == (
        "",
        "error: entry range too wide: a region box at n = 4 can have 8120601 cells, "
        "more than 1000000\n",
    )


def test_fuzz_small_run(capsys):
    assert main(["fuzz", "--trials", "40", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("seed: 5\n")
    assert "ok   order-iff-reduced" in out
    assert "FAIL" not in out


def test_fuzz_is_deterministic(capsys):
    main(["fuzz", "--trials", "40", "--seed", "5"])
    first = capsys.readouterr().out
    main(["fuzz", "--trials", "40", "--seed", "5"])
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize(
    "argv, golden",
    [
        (["--seed", "1", "--trials", "300"], "fuzz_seed1_trials300.txt"),
        (
            ["--seed", "7", "--prime", "3", "--n", "5", "--trials", "300"],
            "fuzz_seed7_prime3_n5_trials300.txt",
        ),
        (["--seed", "3", "--prime", "7", "--trials", "300"], "fuzz_seed3_prime7_trials300.txt"),
    ],
)
def test_fuzz_replays_golden_output(capsys, argv, golden):
    assert main(["fuzz", *argv]) == 0
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    assert capsys.readouterr().out == expected


def _run_module(*args, stdin=""):
    """``python -m splitorders`` on the package under test, in a child process."""
    src = str(Path(splitorders.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "splitorders", *args],
        input=stdin,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "stdin, code",
    [("[[0, 1], [0, 0]]", 0), ("[[0, -2], [1, 0]]", 1), ("[[0, 1.5], [0, 0]]", 2)],
    ids=["order", "negative-cycle", "bad-entry"],
)
def test_python_dash_m_runs_the_cli(monkeypatch, capsys, stdin, code):
    """``python -m splitorders check -`` prints and exits as ``main`` does."""
    done = _run_module("check", "-", stdin=stdin + "\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin + "\n"))
    assert main(["check", "-"]) == done.returncode == code
    captured = capsys.readouterr()
    assert (done.stdout, done.stderr) == (captured.out, captured.err)
    if code == 2:
        assert done.stdout == "" and done.stderr.startswith("error: ")
        assert done.stderr.count("\n") == 1


BOUND = 3317044064679887385961981
NEED_N = "need 2 <= n_max"
ABOVE_6 = "dimensions above 6 are not supported"


@pytest.mark.parametrize(
    "flags, message",
    [
        pytest.param(["--trials", "0"], "trial count must be >= 1", id="trials-0"),
        pytest.param(["--trials", "-5"], "trial count must be >= 1", id="trials-negative"),
        pytest.param(["--min", "3", "--max", "-3"], "entry range is empty", id="empty-range"),
        pytest.param(["--n", "1"], NEED_N, id="n-1"),
        pytest.param(["--n", "0"], NEED_N, id="n-0"),
        pytest.param(["--n", "-3"], NEED_N, id="n-negative"),
        pytest.param(["--n", "7"], ABOVE_6, id="n-7"),
        pytest.param(["--prime", "4"], "4 is not prime", id="prime-4"),
        pytest.param(["--prime", "1"], "prime must be >= 2, got 1", id="prime-1"),
        pytest.param(
            ["--prime", str(BOUND)], f"prime must be below {BOUND}, got {BOUND}",
            id="prime-bound",
        ),
        pytest.param(
            ["--n", "6", "--max", "8"],
            "entry range too wide: a region box at n = 6 can have 1419857 cells, "
            "more than 1000000",
            id="box-guard",
        ),
        # several bad flags: the first failing check is the one reported
        pytest.param(
            ["--trials", "0", "--min", "3", "--max", "-3", "--n", "9", "--prime", "4"],
            "trial count must be >= 1",
            id="first-of-all",
        ),
        pytest.param(
            ["--min", "3", "--max", "-3", "--n", "9", "--prime", "4"],
            "entry range is empty",
            id="range-before-dimension",
        ),
        pytest.param(["--n", "9", "--prime", "4"], ABOVE_6, id="dimension-before-prime"),
        pytest.param(["--n", "1", "--prime", "4"], NEED_N, id="low-n-before-prime"),
        pytest.param(["--max", "50", "--prime", "4"], "4 is not prime", id="prime-before-box"),
        pytest.param(["--max", "50", "--n", "7"], ABOVE_6, id="dimension-before-box"),
    ],
)
def test_bad_fuzz_flags_exit_two_with_one_error_line(capsys, flags, message):
    assert main(["fuzz", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "flags, expected",
    [
        ([], FuzzConfig()),
        (["--n", "3", "--seed", "2", "--max", "4"], FuzzConfig(n_max=3, seed=2, entry_max=4)),
    ],
    ids=["no-flags", "some-flags"],
)
def test_fuzz_flags_left_out_take_the_config_defaults(monkeypatch, capsys, flags, expected):
    from splitorders import cli

    configs = []
    monkeypatch.setattr(cli, "run_fuzz", lambda config: configs.append(config) or FuzzReport(0, ()))
    assert main(["fuzz", *flags]) == 0
    assert configs == [expected]
    assert capsys.readouterr().out == "seed: 0\n"


def test_fuzz_usage_error_keeps_the_library_error_as_cause():
    with pytest.raises(UsageError) as info:
        cmd_fuzz(build_parser().parse_args(["fuzz", "--prime", "4"]))
    assert str(info.value) == "4 is not prime"
    assert type(info.value.__cause__) is ValueError
    assert str(info.value.__cause__) == "4 is not prime"


@pytest.mark.parametrize("scale", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize(
    "text", [json.dumps(NU), "[[0, 1], [0, 0]]", "{not json", None],
    ids=["3x3", "2x2", "malformed", "missing"],
)
def test_bad_scale_exits_two_whatever_the_input(tmp_path, capsys, scale, text):
    """The scale is checked before the input is read: a 2 x 2 input would
    exit 1 and a malformed or missing one report itself."""
    path = tmp_path / "in.json"
    if text is not None:
        path.write_text(text)
    target = tmp_path / "x.svg"
    assert main(["draw", str(path), "--out", str(target), "--scale", scale]) == 2
    assert capsys.readouterr() == ("", "error: scale must be a positive finite number\n")
    assert not target.exists()


@pytest.mark.parametrize(
    "text, shown",
    [
        ("[[0, 1.7], [0.9, 0]]", "1.7"),
        ('{"n": 2, "nu": [[0, 1e400], [0, 0]]}', "inf"),
        ("[[0, true], [1, 0]]", "True"),
        ('[[0, "2"], [1, 0]]', "'2'"),
    ],
)
def test_non_integer_entries_exit_two(tmp_path, capsys, text, shown):
    path = tmp_path / "nu.json"
    path.write_text(text)
    for command in ("check", "hull", "roundtrip"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: not an exponent matrix (entry {shown} is not an integer)\n"
        )


def test_integral_float_entries_read_as_integers(tmp_path, capsys):
    path = tmp_path / "nu.json"
    path.write_text("[[0, 2.0], [-1.0, 0]]")
    assert main(["hull", str(path)]) == 0
    assert capsys.readouterr().out == '{"n": 2, "nu": [[0, 2], [-1, 0]]}\n'


@pytest.mark.parametrize("text", ["[[0, 1.5]]", "[[0, 1e400]]", "[[0, false]]"])
def test_non_integer_vertex_coordinates_exit_two(tmp_path, capsys, text):
    path = tmp_path / "verts.json"
    path.write_text(text)
    assert main(["intersect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: not a vertex list (entry ")
    assert captured.err.count("\n") == 1


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(
    not 0 < _DIGIT_LIMIT < 5000, reason="needs an int-digit limit under 5000 digits"
)
@pytest.mark.parametrize(
    "command, text",
    [
        ("check", "[[0, {big}], [0, 0]]"),
        ("hull", '{{"n": 2, "nu": [[0, 0], [-{big}, 0]]}}'),
        ("roundtrip", "[[0, {big}], [0, 0]]"),
        ("intersect", "[[0, {big}], [0, 0]]"),
    ],
)
def test_an_entry_past_the_int_digit_limit_exits_two(tmp_path, capsys, command, text):
    """json.loads refuses an integer of more digits than the interpreter's
    limit with a plain ValueError, which used to escape as a traceback."""
    path = tmp_path / "big.json"
    path.write_text(text.format(big="9" * 5000))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: number too long (")
    assert captured.err.count("\n") == 1


def test_fuzz_accepts_a_large_prime(capsys):
    assert main(["fuzz", "--prime", "2305843009213693951", "--trials", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_fuzz_rejects_primes_beyond_the_bound(capsys):
    assert main(["fuzz", "--prime", "3317044064679887385961981", "--trials", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: prime must be below 3317044064679887385961981, "
        "got 3317044064679887385961981\n"
    )


@pytest.mark.parametrize(
    "data, message",
    [
        (b"\xff\xfe[[0, 1], [1, 0]]", "cannot read {path}: 'utf-8' codec can't decode"),
        (b"[" * 100000 + b"]" * 100000, "{path}: not valid JSON (nested too deeply)"),
        (
            b'{"n": "a\\nb", "nu": [[0, 0], [0, 0]]}',
            "{path}: not an exponent matrix (declared n = 'a\\nb' but matrix has n = 2)",
        ),
    ],
    ids=["not-utf8", "deep-nesting", "line-break-in-n"],
)
def test_unreadable_input_is_one_error_line(tmp_path, capsys, data, message):
    """Bytes that are not UTF-8, nesting deeper than the recursion limit and
    a declared n holding a line break each used to escape as a traceback or
    split the error in two."""
    path = tmp_path / "input.json"
    path.write_bytes(data)
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: " + message.format(path=path))
    assert captured.err.count("\n") == 1
    assert main(["intersect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.skipif(
    not 0 < _DIGIT_LIMIT <= 4300, reason="needs an int-digit limit of at most 4300 digits"
)
def test_intersect_past_the_int_digit_limit_exits_two(tmp_path, capsys):
    """Each coordinate fits the limit, but m_i - m_j has 4301 digits."""
    path = tmp_path / "verts.json"
    nines = "9" * 4300
    path.write_text(f"[[{nines}, -{nines}]]")
    assert main(["intersect", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: result too long to print (")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, printed",
    [
        ('{"nu": [[0, 9007199254740993.0], [0, 0]]}', "[[0, 9007199254740993], [0, 0]]"),
        ("[[0, 1e3], [-2.50e1, 0]]", "[[0, 1000], [-25, 0]]"),
        ("[[0, 120E-1], [-0.0, 0]]", "[[0, 12], [0, 0]]"),
    ],
)
def test_float_literals_are_read_exactly(tmp_path, capsys, text, printed):
    path = tmp_path / "nu.json"
    path.write_text(text)
    assert main(["hull", str(path)]) == 0
    assert capsys.readouterr() == (f'{{"n": 2, "nu": {printed}}}\n', "")


@pytest.mark.parametrize(
    "literal",
    ["1.0000000000000001", "-1.00000000000000001e0", "1e-400", "9007199254740993.5"],
)
def test_non_integral_literals_exit_two_even_when_a_float_rounds_them(
    tmp_path, capsys, literal
):
    """The float of each literal is an integer; the literal is not."""
    path = tmp_path / "nu.json"
    path.write_text(f"[[0, {literal}], [0, 0]]")
    for command in ("check", "hull", "intersect"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"(entry {literal} is not an integer)\n")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"nu": [[0, 1], [0, 0]], "nu": [[0, -5], [0, 0]]}',
            "{path}: not valid JSON (repeated key 'nu')",
        ),
        (
            '{"n": 2, "nu": [[0, 1], [0, 0]], "n": 2}',
            "{path}: not valid JSON (repeated key 'n')",
        ),
        (
            '{"nu": [[0, 1], [0, 0]], "extra": 5}',
            "{path}: not an exponent matrix (unknown field 'extra'; the fields are 'n' and 'nu')",
        ),
    ],
    ids=["repeated-nu", "repeated-n", "unknown-key"],
)
def test_repeated_and_unknown_keys_exit_two(tmp_path, capsys, text, message):
    """A repeated key used to read as its last value, and an unknown key was
    ignored; both are now refused with one error line."""
    path = tmp_path / "nu.json"
    path.write_text(text)
    for command in ("check", "hull"):
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured == ("", f"error: {message.format(path=path)}\n")
