"""The CLI output contract, replayed from a committed corpus.

``golden/cli_corpus.jsonl`` holds one input per line and, per
subcommand run on it, the exit code and the sha256 of stdout, of stderr
and, for ``draw``, of the SVG written.  The inputs are:

* the 400 small inputs of the ``cli-small`` benchmark workload at seed
  1 (n 2-6), with the subcommands that workload runs on them;
* the n = 6 matrix with every off-diagonal entry 6 (70,993 points),
  through ``check``, ``hull`` and ``vertices`` only, as its
  ``roundtrip`` alone takes about a second;
* a one-point region inside a declared box of 10^12 cells;
* one input over each n = 256 guard: an exponent matrix and a vertex
  list.

Each run reads its input from standard input (``-``) and ``draw``
writes ``region.svg`` in the working directory, so no path of the
machine reaches stdout or stderr.  ``golden/make_cli_corpus.py``
re-records the file; an entry may change only with a documented change
of behaviour.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from collections import Counter
from pathlib import Path

from splitorders import cli

CORPUS = Path(__file__).parent / "golden" / "cli_corpus.jsonl"
SVG = "region.svg"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(value, argv: list) -> dict:
    """``splitorders argv[0] - argv[1:]`` in process, with ``value`` as JSON
    on standard input: the exit code and the digests of what it wrote."""
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(value))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([argv[0], "-", *argv[1:]])
    finally:
        sys.stdin = stdin
    run = {
        "argv": argv,
        "exit": code,
        "stdout": _sha(out.getvalue()),
        "stderr": _sha(err.getvalue()),
    }
    if argv[0] == "draw":
        run["svg"] = None
        if os.path.exists(SVG):
            run["svg"] = _sha(Path(SVG).read_text(encoding="utf-8"))
            os.remove(SVG)
    return run


def test_cli_output_matches_the_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    # building the parser takes 1-2 ms, most of a small run; the help
    # goldens pin it, so the replay builds it once
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: parser)
    entries = [json.loads(line) for line in CORPUS.read_text().splitlines()]
    commands = Counter()
    mismatched = []
    for number, entry in enumerate(entries, 1):
        for want in entry["runs"]:
            commands[want["argv"][0]] += 1
            got = replay(entry["input"], want["argv"])
            if got != want:
                mismatched.append(f"line {number}, {want['argv']}: {got} != {want}")
    # a truncated corpus must not pass
    assert len(entries) == 404
    assert commands == {
        "check": 203, "hull": 203, "vertices": 203, "roundtrip": 202,
        "hijikata": 42, "draw": 42, "intersect": 201,
    }
    assert mismatched == []
