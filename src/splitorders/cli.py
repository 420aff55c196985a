"""Command line front end.

Exit codes are a stable contract: 0 is success (for ``check``, an order),
1 is a domain failure (a non-order, an infeasible hull, a fuzz
counterexample), 2 is unusable input (bad flags, unreadable file,
malformed JSON).  Output is deterministic for a fixed (input, seed)
pair.  Commands print results and raise; only ``main`` prints ``error:``.
``UsageError`` exits 2, as does a ``fuzz`` range whose widest region box,
(2 max(--max, 0) + 1)^(--n - 1) cells, is over the enumeration guard.
Other ``SplitOrderError``s exit 1: a negative cycle, a region over the
guard, a ``draw`` window (the box widened by 1.5 lattice steps) over
the guard, checked for an empty region too, and so refusing a region
whose box passes the guard but whose window does not, a ``draw`` whose
coordinates are past the float range, an empty or mixed vertex list,
``hijikata`` at n != 2, ``draw`` at n != 3, an exponent matrix with n
over ``MAX_INPUT_DIMENSION`` (256), refused on loading before any
closure is computed, and an ``intersect`` vertex list in which a vertex
has more than ``MAX_INPUT_DIMENSION`` coordinates, refused on loading
before any intersection is computed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Optional, Sequence

from .correspondence import ApartmentVertex, intersect_maximal, verify_roundtrip
from .errors import SplitOrderError, UnsupportedDimensionError
from .exponent import (
    ExponentMatrix,
    first_violation,
    has_containing_maximal,
    hijikata_normal_form,
    is_order,
    order_hull,
)
from .fuzz import FuzzConfig, run_fuzz
from .polytope import enumerate_lattice_points, is_reduced
from .render import check_drawing_options, render_polytope_svg


# largest n of an exponent matrix read from input: about 1 s of closure
MAX_INPUT_DIMENSION = 256


class UsageError(Exception):
    """Input that could not even be parsed; maps to exit code 2."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


class _NotAnInteger:
    """A JSON number with no integer value; its repr is the literal."""

    __slots__ = ("literal",)

    def __init__(self, literal: str):
        self.literal = literal

    def __repr__(self) -> str:
        return self.literal


def _json_number(literal: str):
    """The value of a JSON number written with a fraction or an exponent.

    The literal is read exactly from its digits and exponent, so an
    integral value is that int (``2.0`` and ``1e3`` read as 2 and 1000).
    Any other value is refused by every integer check: it reads as its
    float when that is not integral either (``1.5``), else as a
    ``_NotAnInteger`` (``1.0000000000000001``).  An exponent that
    carries the value past the float range (``1e400``) gives the float
    infinity, so a short literal never becomes a huge integer.
    """
    mantissa, _, exponent = literal.lower().partition("e")
    whole, _, fraction = mantissa.partition(".")
    digits = (whole.lstrip("-") + fraction).lstrip("0")
    if not digits:
        return 0
    shift = (int(exponent) if exponent else 0) - len(fraction)
    if shift > 0 and abs(float(literal)) == float("inf"):
        return float(literal)
    if shift < 0:
        if digits[shift:].strip("0"):
            approx = float(literal)
            return _NotAnInteger(literal) if approx.is_integer() else approx
        digits, shift = digits[:shift], 0
    value = int(digits) * 10**shift
    return -value if whole.startswith("-") else value


def _load_json(path: str):
    text = _read_text(path)

    def unique_keys(pairs: list) -> dict:
        # an object that writes a key twice is refused, not read as its last value
        obj = dict(pairs)
        if len(obj) < len(pairs):
            seen = set()
            for key, _ in pairs:
                if key in seen:
                    raise UsageError(f"{path}: not valid JSON (repeated key {key!r})")
                seen.add(key)
        return obj

    try:
        return json.loads(text, parse_float=_json_number, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: not valid JSON ({exc})") from exc
    except RecursionError as exc:
        raise UsageError(f"{path}: not valid JSON (nested too deeply)") from exc
    except ValueError as exc:
        # a number past the interpreter's int-digit limit
        raise UsageError(f"{path}: number too long ({exc})") from exc


def _exponent_matrix(data) -> ExponentMatrix:
    """Exponent matrix from a JSON object {"n": ..., "nu": ...} or bare rows."""
    if isinstance(data, list):
        return ExponentMatrix(data)
    return ExponentMatrix.from_json_dict(data)


def _load(path: str, build: Callable = _exponent_matrix, noun: str = "an exponent matrix"):
    """``build`` applied to the JSON in ``path``; bad data is a UsageError, and an
    exponent matrix, or a vertex list with a vertex, over ``MAX_INPUT_DIMENSION``
    an UnsupportedDimensionError."""
    data = _load_json(path)
    try:
        value = build(data)
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{path}: not {noun} ({exc})") from exc
    if isinstance(value, ExponentMatrix):
        n = value.n
    else:
        n = max((v.n for v in value), default=0)
    if n > MAX_INPUT_DIMENSION:
        raise UnsupportedDimensionError(
            f"{path}: n = {n} is over the command line's limit of {MAX_INPUT_DIMENSION}"
        )
    return value


def _bool(flag: bool) -> str:
    return "true" if flag else "false"


def cmd_check(ns: argparse.Namespace) -> int:
    nu = _load(ns.input_path)
    order = is_order(nu)
    feasible = has_containing_maximal(nu)
    print(f"order: {_bool(order)}")
    print(f"reduced: {_bool(is_reduced(nu))}")
    print(f"feasible: {_bool(feasible)}")
    if order:
        return 0
    i, k, j = first_violation(nu)
    print(f"violated: ({i + 1},{j + 1}) via k={k + 1}")
    if feasible:
        print(f"hull: {json.dumps(order_hull(nu).to_json_dict())}")
    else:
        print("hull: unavailable (negative cycle)")
    return 1


def cmd_hull(ns: argparse.Namespace) -> int:
    nu = _load(ns.input_path)
    print(json.dumps(order_hull(nu).to_json_dict()))
    return 0


def cmd_vertices(ns: argparse.Namespace) -> int:
    nu = _load(ns.input_path)
    points = enumerate_lattice_points(nu)
    print(json.dumps([list(p.m) for p in points]))
    print(f"{len(points)} lattice points", file=sys.stderr)
    return 0


def cmd_intersect(ns: argparse.Namespace) -> int:
    vertices = _load(ns.input_path, lambda data: list(map(ApartmentVertex, data)), "a vertex list")
    mu = intersect_maximal(vertices)
    try:
        text = json.dumps(mu.to_json_dict())
    except ValueError as exc:
        # an entry m_i - m_j past the interpreter's int-digit limit
        raise UsageError(f"{ns.input_path}: result too long to print ({exc})") from exc
    print(text)
    return 0


def cmd_roundtrip(ns: argparse.Namespace) -> int:
    nu = _load(ns.input_path)
    report = verify_roundtrip(nu)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0 if report.ok else 1


def cmd_hijikata(ns: argparse.Namespace) -> int:
    nu = _load(ns.input_path)
    print(hijikata_normal_form(nu))
    return 0


def cmd_draw(ns: argparse.Namespace) -> int:
    try:
        check_drawing_options(ns.scale)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    nu = _load(ns.input_path)
    svg = render_polytope_svg(nu, scale=ns.scale)
    try:
        with open(ns.out_path, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:
        raise UsageError(f"cannot write {ns.out_path}: {exc}") from exc
    print(f"wrote {ns.out_path}", file=sys.stderr)
    return 0


def cmd_fuzz(ns: argparse.Namespace) -> int:
    try:
        config = FuzzConfig(**{k: v for k, v in vars(ns).items() if k != "subcommand"})
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    report = run_fuzz(config)
    print(f"seed: {report.seed}")
    for line in report.summary_lines():
        print(line)
    if report.ok:
        return 0
    print("counterexamples:")
    print(json.dumps(report.failures, indent=2))
    return 1


_COMMANDS = {
    "check": cmd_check,
    "hull": cmd_hull,
    "vertices": cmd_vertices,
    "intersect": cmd_intersect,
    "roundtrip": cmd_roundtrip,
    "hijikata": cmd_hijikata,
    "draw": cmd_draw,
    "fuzz": cmd_fuzz,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitorders",
        description="split orders, their polytopes, and the bijection between them",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def matrix_command(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("input_path", metavar="input", help="JSON file, or - for standard input")
        return p

    matrix_command("check", "decide whether an exponent matrix gives an order")
    matrix_command("hull", "largest order inside the declared shape")
    matrix_command("vertices", "lattice points of the region of an exponent matrix")
    p = sub.add_parser(
        "intersect", help="exponent matrix of an intersection of maximal orders"
    )
    p.add_argument("input_path", metavar="input", help="JSON list of vertex coordinate lists, or -")
    matrix_command("roundtrip", "verify the shape -> vertices -> intersection round trip")
    matrix_command("hijikata", "level of a 2 x 2 order")
    p = matrix_command("draw", "render the region of a 3 x 3 matrix as SVG")
    p.add_argument("--out", required=True, dest="out_path", metavar="OUT", help="output SVG path")
    p.add_argument("--scale", type=float, default=40.0, help="pixels per lattice step")
    # the defaults are FuzzConfig's: a flag left out is not passed on
    p = sub.add_parser(
        "fuzz", help="run the randomized invariant suites", argument_default=argparse.SUPPRESS
    )
    p.add_argument("--trials", type=int, help="sample budget per suite")
    p.add_argument("--seed", type=int, help="master seed, replayable")
    p.add_argument("--n", type=int, dest="n_max", metavar="N", help="largest matrix dimension")
    p.add_argument("--min", type=int, dest="entry_min", help="smallest exponent")
    p.add_argument("--max", type=int, dest="entry_max", help="largest exponent")
    p.add_argument("--prime", type=int, help="residue characteristic")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        ns = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _COMMANDS[ns.subcommand](ns)
    except (UsageError, SplitOrderError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
