"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` replaces each traced function at every binding site:
the attribute of every ``splitorders`` module that holds the function
(so names imported with ``from .x import f`` are caught too), the class
attribute for methods, and each entry of ``fuzz.CHECKS``.  ``uninstall``
puts the originals back.  A span records (name, start, end, parent span,
op id); self time is the span minus the time its child spans cover, and
is accumulated as spans close.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import json
import sys
import time
from array import array

# (module, qualified name, kind): "span" records spans, "count" only counts
# calls.  LocalMatrix.__init__ is the Fraction construction path and runs
# too often for a span to be cheap.
TARGETS = (
    ("cli", "main", "span"),
    ("exponent", "minplus_closure", "span"),
    ("exponent", "is_order", "span"),
    ("exponent", "first_violation", "span"),
    ("polytope", "enumerate_lattice_points", "span"),
    ("polytope", "is_reduced", "span"),
    ("correspondence", "verify_roundtrip", "span"),
    ("correspondence", "intersect_maximal", "span"),
    ("render", "render_polytope_svg", "span"),
    ("dvr", "LocalMatrix.__init__", "count"),
    ("dvr", "LocalMatrix.__matmul__", "span"),
    ("dvr", "LocalMatrix.inverse", "span"),
    ("dvr", "LocalMatrix.det", "span"),
    ("dvr", "hermite_normal_form", "span"),
    ("dvr", "elementary_divisors", "span"),
    ("dvr", "in_split_order", "span"),
    ("dvr", "lambda_membership", "span"),
    ("dvr", "ring_closure_check", "span"),
    ("apartments", "Apartment.__init__", "span"),
    ("apartments", "Apartment.to_standard", "span"),
    ("apartments", "Apartment.from_standard", "span"),
    ("apartments", "general_membership", "span"),
    ("apartments", "divisor_invariance_check", "span"),
    ("fuzz", "minimize_failing_matrix", "span"),
)

# results whose denominator size is recorded
_DEN_SOURCES = {
    "dvr.LocalMatrix.__matmul__",
    "dvr.LocalMatrix.inverse",
    "apartments.Apartment.to_standard",
    "apartments.Apartment.from_standard",
}


PACKAGE = "splitorders"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.op_id = -1
        self.stack: list[list] = []  # [span index, time covered by children]
        self.sp_name = array("i")
        self.sp_parent = array("i")
        self.sp_op = array("i")
        self.sp_start = array("d")
        self.sp_end = array("d")
        self.points = 0
        self.svg_bytes = 0
        self.vertices_intersected = 0
        self.den_bits: list[int] = []
        self.check_trials: dict[str, int] = {}
        self._restore: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.total_s.append(0.0)
        return len(self.names) - 1

    def _span(self, name: str, fn, observe=None):
        fid = self._id(name)
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self.stack
        sp_name, sp_parent, sp_op = self.sp_name, self.sp_parent, self.sp_op
        sp_start, sp_end = self.sp_start, self.sp_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[fid] += 1
            idx = len(sp_name)
            sp_name.append(fid)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_op.append(self.op_id)
            sp_start.append(0.0)
            sp_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                self_s[fid] += dur - frame[1]
                total_s[fid] += dur
                if stack:
                    stack[-1][1] += dur
                sp_start[idx] = t0
                sp_end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _counter(self, name: str, fn):
        fid = self._id(name)
        calls = self.calls

        def counted(*args, **kwargs):
            calls[fid] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _observer(self, name: str):
        if name == "polytope.enumerate_lattice_points":
            def observe(args, result):
                self.points += len(result)
        elif name == "render.render_polytope_svg":
            def observe(args, result):
                self.svg_bytes += len(result.encode())
        elif name == "correspondence.intersect_maximal":
            def observe(args, result):
                if args and hasattr(args[0], "__len__"):
                    self.vertices_intersected += len(args[0])
        elif name in _DEN_SOURCES:
            def observe(args, result):
                den = getattr(result, "den", None)
                if isinstance(den, int):
                    self.den_bits.append(den.bit_length())
        elif name.startswith("fuzz.") and name[5:] in self.check_trials:
            check = name[5:]

            def observe(args, result):
                self.check_trials[check] += result[0]
        else:
            observe = None
        return observe

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [m for key, m in list(sys.modules.items())
                if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]

    def _rebind(self, original, replacement):
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        for module_name, qualname, kind in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            name = f"{module_name}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                wrap = self._counter(name, original) if kind == "count" else \
                    self._span(name, original, self._observer(name))
                setattr(cls, meth, wrap)
                self._restore.append((cls, meth, original))
            else:
                original = getattr(module, qualname)
                wrap = self._counter(name, original) if kind == "count" else \
                    self._span(name, original, self._observer(name))
                self._rebind(original, wrap)
        fuzz = sys.modules[f"{PACKAGE}.fuzz"]
        entries = []
        for check, fn in fuzz.CHECKS:
            self.check_trials[check] = 0
            entries.append((check, self._span(f"fuzz.{check}", fn, self._observer(f"fuzz.{check}"))))
        self._restore.append((fuzz, "CHECKS", fuzz.CHECKS))
        fuzz.CHECKS = tuple(entries)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def stat(self, name: str) -> tuple[int, float, float]:
        """(calls, self seconds, total seconds) of one traced name."""
        fid = self.names.index(name)
        return self.calls[fid], self.self_s[fid], self.total_s[fid]

    def dump(self, path: str) -> int:
        """Write every span as one JSON line: name, start, end, parent, op."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.sp_name)):
                fh.write(json.dumps([names[self.sp_name[i]], self.sp_start[i],
                                     self.sp_end[i], self.sp_parent[i], self.sp_op[i]]))
                fh.write("\n")
        return len(self.sp_name)
