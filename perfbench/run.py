#!/usr/bin/env python3
"""splitorders benchmark: one workload, one seed, one process, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 35 --trace 0

Workloads are ``cli-small``, ``regions-large``, ``local-arith`` and
``fuzz`` (see ``workloads.py`` for why each exists).  One caller runs a
closed loop: the next op starts when the previous one returns.  With
``--trace 0`` the run times whole passes over the workload's ops for at
least ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it times untraced passes for half of ``--seconds``, then
runs one traced pass and reports the per-layer metrics and the tracing
overhead.  Every op's output goes to an independent referee
(``referees.py``); repeated ops must reproduce their first output
exactly.  The last line of standard output is the result object; the
line before it, and ``perfbench/out/result-*.json``, hold the full
record (environment, input properties, tail percentile, error rate).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import referees as ref
import workloads as wl
from tracing import TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
WORKLOADS = ("cli-small", "regions-large", "local-arith", "fuzz")

# The tail is the highest percentile with at least ten distinct ops beyond
# it: cli-small and local-arith have over 1000 distinct ops.  regions-large
# has 21 ops and fuzz 17 checks, so their tail is p75, with about five
# distinct ops (and over ten samples) beyond it.
TAIL_PERCENTILE = {"cli-small": 99, "regions-large": 75, "local-arith": 99, "fuzz": 75}
SETUP_SPAWNS = 9

IMPORT_PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import splitorders, splitorders.cli\n"
    "print(time.perf_counter() - t)\n"
)


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile q (0..100) of the values."""
    s = sorted(values)
    pos = (len(s) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


# ---------------------------------------------------------------------------
# environment and set-up time


def environment(args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    commit = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "splitorders").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def measure_setup() -> dict:
    """Import time of splitorders and splitorders.cli in fresh interpreters.

    One spawn first warms the bytecode cache; the median of the rest is
    reported.  Wall time per spawn, interpreter start included, is kept
    beside it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the first spawn must leave bytecode behind
    imports, walls = [], []
    for k in range(SETUP_SPAWNS + 1):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        wall = time.perf_counter() - t0
        if k:
            imports.append(float(done.stdout.strip()))
            walls.append(wall)
    return {"setup_s": statistics.median(imports),
            "spawn_wall_s_median": statistics.median(walls),
            "spawns": SETUP_SPAWNS}


# ---------------------------------------------------------------------------
# ops: each kind runs an op, reduces its result to plain data, and referees it


class Chunks:
    """Text sink that keeps what was written, for hashing after the timer stops."""

    def __init__(self):
        self.parts = []

    def write(self, s):
        self.parts.append(s)
        return len(s)

    def flush(self):
        pass

    def text(self) -> str:
        return "".join(self.parts)

    def digest(self) -> tuple[str, int]:
        h = hashlib.sha1()
        size = 0
        for part in self.parts:
            b = part.encode()
            h.update(b)
            size += len(b)
        return h.hexdigest(), size


class CliRunner:
    """Ops of cli-small and regions-large: ``cli.main(argv)`` in process."""

    def __init__(self, so, ops, workdir):
        self.so = so
        self.ops = ops
        self.workdir = workdir
        self.stdout_bytes = 0

    def call(self, i):
        op = self.ops[i]
        out, err = Chunks(), Chunks()
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = self.so.cli.main(op.argv)
            except Exception as e:  # an unexpected exception is a failed op
                rc, exc = None, repr(e)
            t1 = time.perf_counter()
        return t1 - t0, (rc, exc, out, err)

    def fingerprint(self, i, raw, keep=False):
        rc, exc, out, err = raw
        out_digest, size = out.digest()
        self.stdout_bytes += size
        svg = None
        op = self.ops[i]
        if op.svg_path is not None and os.path.exists(op.svg_path):
            with open(op.svg_path, "rb") as fh:
                svg = hashlib.sha1(fh.read()).hexdigest()
        if keep:
            with open(os.path.join(self.workdir, f"out_{i}.txt"), "w", encoding="utf-8") as fh:
                fh.write(out.text())
            with open(os.path.join(self.workdir, f"err_{i}.txt"), "w", encoding="utf-8") as fh:
                fh.write(err.text())
        return (rc, exc, out_digest, err.digest()[0], svg)

    def referee(self, i, fp):
        rc, exc = fp[0], fp[1]
        if exc is not None:
            return f"raised {exc}"
        op = self.ops[i]
        with open(os.path.join(self.workdir, f"out_{i}.txt"), encoding="utf-8") as fh:
            out = fh.read()
        with open(os.path.join(self.workdir, f"err_{i}.txt"), encoding="utf-8") as fh:
            err = fh.read()
        if op.command == "draw":
            if not os.path.exists(op.svg_path):
                return "draw wrote no file"
            with open(op.svg_path, encoding="utf-8") as fh:
                svg = fh.read()
            return ref.ref_draw(op.subject, rc, out, err, op.svg_path, svg)
        return ref.CLI_REFEREES[op.command](op.subject, rc, out, err)


def _fractions(m):
    return [list(row) for row in m.fractions()]


class ArithRunner:
    """Ops of local-arith: library calls into dvr and apartments."""

    def __init__(self, so, ops):
        self.so = so
        self.ops = ops
        self.stdout_bytes = 0
        LM = so.dvr.LocalMatrix
        for op in ops:
            c, p = op.case, op.prime
            if op.kind == "membership":
                op.args = (LM(c["gamma"], p), [so.correspondence.ApartmentVertex(v) for v in c["family"]],
                           [LM(a, p) for a in c["elements"]])
            elif op.kind == "hermite":
                op.args = LM(c["product"], p)
            elif op.kind == "divisors":
                op.args = tuple(LM(c[k], p) for k in ("gamma", "L", "Lp", "gL", "gLp"))
            elif op.kind == "ring":
                op.args = so.exponent.ExponentMatrix(c["nu"])
            else:
                op.args = (so.apartments.Apartment(LM(c["gamma"], p)), LM(c["start"], p))

    def call(self, i):
        op = self.ops[i]
        dvr, ap_mod = self.so.dvr, self.so.apartments
        exc = result = None
        t0 = time.perf_counter()
        try:
            if op.kind == "membership":
                gamma, family, elements = op.args
                order = ap_mod.intersect_in_apartment(ap_mod.Apartment(gamma), family)
                result = tuple(ap_mod.general_membership(order, a) for a in elements)
            elif op.kind == "hermite":
                form, transform = dvr.hermite_normal_form(op.args)
                witness = None if form.is_diagonal() else dvr.diagonal_witness(form)
                result = (form, transform, witness)
            elif op.kind == "divisors":
                gamma, lat, lat_p, g_lat, g_lat_p = op.args
                result = (dvr.elementary_divisors(g_lat, g_lat_p),
                          ap_mod.divisor_invariance_check(gamma, lat, lat_p))
            elif op.kind == "ring":
                c = op.case
                result = dvr.ring_closure_check(op.args, trials=c["trials"], seed=c["seed"],
                                                prime=op.prime)
            else:
                apartment, a = op.args
                for _ in range(op.case["rounds"]):
                    a = apartment.to_standard(apartment.from_standard(a))
                result = a
        except Exception as e:  # an unexpected exception is a failed op
            exc = repr(e)
        t1 = time.perf_counter()
        return t1 - t0, (result, exc)

    def fingerprint(self, i, raw, keep=False):
        result, exc = raw
        if exc is not None:
            return (None, exc)
        kind = self.ops[i].kind
        if kind == "hermite":
            form, transform, witness = result
            bits = None if witness is None else tuple(
                int(witness.entry(k, k)) for k in range(witness.n))
            plain = (_fractions(form.matrix), tuple(form.exponents), _fractions(transform), bits)
        elif kind == "divisors":
            plain = (tuple(result[0]), result[1])
        elif kind == "ring":
            plain = True if result is True else (_fractions(result[0]), _fractions(result[1]))
        elif kind == "chain":
            plain = _fractions(result)
        else:
            plain = result
        return (plain, None)

    def referee(self, i, fp):
        plain, exc = fp
        if exc is not None:
            return f"raised {exc}"
        op = self.ops[i]
        return ref.ARITH_REFEREES[op.kind](op.case, plain)


# ---------------------------------------------------------------------------
# the closed loop


def verify_pass(runner):
    """Run every distinct op once, untimed, keeping outputs for the referees."""
    fps = []
    for i in range(len(runner.ops)):
        _, raw = runner.call(i)
        fps.append(runner.fingerprint(i, raw, keep=True))
    return fps


def timed_passes(runner, fps, seconds, rng, tracer=None, max_passes=None):
    """Whole shuffled passes until ``seconds`` have elapsed.

    Returns every latency with the index of its op, the positions whose
    output differed from the verify pass, and the number of passes.
    """
    lat, runs, mismatched, passes = [], [], set(), 0
    order = list(range(len(runner.ops)))
    gc.collect()
    start = time.perf_counter()
    while passes != max_passes:
        rng.shuffle(order)
        for i in order:
            if tracer is not None:
                tracer.op_id = len(lat)
            dt, raw = runner.call(i)
            lat.append(dt)
            runs.append(i)
            if runner.fingerprint(i, raw) != fps[i]:
                mismatched.add(len(lat) - 1)
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    return lat, runs, mismatched, passes


def per_op_best(count, runs, lat):
    """Fastest latency of each distinct op over its repeats in the run."""
    best = [float("inf")] * count
    for i, dt in zip(runs, lat):
        if dt < best[i]:
            best[i] = dt
    return best


def referee_failures(runner, fps, runs, mismatched):
    """Referee each distinct op once; count every run of a rejected or changed op."""
    bad = {i: why for i in range(len(runner.ops)) if (why := runner.referee(i, fps[i]))}
    failed = sum(1 for k, i in enumerate(runs) if i in bad or k in mismatched)
    return failed, {str(i): why for i, why in list(bad.items())[:10]}


def run_ops(runner, args, rng, result):
    t0 = time.perf_counter()
    fps = verify_pass(runner)
    t1 = time.perf_counter()
    lat, runs, mismatched, passes = timed_passes(runner, fps, args.seconds, rng)
    t2 = time.perf_counter()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, rejected = referee_failures(runner, fps, runs, mismatched)
    result["phase_s"] = {"verify_pass": t1 - t0, "timed": t2 - t1,
                         "referees": time.perf_counter() - t2}
    result.update(op_best=per_op_best(len(runner.ops), runs, lat), samples=len(lat),
                  pass_work=len(runner.ops), ops=len(lat), failed=failed, passes=passes,
                  rejected=rejected, nondeterministic=len(mismatched))


def trace_ops(runner, args, rng, result):
    fps = verify_pass(runner)
    lat, _, _, _ = timed_passes(runner, fps, args.seconds / 2, rng)
    tracer = Tracer()
    tracer.install()
    try:
        runner.stdout_bytes = 0
        tlat, runs, mismatched, _ = timed_passes(runner, fps, 0, rng, tracer, max_passes=1)
    finally:
        tracer.uninstall()
    failed, rejected = referee_failures(runner, fps, runs, mismatched)
    result.update(ops=len(tlat), failed=failed, rejected=rejected,
                  untraced_ops_s=len(lat) / sum(lat), traced_ops_s=len(tlat) / sum(tlat),
                  stdout_bytes=runner.stdout_bytes)
    return tracer


# ---------------------------------------------------------------------------
# fuzz: an op is one trial; latency samples are the calls of each check


def fuzz_call(so, seed, check_times=None):
    fz = so.fuzz
    saved = fz.CHECKS
    if check_times is not None:
        def timed(fn):
            def call(rng, config):
                t0 = time.perf_counter()
                try:
                    return fn(rng, config)
                finally:
                    check_times.append(time.perf_counter() - t0)
            return call
        fz.CHECKS = tuple((name, timed(fn)) for name, fn in saved)
    try:
        t0 = time.perf_counter()
        report = fz.run_fuzz(fz.FuzzConfig(seed=seed, trials=wl.FUZZ_TRIALS))
        dt = time.perf_counter() - t0
    finally:
        fz.CHECKS = saved
    summary = [(r.name, r.trials, r.ok) for r in report.results]
    why = ref.ref_fuzz(wl.FUZZ_CHECKS, summary)
    if why is None and report.ok is not True:
        why = "report.ok is false"
    trials = sum(t for _, t, _ in summary)
    return dt, trials, why


def run_fuzz_workload(so, args, result):
    """Repeat ``run_fuzz`` for the run's seed until time is up."""
    so.fuzz.run_fuzz(so.fuzz.FuzzConfig(seed=args.seed, trials=20))  # warm-up
    check_times, calls, trials, failed, rejected = [], [], 0, 0, {}
    gc.collect()
    start = time.perf_counter()
    while True:
        dt, n, why = fuzz_call(so, args.seed, check_times)
        calls.append({"seconds": dt, "trials": n})
        trials += n
        if why:
            failed += n
            rejected[str(len(calls))] = why
        if time.perf_counter() - start >= args.seconds:
            break
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    checks = len(wl.FUZZ_CHECKS)
    runs = [k % checks for k in range(len(check_times))]
    result.update(op_best=per_op_best(checks, runs, check_times), samples=len(check_times),
                  pass_work=trials / len(calls), ops=trials, failed=failed, rejected=rejected,
                  fuzz_calls=calls, passes=len(calls))


def trace_fuzz_workload(so, args, result):
    seed = args.seed
    so.fuzz.run_fuzz(so.fuzz.FuzzConfig(seed=seed, trials=20))  # warm-up
    untraced_t = untraced_n = 0
    start = time.perf_counter()
    while True:
        dt, n, _ = fuzz_call(so, seed)
        untraced_t += dt
        untraced_n += n
        if time.perf_counter() - start >= args.seconds / 2:
            break
    tracer = Tracer()
    tracer.install()
    try:
        dt, n, why = fuzz_call(so, seed)
    finally:
        tracer.uninstall()
    result.update(ops=n, failed=n if why else 0, rejected={str(seed): why} if why else {},
                  untraced_ops_s=untraced_n / untraced_t, traced_ops_s=n / dt,
                  stdout_bytes=0)
    return tracer


# ---------------------------------------------------------------------------
# metrics


def end_to_end(workload, result, setup) -> dict:
    """Metrics over the distinct ops, each at its fastest repeat in the run.

    Every op is deterministic single-threaded work, so on a shared host a
    slower repeat measures other tenants, not the op (best-of-N, as
    ``timeit`` reports).  The percentiles then describe how latency spreads
    over the inputs.  Throughput is ops per second of one pass over the mix;
    on fuzz, trials per second of one ``run_fuzz`` call.
    """
    best = result["op_best"]
    q = TAIL_PERCENTILE[workload]
    beyond = len(best) * (100 - q) / 100
    result["tail"] = {"percentile": q, "distinct_ops": len(best),
                      "distinct_ops_beyond": beyond,
                      "samples_beyond": beyond * result["samples"] / len(best)}
    return {
        "throughput_ops_s": {"value": result["pass_work"] / sum(best), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(best) * 1e3, "unit": "ms"},
        "latency_tail_ms": {"value": percentile(best, q) * 1e3, "unit": "ms"},
        "setup_s": {"value": setup["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(tracer, result) -> dict:
    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    for module, qualname, kind in TARGETS:
        name = f"{module}.{qualname}"
        calls, self_s, _ = tracer.stat(name)
        put(f"{name}.calls", calls, "count")
        if kind == "span" and module != "fuzz":
            put(f"{name}.self_s", self_s, "s")
    ops = max(result["ops"], 1)
    enum_calls, enum_self, _ = tracer.stat("polytope.enumerate_lattice_points")
    put("cli.stdout_bytes", result["stdout_bytes"], "bytes")
    put("exponent.closures_per_cmd", tracer.stat("exponent.minplus_closure")[0] / ops, "count/op")
    put("polytope.points", tracer.points, "count")
    put("polytope.points_per_s", tracer.points / enum_self if enum_self else 0.0, "1/s")
    put("correspondence.vertices_intersected", tracer.vertices_intersected, "count")
    put("render.svg_bytes", tracer.svg_bytes, "bytes")
    bits = tracer.den_bits
    put("dvr.den_bits_max", max(bits, default=0), "bits")
    put("dvr.den_bits_mean", statistics.fmean(bits) if bits else 0.0, "bits")
    for check in wl.FUZZ_CHECKS:
        name = f"fuzz.{check}"
        seconds = tracer.stat(name)[2] if name in tracer.names else 0.0
        trials = tracer.check_trials.get(check, 0)
        put(f"{name}.s", seconds, "s")
        put(f"{name}.trials_per_s", trials / seconds if seconds else 0.0, "1/s")
    put("trace.untraced_ops_s", result["untraced_ops_s"], "1/s")
    put("trace.traced_ops_s", result["traced_ops_s"], "1/s")
    put("trace.overhead_pct", (result["untraced_ops_s"] / result["traced_ops_s"] - 1) * 100, "%")
    put("trace.spans", len(tracer.sp_name), "count")
    return m


# ---------------------------------------------------------------------------


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import splitorders  # noqa: F401
    from splitorders import apartments, cli, correspondence, dvr, exponent, fuzz
    return SimpleNamespace(cli=cli, apartments=apartments, correspondence=correspondence,
                           dvr=dvr, exponent=exponent, fuzz=fuzz)


def run(args, workdir) -> tuple[dict, dict]:
    env = environment(args)
    setup = measure_setup() if not args.trace else {}
    so = import_package()
    rng = random.Random(f"order/{args.workload}/{args.seed}")
    result: dict = {}
    t0 = time.perf_counter()
    if args.workload == "fuzz":
        props = {"config": f"FuzzConfig(seed={args.seed}, trials={wl.FUZZ_TRIALS}): "
                           "n 2..4, entries [-3, 5], p = 2",
                 "primes": [2], "checks": len(wl.FUZZ_CHECKS)}
        tracer = trace_fuzz_workload(so, args, result) if args.trace else \
            run_fuzz_workload(so, args, result)
    else:
        if args.workload == "cli-small":
            ops, props = wl.build_cli_small(args.seed, str(workdir))
        elif args.workload == "regions-large":
            ops, props = wl.build_regions_large(args.seed, str(workdir))
        else:
            ops, props = wl.build_local_arith(args.seed)
        props["generate_s"] = time.perf_counter() - t0
        runner = ArithRunner(so, ops) if args.workload == "local-arith" else \
            CliRunner(so, ops, str(workdir))
        tracer = trace_ops(runner, args, rng, result) if args.trace else \
            run_ops(runner, args, rng, result)
    result["wall_s"] = time.perf_counter() - t0
    if args.trace:
        metrics = per_layer(tracer, result)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.jsonl"
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = tracer.dump(str(spans_path))
    else:
        metrics = end_to_end(args.workload, result, setup)
        props["repeated_op_share"] = 1 - result["pass_work"] / result["ops"]
    record = {
        "environment": env,
        "setup": setup,
        "input_properties": props,
        "ops": result["ops"],
        "failed": result["failed"],
        "error_rate": result["failed"] / max(result["ops"], 1),
        "rejected": result.get("rejected", {}),
        "tail": result.get("tail"),
        "passes": result.get("passes"),
        "nondeterministic_ops": result.get("nondeterministic"),
        "fuzz_calls": result.get("fuzz_calls"),
        "wall_s": result["wall_s"],
        "phase_s": result.get("phase_s"),
        "metrics": metrics,
    }
    final = {
        "correct": result["failed"] == 0 and not result.get("rejected"),
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return record, final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "splitorders" / "__init__.py").is_file():
        print(f"error: no splitorders package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        record, final = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
