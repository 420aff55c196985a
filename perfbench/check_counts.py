#!/usr/bin/env python3
"""Run the traced benchmark twice per workload on one seed; every count must repeat.

Run from the repository root:

    python3 perfbench/check_counts.py --seed 3 --seconds 4

The counts are every ``.calls`` metric plus the work counters below.
Times are expected to differ; counts are not.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("cli-small", "regions-large", "local-arith", "fuzz")
COUNTERS = (
    "cli.stdout_bytes",
    "exponent.closures_per_cmd",
    "polytope.points",
    "correspondence.vertices_intersected",
    "render.svg_bytes",
    "dvr.den_bits_max",
    "dvr.den_bits_mean",
    "trace.spans",
)


def counts(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=BENCH.parent, capture_output=True, text=True, check=True, timeout=600,
    )
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if k.endswith(".calls") or k in COUNTERS}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=4)
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    args = parser.parse_args()
    same = True
    for workload in args.workload or WORKLOADS:
        first = counts(workload, args.seed, args.seconds)
        second = counts(workload, args.seed, args.seconds)
        differ = sorted(k for k in first if first[k] != second.get(k))
        same = same and not differ
        print(json.dumps({"workload": workload, "seed": args.seed, "counts": len(first),
                          "identical": not differ, "differ": differ,
                          "values": {k: v for k, v in first.items() if v}}))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
