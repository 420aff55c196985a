#!/usr/bin/env python3
"""Run every workload on several seeds and summarise each end-to-end metric.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For each workload and metric it records the ten values, their median and
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median.  Runs go one
at a time, so they never compete for the processor.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        runs = []
        for seed in summary["seeds"]:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True, timeout=900,
            )
            lines = done.stdout.strip().splitlines()
            record, final = json.loads(lines[-2]), json.loads(lines[-1])
            runs.append({"seed": seed, "correct": final["correct"], "attempted": final["attempted"],
                         "failed": final["failed"], "wall_s": record["wall_s"]})
            for name, metric in final["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, final["correct"],
                  {k: round(v["value"], 4) for k, v in final["metrics"].items()}, flush=True)
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            metrics[name] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                             "spread": spread, "bound": bounds.get(name), "values": vals}
            print(f"  {name:18s} median {statistics.median(vals):.5g} spread {spread:.4f}"
                  f" bound {bounds.get(name)}", flush=True)
        env = {k: v for k, v in record["environment"].items() if k not in ("seed", "workload")}
        summary["workloads"][workload] = {"runs": runs, "metrics": metrics, "environment": env}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
