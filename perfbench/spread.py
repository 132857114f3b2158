#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --seeds 101-110 [--json FILE]

Every run is a fresh process, exactly as BENCHMARK.json states the
command, with its run_seconds, on every workload it lists and with
``--trace 0``.  The spread is the distance between the
first and third quartile (``statistics.quantiles(values, n=4)``) as a
share of the median, the figure each end-to-end bound is set against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 101-110")
    ap.add_argument("--json", type=Path, help="write runs and summary here")
    args = ap.parse_args()

    report = {}
    for workload in [w["name"] for w in spec["workloads"]]:
        runs = []
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"seed": seed, "wall_s": wall, **result})
            print(f"{workload} seed {seed} wall {wall:.1f} s correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median if median else None}
            print(f"  {name:38s} median {median:<12.5g} spread {summary[name]['spread']}")
        report[workload] = {"runs": runs, "summary": summary}
    if args.json:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
