#!/usr/bin/env python3
"""Benchmark of krigamg's set-up and solve, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload siso-sph1 --seed 1 --seconds 45 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
from a separate traced run.  The last line of standard output is the
result as one JSON object; the lines before it and the record written to
perfbench/out/ hold the environment, per-cell sizes, digests and checks.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # BLAS reads this once when it loads, so it is set before numpy is imported
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path(__file__).resolve().parents[1] / "src" / "krigamg"
    if not src.is_dir():
        print(f"{src} not found: run from the root of a krigamg checkout", file=sys.stderr)
        return 1
    import harness

    if args.workload not in harness.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {sorted(harness.WORKLOADS)}")
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
