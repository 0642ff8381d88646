#!/usr/bin/env python3
"""Run one workload for several seeds and print each end-to-end metric's
median and spread (inter-quartile distance over median), the figures the
acceptance rule compares with the bounds in BENCHMARK.json.

Usage (from the repository root)::

    python3 prostbench/spread.py --workload watdiv-vp --seeds 1 2 3 4 5
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from measure import spread

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    runs = []
    for seed in args.seeds:
        t = time.perf_counter()
        proc = subprocess.run(
            [*spec["command"], "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        wall = time.perf_counter() - t
        print(f"seed {seed}: {wall:.1f} s wall, correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        runs.append(result)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        sp = spread(values) if len(values) >= 2 and med else float("nan")
        print(f"{name:34s} median {med:14.4f}  spread {sp:7.2%}  bound {bounds.get(name)}")
    return 0 if all(r["correct"] for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
