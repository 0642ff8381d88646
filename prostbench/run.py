#!/usr/bin/env python3
"""PRoST benchmark: one run of one workload, result as the last stdout line.

Usage (from the repository root)::

    python3 prostbench/run.py --workload watdiv-mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones from a separately traced run. Everything the run writes stays under
``prostbench/.work``; the run's details (warm-up times, environment,
per-query medians, spans) go to ``prostbench/.work/results``.
"""
from __future__ import annotations

import time

SETUP_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shlex  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "jobs")]

import workload  # noqa: E402  (the program under test and pyspark)

#: pinned Spark driver heap, so runs do not depend on the machine's memory
DRIVER_HEAP = "2g"


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workload.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def configure_spark_env() -> dict:
    """Settings read when the JVM is launched: master, pinned heap and
    scratch space inside WORK."""
    nproc = len(os.sched_getaffinity(0))
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master local[{nproc}]",
            f"--driver-memory {DRIVER_HEAP}",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={tmp}"),
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            "--conf",
            shlex.quote(f"spark.local.dir={WORK / 'spark-local'}"),
            "pyspark-shell",
        ]
    )
    return {"nproc": nproc, "driver_heap": DRIVER_HEAP}


def environment(spark) -> dict:
    conf = dict(spark.sparkContext.getConf().getAll())
    keys = ("spark.master", "spark.driver.memory")
    return {
        "spark_version": spark.version,
        "java_version": spark.sparkContext._jvm.System.getProperty("java.version"),
        "python_version": sys.version.split()[0],
        "confs": {
            **{k: conf.get(k) for k in keys},
            **{k: v for k, v in conf.items() if k.startswith("spark.sql.")},
            "spark.sql.adaptive.enabled": spark.conf.get("spark.sql.adaptive.enabled"),
        },
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    env = configure_spark_env()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    run = workload.Run(args.workload, args.seed, WORK)
    try:
        run.details["environment"] = {**env, **environment(run.spark)}
        if args.trace:
            metrics = run.traced()
        else:
            metrics = run.end_to_end(args.seconds, SETUP_START)
    finally:
        run.close()

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({**run.details, "metrics": metrics}, indent=1, default=str))
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    print(f"details: {out.relative_to(ROOT)}")
    tally = run.tally
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
