#!/usr/bin/env python
"""Reproduce Table 1: store size and loading time for all four systems.

Usage::

    spark-submit jobs/table1_loading.py --scale 1.0 [--out-dir /tmp/stores]
"""
from __future__ import annotations

import argparse
import tempfile

import pandas as pd

from _session import get_spark

from repro.bench.harness import format_table, load_all_systems
from repro.rdf.triples import to_spark
from repro.rdf.watdiv import watdiv_pandas


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--out-dir", default=None)
    args = ap.parse_args()

    # without --out-dir the stores go to a temporary directory removed on exit
    with tempfile.TemporaryDirectory(prefix="prost_table1_") as tmp:
        spark = get_spark("table1")
        tpd = watdiv_pandas(scale=args.scale, seed=args.seed)
        triples = to_spark(spark, tpd)
        systems = load_all_systems(spark, triples, tpd, args.out_dir or tmp)
        rows = [
            {
                "System": name,
                "Size (MB)": round(ls.size_bytes / 1e6, 2),
                "Time (s)": round(ls.load_seconds, 1),
            }
            for name, ls in systems.items()
        ]
        print(f"WatDiv-lite scale={args.scale}: {len(tpd)} triples")
        print(format_table(pd.DataFrame(rows), "Table 1: size and loading time"))
        spark.stop()


if __name__ == "__main__":
    main()
