#!/usr/bin/env python
"""Reproduce Figure 2 (as a table): PRoST VP-only vs. mixed strategy.

Usage::

    spark-submit jobs/fig2_vp_vs_mixed.py --scale 1.0 --rounds 1
"""
from __future__ import annotations

import argparse
import tempfile

from _session import get_spark

from repro.bench.harness import format_table, vp_vs_mixed
from repro.core.prost import Prost
from repro.rdf.watdiv import watdiv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="prost_fig2_") as path:
        spark = get_spark("fig2")
        triples = watdiv(spark, scale=args.scale, seed=args.seed)
        prost = Prost.load(spark, triples, path=path)
        table = vp_vs_mixed(prost, rounds=args.rounds)
        print(format_table(table, "Figure 2 as a table: VP-only vs mixed (seconds)"))
        spark.stop()


if __name__ == "__main__":
    main()
