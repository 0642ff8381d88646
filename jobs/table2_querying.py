#!/usr/bin/env python
"""Reproduce Table 2 (and Figure 3's data): query times per system.

Usage::

    spark-submit jobs/table2_querying.py --scale 1.0 --rounds 1
"""
from __future__ import annotations

import argparse
import tempfile

from _session import get_spark

from repro.bench.harness import (
    format_table,
    group_averages,
    load_all_systems,
    query_times,
    rya_probe_counts,
)
from repro.rdf.triples import to_spark
from repro.rdf.watdiv import watdiv_pandas


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="prost_table2_") as base:
        spark = get_spark("table2")
        tpd = watdiv_pandas(scale=args.scale, seed=args.seed)
        triples = to_spark(spark, tpd)
        systems = load_all_systems(spark, triples, tpd, base)

        per_query = query_times(systems, rounds=args.rounds)
        print(format_table(per_query, "Per-query times in seconds (Figure 3 data)"))
        print(format_table(group_averages(per_query), "Table 2: average ms per group"))
        print(
            format_table(
                rya_probe_counts(systems["Rya"].store),
                "Rya index probes per query (scale-free cost metric)",
            )
        )
        spark.stop()


if __name__ == "__main__":
    main()
