#!/usr/bin/env python
"""Reproduce the paper's evaluation from one load of WatDiv-lite.

Loads the graph into PRoST, S2RDF, Rya and SPARQLGX once, then prints
Table 1 (store size and loading time), the per-query times behind
Table 2 (Figure 3's data) and Table 2 itself, Rya's index probes per
query, and Figure 2 as a table (PRoST VP-only vs mixed, timed on the
same warm PRoST store). Without ``--out-dir`` the stores live in a
temporary directory removed on exit.

Usage::

    spark-submit jobs/paper_tables.py --scale 1.0 --rounds 1 [--out-dir /tmp/stores]
"""
from __future__ import annotations

import argparse
import tempfile

from _session import get_spark

from repro.bench.harness import (
    format_table,
    group_averages,
    load_all_systems,
    loading_table,
    query_times,
    rya_probe_counts,
    vp_vs_mixed,
)
from repro.rdf.triples import to_spark
from repro.rdf.watdiv import watdiv_pandas


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--rounds", type=int, default=1, help="timed runs per query (median)")
    ap.add_argument("--out-dir", help="keep the four stores here")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="prost_tables_") as tmp:
        spark = get_spark("paper-tables")
        tpd = watdiv_pandas(scale=args.scale, seed=args.seed)
        systems = load_all_systems(spark, to_spark(spark, tpd), args.out_dir or tmp)
        print(f"WatDiv-lite scale={args.scale}: {len(tpd)} triples")
        print(format_table(loading_table(systems), "Table 1: size and loading time"))

        runners = {name: ls.run_query for name, ls in systems.items()}
        per_query = query_times(runners, rounds=args.rounds)
        print(format_table(per_query, "Per-query times in seconds (Figure 3 data)"))
        print(format_table(group_averages(per_query), "Table 2: average ms per group"))
        probes = rya_probe_counts(systems["Rya"].store)
        print(format_table(probes, "Rya index probes per query (scale-free cost metric)"))

        figure2 = vp_vs_mixed(systems["PRoST"].store, rounds=args.rounds)
        print(format_table(figure2, "Figure 2 as a table: VP-only vs mixed (seconds)"))
        spark.stop()


if __name__ == "__main__":
    main()
