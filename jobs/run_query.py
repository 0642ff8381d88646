#!/usr/bin/env python
"""Run one WatDiv query (or arbitrary SPARQL) on PRoST.

Prints the Join Tree's nodes, the Spark SQL statement they compile to
and its parameters, then the result.

Usage::

    spark-submit jobs/run_query.py --scale 0.2 --query S3 [--mode vp]
    spark-submit jobs/run_query.py --scale 0.2 --sparql-file q.rq
"""
from __future__ import annotations

import argparse

from _session import get_spark

from repro.core.executor import compile_tree
from repro.core.prost import Prost
from repro.rdf.watdiv import watdiv
from repro.sparql.parser import parse
from repro.sparql.watdiv_queries import QUERIES


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--scale", type=float, default=0.2)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--query", choices=sorted(QUERIES), help="WatDiv query name")
    ap.add_argument("--sparql-file", help="file holding a SPARQL query")
    ap.add_argument("--mode", choices=["mixed", "vp"], default="mixed")
    ap.add_argument("--show", type=int, default=20, help="rows to print")
    args = ap.parse_args()
    if not args.query and not args.sparql_file:
        ap.error("one of --query / --sparql-file is required")

    sparql = QUERIES[args.query] if args.query else open(args.sparql_file).read()
    query = parse(sparql)
    spark = get_spark("prost-query")
    prost = Prost.load(spark, watdiv(spark, scale=args.scale, seed=args.seed))
    tree = prost.plan(query, mode=args.mode)
    print("join tree nodes (execution order):", tree.node_labels())
    statement = compile_tree(prost.store, tree, query)
    print("SQL statement:", statement.text)
    print("parameters:", statement.args)
    result = statement.run(spark)
    print(f"{result.count()} rows")
    result.show(args.show, truncate=False)
    spark.stop()


if __name__ == "__main__":
    main()
