#!/usr/bin/env python
"""Run one WatDiv query (or arbitrary SPARQL) on PRoST.

Prints the Join Tree as an indented tree (each node's kind, PT or VP,
its label and its §3.3 priority, children under their parent), the
Spark SQL statement it compiles to, its parameters and the predicate
dictionary entries it uses (the store names every predicate ``p<i>``),
then the row count, the result, and
the Spark physical plan that ran with its number of ``Exchange``
operators (shuffles; a subject join of two stored nodes needs none,
as VP and PT are bucketed on the subject) and the number of generated
classes Spark compiled to run it. The store lives in a temporary
directory removed on exit.

Usage::

    spark-submit jobs/run_query.py --scale 0.2 --query S3 [--mode vp]
    spark-submit jobs/run_query.py --scale 0.2 --sparql-file q.rq
"""
from __future__ import annotations

import argparse
import tempfile
from pathlib import Path

from _session import get_spark

from repro.core.executor import (
    compile_tree,
    compiled_classes,
    count_exchanges,
    executed_plan,
)
from repro.core.prost import Prost
from repro.rdf.triples import to_spark
from repro.rdf.watdiv import watdiv_pandas
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

    sparql = QUERIES[args.query] if args.query else Path(args.sparql_file).read_text()
    query = parse(sparql)
    with tempfile.TemporaryDirectory(prefix="prost_query_") as path:
        spark = get_spark("prost-query")
        triples = to_spark(spark, watdiv_pandas(scale=args.scale, seed=args.seed))
        prost = Prost.load(spark, triples, path=path)
        tree = prost.plan(query, mode=args.mode)
        print("join tree:")
        print(tree.render())
        statement = compile_tree(prost.store, tree, query)
        print("SQL statement:", statement.text)
        print("parameters:", statement.args)
        stats = prost.store.stats
        used = sorted({tp.predicate for tp in query.patterns if tp.predicate in stats})
        print("predicate dictionary:", ", ".join(f"{stats.column(p)} = {p}" for p in used))
        compiled = compiled_classes(spark)
        result = statement.run(spark)
        rows, plan = executed_plan(result)
        compiled = compiled_classes(spark) - compiled
        print(f"{rows} rows")
        result.show(args.show, truncate=False)
        print("Spark plan that ran:")
        print(plan.toString())
        print(f"{count_exchanges(plan)} Exchange operators")
        print(f"{compiled} generated classes compiled")
        spark.stop()


if __name__ == "__main__":
    main()
