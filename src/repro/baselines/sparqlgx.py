"""SPARQLGX baseline: VP text storage + direct RDD evaluation.

SPARQLGX (Graux et al., ISWC 2016) stores one plain text file per
predicate and compiles SPARQL directly to Spark *RDD* operations — it
deliberately does not use Spark SQL, so no Catalyst, no columnar
Parquet scans, no whole-stage codegen. Join order comes from its own
statistics: :func:`~repro.sparql.algebra.most_bound_first`, which
prefers patterns with more constants and smaller predicate extents (the
triple counts of :class:`~repro.core.stats.GraphStats`), the order Rya
uses too.

This module reproduces both properties:

- the store is a directory of tab-separated ``s\\to`` text files,
  re-scanned from disk by every query (values are written through
  ``repro.rdf.triples.escaped``, so any value stays inside one field
  of one line);
- evaluation folds the patterns into RDD joins of binding dictionaries
  (row-at-a-time Python processing — the RDD layer is the point here,
  per DESIGN.md, not a Catalyst plan).

Results are bag-semantics identical to every other engine; only the
runtime profile differs (uniformly slower, flat across query shapes —
the Figure 3 / Table 2 shape the paper reports).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

from repro.core.loader import build_vp
from repro.core.stats import GraphStats
from repro.rdf.triples import canonicalize, escaped, unescaper
from repro.sparql.algebra import Query, TriplePattern, is_const, is_var, most_bound_first
from repro.sparql.parser import parse

_SEP = "\t"


def _pattern_rdd(sc, path: str, tp: TriplePattern):
    """RDD of binding dicts {var: value} for one pattern's text file."""
    s_const = tp.s.value if is_const(tp.s) else None
    o_const = tp.o.value if is_const(tp.o) else None
    s_var = tp.s.name if is_var(tp.s) else None
    o_var = tp.o.name if is_var(tp.o) else None
    unescape = unescaper()

    def to_binding(line: str):
        s, o = map(unescape, line.split(_SEP, 1))
        if s_const is not None and s != s_const:
            return None
        if o_const is not None and o != o_const:
            return None
        out = {}
        if s_var is not None:
            out[s_var] = s
        if o_var is not None:
            if o_var in out and out[o_var] != o:  # ?x p ?x
                return None
            out[o_var] = o
        return out

    return sc.textFile(path).map(to_binding).filter(lambda b: b is not None)


def _join_bindings(left, right, shared: list[str]):
    """Inner join two binding RDDs on their shared variables."""
    if not shared:
        return left.cartesian(right).map(lambda ab: {**ab[0], **ab[1]})
    key = tuple(shared)

    def keyed(b):
        return (tuple(b[v] for v in key), b)

    return (
        left.map(keyed)
        .join(right.map(keyed))
        .map(lambda kv: {**kv[1][0], **kv[1][1]})
    )


@dataclass
class SparqlGXStore:
    """Loaded SPARQLGX database: text files on disk + load statistics."""

    spark: SparkSession
    stats: GraphStats
    path: str

    @classmethod
    def load(
        cls, spark: SparkSession, triples: DataFrame, *, path: str
    ) -> "SparqlGXStore":
        """Write one text partition per predicate (``pred=p<i>/...``,
        named by the predicate dictionary) and collect the same
        load-time statistics the real system keeps for its
        join-ordering heuristic."""
        triples = canonicalize(triples)
        stats = GraphStats.compute(triples)
        data_path = os.path.join(path, "vp_text")
        (
            build_vp(triples, stats)
            .select("pred", F.concat_ws(_SEP, escaped("s"), escaped("o")).alias("value"))
            .write.partitionBy("pred")
            .mode("overwrite")
            .text(data_path)
        )
        return cls(spark=spark, stats=stats, path=data_path)

    def query(self, sparql: str | Query) -> DataFrame:
        """Evaluate via RDD joins; returns a Spark DataFrame of the
        projected variables (strings) for uniform comparison."""
        query = parse(sparql) if isinstance(sparql, str) else sparql
        query.validate()
        sc = self.spark.sparkContext

        result = None
        result_vars: set[str] = set()
        for tp in most_bound_first(query.patterns, self.stats.n_triples):
            if tp.predicate not in self.stats:
                rdd = sc.parallelize([])  # predicate absent from the graph
            else:
                pred_path = os.path.join(self.path, f"pred={self.stats.column(tp.predicate)}")
                rdd = _pattern_rdd(sc, pred_path, tp)
            tp_vars = set(tp.variables())
            if not tp_vars:
                # variable-free pattern: keeps everything iff it matched
                if rdd.isEmpty():
                    result = sc.parallelize([])
                continue
            if result is None:
                result = rdd
                result_vars = tp_vars
            else:
                shared = sorted(result_vars & tp_vars)
                result = _join_bindings(result, rdd, shared)
                result_vars |= tp_vars

        cols = list(query.projection())
        schema = T.StructType([T.StructField(c, T.StringType()) for c in cols])
        if result is None:  # only variable-free patterns, all matched
            return self.spark.createDataFrame([], schema)
        rows = result.map(lambda b: tuple(b.get(c) for c in cols))
        out = self.spark.createDataFrame(rows, schema=schema)
        return out.distinct() if query.distinct else out
