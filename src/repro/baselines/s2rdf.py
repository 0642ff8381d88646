"""S2RDF baseline: Vertical Partitioning + ExtVP semi-join reductions.

S2RDF (Schätzle et al., VLDB 2016) extends VP with *ExtVP* tables: for
every ordered predicate pair (p1, p2) and join-position pair it
precomputes the semi-join reduction of VP_p1 against VP_p2 —

- ``ss``: rows of VP_p1 whose **subject** is a subject of p2,
- ``so``: rows of VP_p1 whose **subject** is an object of p2,
- ``os``: rows of VP_p1 whose **object** is a subject of p2

(object-object reductions are skipped, as in S2RDF's default
configuration). At query time each triple pattern picks the smallest
materialised ExtVP table applicable to one of its joins, falling back
to plain VP; execution is then ordinary stats-ordered VP joins. Because
a semi-join reduction is a superset of the rows the join needs, results
are identical to VP execution — just faster, at the price of a heavy
loading phase. That trade-off is exactly what Table 1 / Table 2 of the
PRoST paper show.

Deviation from the real system (documented in DESIGN.md): S2RDF runs
one Spark SQL statement per ExtVP table; we compute all tables of one
reduction kind in a single self-join and write them as one Parquet
dataset partitioned by (kind, p1, p2). The resulting tables are
identical; only the job count differs.

Queries compile through PRoST's statement builder
(:mod:`repro.core.executor`): the VP and ExtVP datasets are temp views,
and each pattern's table is one of them narrowed by fixed equalities.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.executor import compile_statement, vp_node_sql
from repro.core.jointree import VPNode, build_join_tree
from repro.core.loader import Relation, build_vp, register_view, vp_relation
from repro.core.stats import GraphStats
from repro.rdf.triples import canonicalize, safe_name
from repro.sparql.algebra import Query, is_var
from repro.sparql.parser import parse

#: the reduction kinds S2RDF materialises by default
KINDS = ("ss", "so", "os")


def _distinct_side(vp: DataFrame, kind: str) -> DataFrame:
    """The join-key side of p2 for one reduction kind: distinct
    (p2, key) pairs, where key is p2's subject (ss/os) or object (so)."""
    key = "o" if kind == "so" else "s"
    return vp.select(F.col("pred").alias("p2"), F.col(key).alias("k")).distinct()


def _reduce(vp: DataFrame, kind: str) -> DataFrame:
    """All ExtVP tables of one kind in a single self-join:
    rows (kind, pred=p1, p2, s, o)."""
    join_col = "o" if kind == "os" else "s"
    side = _distinct_side(vp, kind)
    joined = vp.join(side, on=vp[join_col] == side["k"], how="inner").filter(
        F.col("pred") != F.col("p2")
    )
    return joined.select(
        F.lit(kind).alias("kind"), "pred", "p2", "s", "o"
    )


@dataclass
class S2RDFStore:
    """Loaded S2RDF database: VP + ExtVP + statistics."""

    spark: SparkSession
    stats: GraphStats
    #: temp view names of the VP ``(pred, s, o)`` and the ExtVP
    #: ``(kind, pred, p2, s, o)`` datasets, unique to the store
    vp_view: str
    extvp_view: str
    #: (kind, p1, p2) -> row count of that ExtVP table (None = not kept)
    extvp_counts: dict[tuple[str, str, str], int]
    sel_threshold: float
    path: str | None = None

    @classmethod
    def load(
        cls,
        spark: SparkSession,
        triples: DataFrame,
        *,
        path: str | None = None,
        sel_threshold: float = 1.0,
        cache: bool = True,
    ) -> "S2RDFStore":
        """Build VP and materialise every ExtVP table whose selectivity
        (|ExtVP| / |VP_p1|) is ≤ ``sel_threshold`` and < 1 (a table as
        large as its VP gives no benefit, as in S2RDF)."""
        triples = canonicalize(triples)
        stats = GraphStats.compute(triples)
        vp = build_vp(triples)
        if cache and path is None:
            vp = vp.cache()

        extvp = None
        for kind in KINDS:
            part = _reduce(vp, kind)
            extvp = part if extvp is None else extvp.unionByName(part)

        counts_rows = (
            extvp.groupBy("kind", "pred", "p2").agg(F.count(F.lit(1)).alias("n")).collect()
        )
        safe_stats = {safe_name(p): st.n_triples for p, st in stats.by_predicate.items()}
        counts: dict[tuple[str, str, str], int] = {}
        for r in counts_rows:
            vp_n = safe_stats.get(r["pred"], 0)
            if vp_n and r["n"] / vp_n < 1.0 and r["n"] / vp_n <= sel_threshold:
                counts[(r["kind"], r["pred"], r["p2"])] = r["n"]

        if path is not None:
            vp_path = os.path.join(path, "vp")
            ext_path = os.path.join(path, "extvp")
            vp.write.partitionBy("pred").mode("overwrite").parquet(vp_path)
            extvp.write.partitionBy("kind", "pred", "p2").mode("overwrite").parquet(
                ext_path
            )
            vp = spark.read.parquet(vp_path)
            extvp = spark.read.parquet(ext_path)
        elif cache:
            extvp = extvp.cache()

        return cls(
            spark=spark,
            stats=stats,
            vp_view=register_view(vp, "s2rdf_vp"),
            extvp_view=register_view(extvp, "s2rdf_extvp"),
            extvp_counts=counts,
            sel_threshold=sel_threshold,
            path=path,
        )

    # ------------------------------------------------------------------
    def vp_table(self, predicate: str) -> DataFrame:
        return vp_relation(self.vp_view, predicate).rows(self.spark)

    def extvp_relation(self, kind: str, p1: str, p2: str) -> Relation | None:
        """The materialised ExtVP table, or None if it was not kept."""
        k = (kind, safe_name(p1), safe_name(p2))
        if k not in self.extvp_counts:
            return None
        return Relation(self.extvp_view, tuple(zip(("kind", "pred", "p2"), k)))

    def extvp_table(self, kind: str, p1: str, p2: str) -> DataFrame | None:
        rel = self.extvp_relation(kind, p1, p2)
        return None if rel is None else rel.rows(self.spark)

    # ------------------------------------------------------------------
    def _best_table(self, query: Query, i: int) -> Relation:
        """Smallest applicable ExtVP table for pattern *i*, else VP."""
        tp = query.patterns[i]
        best: tuple[int, str, str] | None = None  # (count, kind, p2)
        for j, other in enumerate(query.patterns):
            if j == i:
                continue
            for kind, a, b in (
                ("ss", tp.s, other.s),
                ("so", tp.s, other.o),
                ("os", tp.o, other.s),
            ):
                if not (is_var(a) and is_var(b) and a.name == b.name):
                    continue
                key = (kind, safe_name(tp.predicate), safe_name(other.predicate))
                n = self.extvp_counts.get(key)
                if n is not None and (best is None or n < best[0]):
                    best = (n, kind, other.predicate)
        if best is not None:
            return self.extvp_relation(best[1], tp.predicate, best[2])
        return vp_relation(self.vp_view, tp.predicate)

    def query(self, sparql: str | Query) -> DataFrame:
        """Answer a SPARQL BGP query from the reduced tables.

        Join ordering reuses the same two-statistic heuristic as
        PRoST's VP mode (S2RDF likewise orders joins by precomputed
        table statistics and leaves physical planning to Catalyst).
        """
        query = parse(sparql) if isinstance(sparql, str) else sparql
        query.validate()
        tree = build_join_tree(query, self.stats, mode="vp")
        index_of = {id(tp): i for i, tp in enumerate(query.patterns)}

        def node_sql(node, param):
            assert isinstance(node, VPNode)
            rel = self._best_table(query, index_of[id(node.pattern)])
            return vp_node_sql(rel, node.pattern, param)

        return compile_statement(query, tree.execution_order, self.stats, node_sql).run(
            self.spark
        )
