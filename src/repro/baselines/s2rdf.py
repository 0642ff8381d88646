"""S2RDF baseline: Vertical Partitioning + ExtVP semi-join reductions.

S2RDF (Schätzle et al., VLDB 2016) extends VP with *ExtVP* tables: for
every ordered predicate pair (p1, p2) and join-position pair it
precomputes the semi-join reduction of VP_p1 against VP_p2 —

- ``ss``: rows of VP_p1 whose **subject** is a subject of p2,
- ``so``: rows of VP_p1 whose **subject** is an object of p2,
- ``os``: rows of VP_p1 whose **object** is a subject of p2

(object-object reductions are skipped, as in S2RDF's default
configuration); a table is kept only if it is smaller than VP_p1. At
query time each triple pattern picks the smallest materialised ExtVP
table applicable to one of its joins, falling back to plain VP;
execution is then ordinary stats-ordered VP joins. Because a semi-join
reduction is a superset of the rows the join needs, results are
identical to VP execution — just faster, at the price of a heavy
loading phase. That trade-off is exactly what Table 1 / Table 2 of the
PRoST paper show.

Deviation from the real system (documented in DESIGN.md): S2RDF runs
one Spark SQL statement per ExtVP table; we compute all tables of one
reduction kind in a single self-join and write them as one Parquet
dataset partitioned by (kind, p1, p2). The resulting tables are
identical; only the job count differs.

Queries compile through PRoST's statement builder
(:mod:`repro.core.executor`): the VP and ExtVP datasets are temp views,
and each pattern's table is one of them narrowed by fixed equalities
(:func:`~repro.core.loader.vp_relation`,
:meth:`S2RDFStore.extvp_relation`); that SQL is the one reader of
either dataset.
Unlike PRoST's, they are not bucketed on the subject (S2RDF does not
bucket), so every join shuffles both of its inputs.
"""
from __future__ import annotations

import os
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.executor import compile_statement, vp_node_sql
from repro.core.jointree import VPNode, build_join_tree
from repro.core.loader import Relation, build_vp, register_view, vp_relation, write_and_read
from repro.core.stats import GraphStats
from repro.rdf.triples import canonicalize
from repro.sparql.algebra import Query, TriplePattern, is_var
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
    #: (kind, p1 IRI, p2 IRI) -> row count of that ExtVP table (absent = not kept)
    extvp_counts: dict[tuple[str, str, str], int]
    path: str

    @classmethod
    def load(cls, spark: SparkSession, triples: DataFrame, *, path: str) -> "S2RDFStore":
        """Build VP and keep every ExtVP table that is smaller than its
        VP table (one as large as its VP gives no benefit, as in
        S2RDF). Both datasets are written to Parquet under *path* and
        read back."""
        triples = canonicalize(triples)
        stats = GraphStats.compute(triples)
        vp = write_and_read(build_vp(triples, stats), os.path.join(path, "vp"), "pred")

        extvp = None
        for kind in KINDS:
            part = _reduce(vp, kind)
            extvp = part if extvp is None else extvp.unionByName(part)
        extvp = write_and_read(extvp, os.path.join(path, "extvp"), "kind", "pred", "p2")

        counts: dict[tuple[str, str, str], int] = {}
        for r in extvp.groupBy("kind", "pred", "p2").count().collect():
            p1, p2 = stats.predicate_of[r["pred"]], stats.predicate_of[r["p2"]]
            if r["count"] < stats.n_triples(p1):
                counts[(r["kind"], p1, p2)] = r["count"]

        return cls(
            spark=spark,
            stats=stats,
            vp_view=register_view(vp, "s2rdf_vp"),
            extvp_view=register_view(extvp, "s2rdf_extvp"),
            extvp_counts=counts,
            path=path,
        )

    # ------------------------------------------------------------------
    def extvp_relation(self, kind: str, p1: str, p2: str) -> Relation:
        """The ExtVP table of *kind* reducing *p1* against *p2*; ask
        only for a kept one (a key of :attr:`extvp_counts`)."""
        col = self.stats.column
        return Relation(self.extvp_view, (("kind", kind), ("pred", col(p1)), ("p2", col(p2))))

    # ------------------------------------------------------------------
    def _best_table(self, query: Query, tp: TriplePattern) -> Relation:
        """Smallest applicable ExtVP table for pattern *tp* of *query*,
        else VP."""
        best: tuple[int, str, str] | None = None  # (count, kind, p2)
        for other in query.patterns:
            if other is tp:
                continue
            for kind, a, b in (
                ("ss", tp.s, other.s),
                ("so", tp.s, other.o),
                ("os", tp.o, other.s),
            ):
                if not (is_var(a) and is_var(b) and a.name == b.name):
                    continue
                n = self.extvp_counts.get((kind, tp.predicate, other.predicate))
                if n is not None and (best is None or n < best[0]):
                    best = (n, kind, other.predicate)
        if best is not None:
            return self.extvp_relation(best[1], tp.predicate, best[2])
        return vp_relation(self.vp_view, self.stats, tp.predicate)

    def query(self, sparql: str | Query) -> DataFrame:
        """Answer a SPARQL BGP query from the reduced tables.

        Join ordering reuses the same two-statistic heuristic as
        PRoST's VP mode (S2RDF likewise orders joins by precomputed
        table statistics and leaves physical planning to Catalyst).
        """
        query = parse(sparql) if isinstance(sparql, str) else sparql
        tree = build_join_tree(query, self.stats, mode="vp")

        def node_sql(node, param):
            assert isinstance(node, VPNode)
            rel = self._best_table(query, node.pattern)
            return vp_node_sql(rel, node.pattern, param)

        return compile_statement(query, tree, self.stats, node_sql).run(self.spark)
