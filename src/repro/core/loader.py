"""PRoST loading phase: build the VP tables and the Property Table.

Mirrors §3.1 of the paper:

- **Vertical Partitioning**: one ``(s, o)`` table per distinct
  predicate. Persisted as one Parquet dataset partitioned by the
  predicate's dictionary name (``pred=p<i>``, see
  :meth:`repro.core.stats.GraphStats.column`), which is the
  DataFrame-API equivalent of a directory of per-predicate tables.
- **Property Table**: one row per distinct subject; one column per
  predicate, named ``p<i>`` by the same dictionary. Multi-valued
  predicates (detected from the statistics) become ``array<string>``
  columns; single-valued ones are plain strings, NULL where absent.
  Stored in Parquet — run-length/dictionary encoding absorbs the NULLs,
  exactly the paper's argument for the format — and hash-partitioned
  (repartitioned) on the subject column so each subject's row lives in
  one file. Spark sizes the partition count from the data volume
  (adaptive execution coalesces the shuffle), so a small graph's PT is
  one file and a large one's is split into files of about 64 MB.

``ProstStore.load`` writes both to Parquet under ``path`` and reads
them back, so queries scan Parquet as the paper's HDFS deployment does
and the store's size on disk is measurable. It registers the read-back
VP dataset and PT as temp views under names unique to the store: the
executor's SQL statements read them by name.
"""
from __future__ import annotations

import os
import uuid
from dataclasses import dataclass

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.stats import GraphStats
from repro.rdf.triples import canonicalize


@dataclass(frozen=True)
class Relation:
    """An ``(s, o)`` relation: a temp view narrowed by fixed
    ``column = value`` equalities."""

    view: str
    where: tuple[tuple[str, str], ...]

    def rows(self, spark: SparkSession) -> DataFrame:
        """The relation's ``(s, o)`` rows."""
        df = spark.table(self.view)
        for col, value in self.where:
            df = df.filter(F.col(col) == value)
        return df.select("s", "o")


def register_view(df: DataFrame, prefix: str) -> str:
    """Register *df* as a temp view under a fresh name; return the name."""
    name = f"{prefix}_{uuid.uuid4().hex}"
    df.createTempView(name)
    return name


def literal_map(mapping: dict[str, str]) -> Column:
    """*mapping* as a ``map<string,string>`` literal (typed even when
    empty, so an empty graph's lookups still resolve)."""
    pairs = (F.lit(x) for kv in mapping.items() for x in kv)
    return F.create_map(*pairs).cast("map<string,string>")


def build_vp(triples: DataFrame, stats: GraphStats) -> DataFrame:
    """The VP dataset: ``(pred, s, o)``, ``pred`` the dictionary name of ``p``.

    Kept as a single DataFrame; :meth:`ProstStore.vp_table` selects one
    predicate, which under Parquet partitioning is a partition-pruned
    read of exactly that predicate's table. The S2RDF and SPARQLGX
    baselines partition their stores by the same ``pred`` column.
    """
    return triples.select(literal_map(stats.columns)[F.col("p")].alias("pred"), "s", "o")


def vp_relation(view: str, stats: GraphStats, predicate: str) -> Relation:
    """The ``(s, o)`` table of *predicate* in the VP dataset *view*; no
    rows if the graph lacks it (no partition is named ``""``)."""
    return Relation(view, (("pred", stats.columns.get(predicate, "")),))


def build_property_table(triples: DataFrame, stats: GraphStats) -> DataFrame:
    """One ``groupBy(s)`` aggregation building the whole wide table.

    For each predicate *p* the aggregate collects the objects of *p*
    for the subject (``collect_list`` over a ``when`` guard — non-*p*
    rows contribute NULL, which ``collect_list`` drops). Multi-valued
    predicates keep the list; single-valued ones take its only element
    (NULL when the subject lacks *p*).
    """
    aggs = []
    multi_valued = stats.multi_valued()
    for p in stats.predicates():
        lst = F.collect_list(F.when(F.col("p") == p, F.col("o")))
        # try_element_at: NULL (not an ANSI error) when the subject
        # lacks predicate p and the collected list is empty
        col = lst if p in multi_valued else F.try_element_at(lst, F.lit(1))
        aggs.append(col.alias(stats.column(p)))
    if not aggs:  # no predicates (an empty graph): subjects only
        return triples.select("s").distinct()
    return triples.groupBy("s").agg(*aggs)


def write_and_read(df: DataFrame, path: str, *partition_by: str) -> DataFrame:
    """Write *df* to Parquet at *path* and read it back.

    The read-back takes the schema *df* was written with, so a dataset
    with no rows (an empty partitioned write leaves no data files for
    Spark to infer a schema from) reads back as an empty, typed table.
    """
    df.write.partitionBy(*partition_by).mode("overwrite").parquet(path)
    return df.sparkSession.read.schema(df.schema).parquet(path)


@dataclass
class ProstStore:
    """The loaded PRoST database: VP tables + Property Table + stats."""

    spark: SparkSession
    stats: GraphStats
    multi_valued: set[str]
    #: temp view names of the VP dataset and the PT, unique to the store
    vp_view: str
    pt_view: str
    path: str

    @classmethod
    def load(cls, spark: SparkSession, triples: DataFrame, *, path: str) -> "ProstStore":
        """Build the store from a triple DataFrame: VP and PT are
        written to ``{path}/vp`` and ``{path}/pt`` in Parquet and read
        back, and queries scan the read-back tables."""
        triples = canonicalize(triples)
        stats = GraphStats.compute(triples)

        vp = write_and_read(build_vp(triples, stats), os.path.join(path, "vp"), "pred")
        # Horizontal partitioning on the subject column (§3.1): a hash
        # repartition keeps every subject row in one partition; with no
        # fixed count, Spark sizes the partitions.
        pt = build_property_table(triples, stats).repartition(F.col("s"))
        pt = write_and_read(pt, os.path.join(path, "pt"))

        return cls(
            spark=spark,
            stats=stats,
            multi_valued=stats.multi_valued(),
            vp_view=register_view(vp, "prost_vp"),
            pt_view=register_view(pt, "prost_pt"),
            path=path,
        )

    # ------------------------------------------------------------------
    def vp_table(self, predicate: str) -> DataFrame:
        """The ``(s, o)`` VP table of *predicate* (empty if unused)."""
        return vp_relation(self.vp_view, self.stats, predicate).rows(self.spark)

    @property
    def property_table(self) -> DataFrame:
        return self.spark.table(self.pt_view)

    def is_multi_valued(self, predicate: str) -> bool:
        return predicate in self.multi_valued

    def triples_back(self) -> DataFrame:
        """Reconstruct the triple table from VP (test/round-trip helper)."""
        pred = literal_map(self.stats.predicate_of)[F.col("pred")]
        return self.spark.table(self.vp_view).select("s", pred.alias("p"), "o")
