"""PRoST loading phase: build the VP tables and the Property Table.

Mirrors §3.1 of the paper:

- **Vertical Partitioning**: one ``(s, o)`` table per distinct
  predicate. Persisted as one Parquet dataset partitioned by the
  (column-safe) predicate name, which is the DataFrame-API equivalent
  of a directory of per-predicate tables.
- **Property Table**: one row per distinct subject; one column per
  predicate, named by :func:`repro.rdf.triples.safe_name`. Multi-valued
  predicates (detected from the statistics) become ``array<string>``
  columns; single-valued ones are plain strings, NULL where absent.
  Stored in Parquet — run-length/dictionary encoding absorbs the NULLs,
  exactly the paper's argument for the format — and hash-partitioned
  (repartitioned) on the subject column so each subject's row lives in
  one file. Spark sizes the partition count from the data volume
  (adaptive execution coalesces the shuffle), so a small graph's PT is
  one file and a large one's is split into files of about 64 MB.

``ProstStore.load`` either keeps everything as in-memory cached
DataFrames (``path=None``, used by unit tests) or writes/reads Parquet
under ``path`` (used by the loading benchmark, so that store size on
disk is measurable). Either way it registers the VP dataset and the PT
as temp views under names unique to the store: the executor's SQL
statements read them by name.
"""
from __future__ import annotations

import os
import uuid
from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.stats import GraphStats
from repro.rdf.triples import canonicalize, safe_name


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


def build_vp(triples: DataFrame) -> DataFrame:
    """The VP dataset: ``(pred, s, o)`` with a column-safe ``pred``.

    Kept as a single DataFrame; :meth:`ProstStore.vp_table` selects one
    predicate, which under Parquet partitioning is a partition-pruned
    read of exactly that predicate's table.
    """
    # native equivalent of safe_name(): every unsafe char becomes "__"
    return triples.select(
        F.regexp_replace("p", "[^A-Za-z0-9_]", "__").alias("pred"), "s", "o"
    )


def vp_relation(view: str, predicate: str) -> Relation:
    """The ``(s, o)`` table of *predicate* in the VP dataset *view*."""
    return Relation(view, (("pred", safe_name(predicate)),))


def build_property_table(
    triples: DataFrame, predicates: list[str], multi_valued: set[str]
) -> DataFrame:
    """One ``groupBy(s)`` aggregation building the whole wide table.

    For each predicate *p* the aggregate collects the objects of *p*
    for the subject (``collect_list`` over a ``when`` guard — non-*p*
    rows contribute NULL, which ``collect_list`` drops). Multi-valued
    predicates keep the list; single-valued ones take its only element
    (NULL when the subject lacks *p*).
    """
    aggs = []
    for p in predicates:
        lst = F.collect_list(F.when(F.col("p") == p, F.col("o")))
        # try_element_at: NULL (not an ANSI error) when the subject
        # lacks predicate p and the collected list is empty
        col = lst if p in multi_valued else F.try_element_at(lst, F.lit(1))
        aggs.append(col.alias(safe_name(p)))
    return triples.groupBy("s").agg(*aggs)


@dataclass
class ProstStore:
    """The loaded PRoST database: VP tables + Property Table + stats."""

    spark: SparkSession
    stats: GraphStats
    multi_valued: set[str]
    predicates: list[str]
    _vp: DataFrame
    _pt: DataFrame
    #: temp view names of the VP dataset and the PT, unique to the store
    vp_view: str
    pt_view: str
    path: str | None = None

    @classmethod
    def load(
        cls,
        spark: SparkSession,
        triples: DataFrame,
        *,
        path: str | None = None,
        cache: bool = True,
    ) -> "ProstStore":
        """Build the store from a triple DataFrame.

        With ``path`` set, VP and PT are written to
        ``{path}/vp`` / ``{path}/pt`` in Parquet and read back, so
        subsequent queries scan Parquet exactly as the paper's HDFS
        deployment does. With ``path=None`` the DataFrames are cached
        in memory (fast unit tests).
        """
        triples = canonicalize(triples)
        stats = GraphStats.compute(triples)
        predicates = stats.predicates()
        multi = stats.multi_valued()

        vp = build_vp(triples)
        pt = build_property_table(triples, predicates, multi)

        if path is not None:
            vp_path = os.path.join(path, "vp")
            pt_path = os.path.join(path, "pt")
            vp.write.partitionBy("pred").mode("overwrite").parquet(vp_path)
            # Horizontal partitioning on the subject column (§3.1): a
            # hash repartition keeps every subject row in one partition;
            # with no fixed count, Spark sizes the partitions.
            pt.repartition(F.col("s")).write.mode("overwrite").parquet(pt_path)
            vp = spark.read.parquet(vp_path)
            pt = spark.read.parquet(pt_path)
        elif cache:
            vp = vp.cache()
            pt = pt.cache()

        return cls(
            spark=spark,
            stats=stats,
            multi_valued=multi,
            predicates=predicates,
            _vp=vp,
            _pt=pt,
            vp_view=register_view(vp, "prost_vp"),
            pt_view=register_view(pt, "prost_pt"),
            path=path,
        )

    # ------------------------------------------------------------------
    def vp_table(self, predicate: str) -> DataFrame:
        """The ``(s, o)`` VP table of *predicate* (empty if unused)."""
        return vp_relation(self.vp_view, predicate).rows(self.spark)

    @property
    def property_table(self) -> DataFrame:
        return self._pt

    def is_multi_valued(self, predicate: str) -> bool:
        return predicate in self.multi_valued

    def has_predicate(self, predicate: str) -> bool:
        return predicate in self.stats

    def triples_back(self) -> DataFrame:
        """Reconstruct the triple table from VP (test/round-trip helper)."""
        rev = {safe_name(p): p for p in self.predicates}
        mapping = F.create_map(
            *[x for k, v in rev.items() for x in (F.lit(k), F.lit(v))]
        )
        return self._vp.select("s", mapping[F.col("pred")].alias("p"), "o")
