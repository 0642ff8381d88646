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
  exactly the paper's argument for the format.

Both are hash-partitioned on the subject (§3.1) in a way the query
planner can see: ``ProstStore.load`` writes each as a Spark bucketed
catalog table, ``CLUSTERED BY (s) SORTED BY (s) INTO n BUCKETS`` with
the same *n* (:func:`bucket_count`, from the triple count and Spark's
advisory partition size, so 1 for graphs up to about a million
triples). A join of two stored nodes on their subject variable
therefore needs no shuffle on either side, and a PT node joined on its
subject shuffles only the other side. The tables live in Parquet under
``path`` (``vp/pred=p<i>/`` and ``pt/``, one file per predicate and
bucket), so the store's size on disk is measurable; their catalog names
are unique to the store, and the executor's SQL statements, the one
reader of the tables, read them by name.
"""
from __future__ import annotations

import math
import os
import uuid
from dataclasses import dataclass

from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.stats import GraphStats
from repro.rdf.triples import canonicalize


@dataclass(frozen=True)
class Relation:
    """An ``(s, o)`` relation: a table or view narrowed by fixed
    ``column = value`` equalities."""

    view: str
    where: tuple[tuple[str, str], ...]


def unique_name(prefix: str) -> str:
    """A fresh table or view name starting with *prefix*."""
    return f"{prefix}_{uuid.uuid4().hex}"


def register_view(df: DataFrame, prefix: str) -> str:
    """Register *df* as a temp view under a fresh name; return the name."""
    name = unique_name(prefix)
    df.createTempView(name)
    return name


def literal_map(mapping: dict[str, str]) -> Column:
    """*mapping* as a ``map<string,string>`` literal (typed even when
    empty, so an empty graph's lookups still resolve)."""
    pairs = (F.lit(x) for kv in mapping.items() for x in kv)
    return F.create_map(*pairs).cast("map<string,string>")


def build_vp(triples: DataFrame, stats: GraphStats) -> DataFrame:
    """The VP dataset: ``(pred, s, o)``, ``pred`` the dictionary name of ``p``.

    Kept as a single DataFrame; :func:`vp_relation` selects one
    predicate, which under Parquet partitioning is a partition-pruned
    read of exactly that predicate's table. The S2RDF and SPARQLGX
    baselines partition their stores by the same ``pred`` column.
    """
    return triples.select(literal_map(stats.columns)[F.col("p")].alias("pred"), "s", "o")


def vp_relation(view: str, stats: GraphStats, predicate: str) -> Relation:
    """The ``(s, o)`` table of *predicate* in the VP dataset *view*;
    KeyError if the graph lacks it (the executor answers such a pattern
    with no rows before it asks for a table)."""
    return Relation(view, (("pred", stats.column(predicate)),))


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


#: estimated bytes of one ``(s, o)`` row in Spark's row format: two
#: short IRI strings plus the row's fixed-width part
ROW_BYTES = 64


def bucket_count(stats: GraphStats, bucket_bytes: int) -> int:
    """Subject buckets for the graph of *stats*: as many as it takes to
    keep each bucket's VP rows near *bucket_bytes* (Spark's advisory
    partition size, the size adaptive execution coalesces shuffles
    to), and at least one."""
    n_triples = sum(st.n_triples for st in stats.by_predicate.values())
    return max(1, math.ceil(n_triples * ROW_BYTES / bucket_bytes))


def write_bucketed(
    df: DataFrame, path: str, prefix: str, n: int, partition_by: str | None = None
) -> str:
    """Write *df* to Parquet at *path* as a new catalog table bucketed
    into *n* subject buckets; return the table's name.

    The table is created with an explicit schema and ``LOCATION``, then
    filled by an overwriting ``insertInto``, which replaces an earlier
    store at *path*. Each (partition, bucket) pair is one file, as the
    rows are repartitioned by the bucket hash before the write.
    """
    spark = df.sparkSession
    name = unique_name(prefix)
    if partition_by:  # insertInto matches columns by position, partitions last
        df = df.select(*(c for c in df.columns if c != partition_by), partition_by)
    schema = ", ".join(f"`{f.name}` {f.dataType.simpleString()}" for f in df.schema)
    partitioned = f"PARTITIONED BY (`{partition_by}`) " if partition_by else ""
    os.makedirs(path, exist_ok=True)  # Spark warns when LOCATION does not exist
    spark.sql(
        f"CREATE TABLE `{name}` ({schema}) USING parquet {partitioned}"
        f"CLUSTERED BY (`s`) SORTED BY (`s`) INTO {n} BUCKETS LOCATION :path",
        args={"path": path},
    )
    df.repartition(n, F.col("s")).write.insertInto(name, overwrite=True)
    return name


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
    #: catalog table names of the VP dataset and the PT, unique to the store
    vp_name: str
    pt_name: str
    path: str

    @classmethod
    def load(cls, spark: SparkSession, triples: DataFrame, *, path: str) -> "ProstStore":
        """Build the store from a triple DataFrame: VP and PT are
        written to ``{path}/vp`` and ``{path}/pt`` as bucketed Parquet
        tables, and queries scan those tables."""
        triples = canonicalize(triples)
        stats = GraphStats.compute(triples)
        # the same subject buckets for VP and PT (§3.1), so subject
        # joins between them are co-partitioned
        advisory = spark.conf.get("spark.sql.adaptive.advisoryPartitionSizeInBytes")
        byte_string = spark._jvm.org.apache.spark.network.util.JavaUtils.byteStringAsBytes
        n = bucket_count(stats, byte_string(advisory))

        vp = build_vp(triples, stats)
        pt = build_property_table(triples, stats)
        return cls(
            spark=spark,
            stats=stats,
            multi_valued=stats.multi_valued(),
            vp_name=write_bucketed(vp, os.path.join(path, "vp"), "prost_vp", n, "pred"),
            pt_name=write_bucketed(pt, os.path.join(path, "pt"), "prost_pt", n),
            path=path,
        )

    # ------------------------------------------------------------------
    @property
    def property_table(self) -> DataFrame:
        return self.spark.table(self.pt_name)

    def triples_back(self) -> DataFrame:
        """Reconstruct the triple table from VP (test/round-trip helper)."""
        pred = literal_map(self.stats.predicate_of)[F.col("pred")]
        return self.spark.table(self.vp_name).select("s", pred.alias("p"), "o")
