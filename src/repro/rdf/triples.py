"""Triple-table representation of an RDF graph.

All engines in this repo consume an RDF graph as a Spark DataFrame with
the canonical schema ``(s string, p string, o string)`` — IRIs in
prefixed form (``wsdbm:User3``), literals as their lexical value. The
graph is a *set* of triples: :func:`canonicalize` dedupes on load, as
any RDF store does.
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

TRIPLE_SCHEMA = T.StructType(
    [
        T.StructField("s", T.StringType(), False),
        T.StructField("p", T.StringType(), False),
        T.StructField("o", T.StringType(), False),
    ]
)

def to_spark(spark: SparkSession, graph: pd.DataFrame) -> DataFrame:
    """Lift a pandas ``(s,p,o)`` frame to Spark with the canonical schema."""
    return spark.createDataFrame(graph[["s", "p", "o"]], schema=TRIPLE_SCHEMA)


def canonicalize(triples: DataFrame) -> DataFrame:
    """Project to the canonical column order and drop duplicate triples."""
    return triples.select("s", "p", "o").dropDuplicates(["s", "p", "o"])
