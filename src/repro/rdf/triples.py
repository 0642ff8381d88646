"""Triple-table representation of an RDF graph.

All engines in this repo consume an RDF graph as a Spark DataFrame with
the canonical schema ``(s string, p string, o string)`` — IRIs in
prefixed form (``wsdbm:User3``), literals as their lexical value. The
graph is a *set* of triples: :func:`canonicalize` dedupes on load, as
any RDF store does.

The stores that keep triples as plain text lines (SPARQLGX's VP files,
Rya's key files) write every value through :func:`escaped` and read it
back through :func:`unescaper`.
"""
from __future__ import annotations

import re
from typing import Callable

import pandas as pd
from pyspark.sql import Column, DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql import types as T

TRIPLE_SCHEMA = T.StructType(
    [
        T.StructField("s", T.StringType(), False),
        T.StructField("p", T.StringType(), False),
        T.StructField("o", T.StringType(), False),
    ]
)

#: N-Triples-style escapes that keep each value inside one field of one
#: line of a text store: backslash (first, so the others' backslashes
#: are not re-escaped), the field separators tab and ``\x1f``, newline
#: and carriage return
_ESCAPES = (
    ("\\", "\\\\"),
    ("\t", "\\t"),
    ("\x1f", "\\u001F"),
    ("\n", "\\n"),
    ("\r", "\\r"),
)
_ESCAPED = re.compile(r"\\(u001F|.)")
_UNESCAPES = {esc[1:]: raw for raw, esc in _ESCAPES}


def escaped(col: str) -> Column:
    """String column *col* with :data:`_ESCAPES` applied."""
    out = F.col(col)
    for raw, esc in _ESCAPES:
        out = F.replace(out, F.lit(raw), F.lit(esc))
    return out


def unescaper() -> Callable[[str], str]:
    """The inverse of :func:`escaped` for one field of a text-store
    line. Returned as a closure, which Spark pickles by value, so the
    Python workers that run it need not import this package."""

    def unescape(field: str) -> str:
        if "\\" not in field:
            return field
        return _ESCAPED.sub(lambda m: _UNESCAPES[m.group(1)], field)

    return unescape


def to_spark(spark: SparkSession, graph: pd.DataFrame) -> DataFrame:
    """Lift a pandas ``(s,p,o)`` frame to Spark with the canonical schema."""
    return spark.createDataFrame(graph[["s", "p", "o"]], schema=TRIPLE_SCHEMA)


def canonicalize(triples: DataFrame) -> DataFrame:
    """Project to the canonical column order and drop duplicate triples."""
    return triples.select("s", "p", "o").dropDuplicates(["s", "p", "o"])
