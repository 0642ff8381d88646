"""The one SparkSession setup: the spark-submit entrypoints, the test
suite's ``spark`` fixture (``conftest.py``) and ``prostbench`` all build
their session here.

Only settings that are honoured after the JVM has started belong here
(master and driver memory are launch arguments). Shuffles use 64
partitions, and broadcast joins are disabled so that joins exercise
the shuffle path at laptop scale. The catalog's warehouse directory,
which Spark creates even though every table the stores create has its
own location, lies in the process's temp directory rather than in the
current one.

Spark keeps the classes it generates and compiles for a plan in one
LRU cache per JVM, read once when the JVM first compiles a class, so
the size is a static setting that holds because this function creates
the session. Spark's default of 100 entries is smaller than one pass
of the WatDiv queries, so every pass recompiled each query's classes;
:data:`CODEGEN_CACHE_ENTRIES` keeps the whole working set.
"""
from __future__ import annotations

import os
import tempfile

from pyspark.sql import SparkSession

#: compiled classes the codegen cache keeps. Distinct classes compiled
#: at WatDiv-lite scale 0.2 (local[4]): the PRoST load 45; one pass of
#: the 20 queries after it, 238 in VP-only mode and 136 in mixed mode;
#: the whole of ``jobs/paper_tables.py`` (four systems loaded and
#: queried in one JVM) 611.
CODEGEN_CACHE_ENTRIES = 1000


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.sql.codegen.cache.maxEntries", CODEGEN_CACHE_ENTRIES)
        .config(
            "spark.sql.warehouse.dir",
            os.path.join(tempfile.gettempdir(), "spark-warehouse"),
        )
        .getOrCreate()
    )
