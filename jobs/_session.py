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
"""
from __future__ import annotations

import os
import tempfile

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", 64)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config(
            "spark.sql.warehouse.dir",
            os.path.join(tempfile.gettempdir(), "spark-warehouse"),
        )
        .getOrCreate()
    )
