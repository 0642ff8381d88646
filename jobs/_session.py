"""The one SparkSession setup: the spark-submit entrypoints, the test
suite's ``spark`` fixture (``conftest.py``) and ``prostbench`` all build
their session here.

Only settings that are honoured after the JVM has started belong here
(master and driver memory are launch arguments). Broadcast joins are
disabled so that joins exercise the shuffle path at laptop scale.
"""
from __future__ import annotations

import os

from pyspark.sql import SparkSession


def get_spark(app: str) -> SparkSession:
    return (
        SparkSession.builder.appName(app)
        .config(
            "spark.sql.shuffle.partitions",
            os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"),
        )
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
