"""The shared session keeps every class the WatDiv queries compile.

Spark compiles the code it generates for a plan with Janino and keeps
the compiled classes in one LRU cache per JVM, sized by
``spark.sql.codegen.cache.maxEntries`` (``jobs/_session.py``). One
VP-only pass of the 20 queries compiles about 270 distinct classes; a
cache smaller than that evicts each query's classes before the next
pass reaches it, and every pass compiles them all again.
"""
from __future__ import annotations

from repro.core.executor import compiled_classes
from repro.sparql.parser import parse
from repro.sparql.watdiv_queries import QUERIES


def test_second_pass_compiles_no_class(spark, prost):
    queries = [parse(q) for q in QUERIES.values()]

    def one_pass() -> None:
        for query in queries:
            prost.query(query, mode="vp").count()

    one_pass()
    compiled = compiled_classes(spark)
    one_pass()
    assert compiled_classes(spark) - compiled == 0
