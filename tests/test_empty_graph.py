"""The empty graph: every engine loads it and answers with no rows.

PRoST (mixed and VP-only), S2RDF, SPARQLGX and Rya each load a graph
with no triples, then answer a star (a PT node in mixed mode) and a
chain with zero rows under the projected, string-typed columns. Each
answer is diffed against the DuckDB reference through ``oracle.py``.
"""
from __future__ import annotations

import pandas as pd

from repro.baselines.rya import RyaStore
from repro.baselines.s2rdf import S2RDFStore
from repro.baselines.sparqlgx import SparqlGXStore
from repro.core.prost import Prost
from repro.oracle import assert_equivalent, assert_equivalent_pd
from repro.rdf.triples import to_spark
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql

QUERIES = [
    "SELECT ?s ?a ?b WHERE { ?s wsdbm:likes ?a . ?s foaf:age ?b . }",
    "SELECT ?a ?c WHERE { ?a wsdbm:friendOf ?b . ?b wsdbm:likes ?c . }",
]


def test_empty_graph_loads_and_answers_nothing(spark, tmp_path):
    graph = pd.DataFrame({c: pd.Series(dtype=str) for c in ("s", "p", "o")})
    triples = to_spark(spark, graph)
    prost = Prost.load(spark, triples, path=str(tmp_path / "prost"))
    assert prost.store.property_table.columns == ["s"]
    spark_engines = {
        "mixed": lambda q: prost.query(q, mode="mixed"),
        "vp": lambda q: prost.query(q, mode="vp"),
        "s2rdf": S2RDFStore.load(spark, triples, path=str(tmp_path / "s2rdf")).query,
        "sparqlgx": SparqlGXStore.load(spark, triples, path=str(tmp_path / "gx")).query,
    }
    rya = RyaStore.load(graph)
    for sparql in QUERIES:
        query = parse(sparql)
        reference = bgp_to_sql(query)
        columns = list(query.projection())
        for name, run in spark_engines.items():
            out = run(query)
            assert out.dtypes == [(c, "string") for c in columns], name
            assert_equivalent(out, reference, triples=graph)
        out = rya.query(query)
        assert list(out.columns) == columns and out.empty
        assert_equivalent_pd(out, reference, triples=graph)
