"""Degenerate graphs: every engine loads them and answers like the oracle.

Three graphs, each with its own queries:

- ``empty``: no triples. A star (a PT node in mixed mode) and a chain
  answer zero rows under the projected, string-typed columns.
- ``colliding``: predicate IRIs that no punctuation-to-``_`` rewrite
  or case-insensitive column lookup can keep apart (``x-y``/``x.y``/
  ``x__y``, ``Name``/``name``), a predicate ``<s>`` named like the
  Property Table's subject column, a full ``http://…#`` IRI, and
  multi-valued stars over them.
- ``literals``: values an index or a text file can mangle: non-ASCII
  objects (``école`` sorts above ``\\x7f``, a CJK string), ``a`` next
  to ``a\\tb`` and a subject ``a\\t`` (a tab sorts below any key
  separator), a newline, a carriage return, Rya's key separator
  ``\\x1f``, a quote, a backslash and an SQL-shaped string. A query
  that spells the tab as ``\\t`` must return the same rows as one with
  a raw tab.

PRoST (mixed and VP-only), S2RDF, SPARQLGX and Rya each answer every
query, diffed against the DuckDB reference through ``oracle.py``.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro.baselines.rya import RyaStore
from repro.baselines.s2rdf import S2RDFStore
from repro.baselines.sparqlgx import SparqlGXStore
from repro.core.prost import Prost
from repro.oracle import assert_equivalent_pd
from repro.rdf.triples import to_spark
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql

EMPTY = pd.DataFrame({c: pd.Series(dtype=str) for c in ("s", "p", "o")})
EMPTY_QUERIES = [
    "SELECT ?s ?a ?b WHERE { ?s wsdbm:likes ?a . ?s foaf:age ?b . }",
    "SELECT ?a ?c WHERE { ?a wsdbm:friendOf ?b . ?b wsdbm:likes ?c . }",
]

FULL = "http://other.example/ns#p"
COLLIDING = pd.DataFrame(
    [
        ("a", "ex:x-y", "1"),
        ("a", "ex:x-y", "6"),  # multi-valued
        ("b", "ex:x-y", "2"),
        ("a", "ex:x.y", "3"),
        ("c", "ex:x.y", "4"),
        ("a", "ex:x__y", "5"),
        ("a", "ex:Name", "Ann"),
        ("a", "ex:name", "ann"),
        ("b", "ex:name", "bob"),
        ("b", "ex:name", "Bob"),  # multi-valued
        ("b", "ex:Name", "Bob"),
        ("a", "s", "self-a"),
        ("c", "s", "self-c"),
        ("a", FULL, "c"),
        ("b", FULL, "a"),
    ],
    columns=["s", "p", "o"],
)
PREFIX = "PREFIX ex: <http://example.org/> "
COLLIDING_QUERIES = [
    PREFIX + "SELECT ?s ?o WHERE { ?s ex:x-y ?o . }",
    PREFIX + "SELECT * WHERE { ?s ex:x-y ?a . ?s ex:x.y ?b . ?s ex:x__y ?c . }",
    PREFIX + "SELECT * WHERE { ?s ex:x-y ?a . ?s ex:x.y ?b . }",
    PREFIX + "SELECT ?s ?a ?b WHERE { ?s ex:Name ?a . ?s ex:name ?b . }",
    PREFIX + 'SELECT ?s WHERE { ?s ex:x-y "6" . ?s ex:name "ann" . }',
    PREFIX + f"SELECT * WHERE {{ ?x <s> ?v . ?x <{FULL}> ?y . ?y ex:x-y ?z . }}",
    PREFIX + f"SELECT ?x ?y WHERE {{ ?x <{FULL}> ?y . ?y <s> ?v . }}",
]

LITERALS = pd.DataFrame(
    [
        ("a", "ex:p", "école"),
        ("b", "ex:p", "東京"),
        ("c", "ex:p", "a"),
        ("d", "ex:p", "a\tb"),
        ("e", "ex:p", "line1\nline2"),
        ("i", "ex:p", "cr\rlf"),
        ("j", "ex:p", "unit\x1fsep"),
        ("f", "ex:p", 'say "hi"'),
        ("g", "ex:p", "back\\slash"),
        ("h", "ex:p", "x'); DROP TABLE vp; --"),
        ("a", "ex:q", "1"),
        ("a\t", "ex:q", "2"),
        ("d", "ex:q", "3"),
    ],
    columns=["s", "p", "o"],
)
LITERALS_QUERIES = [
    PREFIX + "SELECT ?s ?o WHERE { ?s ex:p ?o . }",
    PREFIX + 'SELECT ?s WHERE { ?s ex:p "a" . }',
    PREFIX + "SELECT * WHERE { ?s ex:p ?o . ?s ex:q ?n . }",
    PREFIX + "SELECT ?n WHERE { <a> ex:q ?n . }",
    PREFIX + r'SELECT ?s WHERE { ?s ex:p "a\tb" . }',
    PREFIX + 'SELECT ?s WHERE { ?s ex:p "a\tb" . }',
]
#: the last two queries spell a tab as ``\t`` and raw: each engine must
#: return the same rows, and some, for both (the oracle parses the same
#: literal, so its diff alone cannot catch a wrong decoding)
LITERALS_SPELLINGS = tuple(LITERALS_QUERIES[-2:])


@pytest.mark.parametrize(
    "graph,queries,spellings",
    [
        pytest.param(EMPTY, EMPTY_QUERIES, (), id="empty"),
        pytest.param(COLLIDING, COLLIDING_QUERIES, (), id="colliding"),
        pytest.param(LITERALS, LITERALS_QUERIES, LITERALS_SPELLINGS, id="literals"),
    ],
)
def test_graph_loads_and_matches_oracle(spark, tmp_path, graph, queries, spellings):
    triples = to_spark(spark, graph)
    prost = Prost.load(spark, triples, path=str(tmp_path / "prost"))
    pt_columns = ["s"] + [prost.store.stats.column(p) for p in sorted(graph["p"].unique())]
    assert prost.store.property_table.columns == pt_columns
    spark_engines = {
        "mixed": lambda q: prost.query(q, mode="mixed"),
        "vp": lambda q: prost.query(q, mode="vp"),
        "s2rdf": S2RDFStore.load(spark, triples, path=str(tmp_path / "s2rdf")).query,
        "sparqlgx": SparqlGXStore.load(spark, triples, path=str(tmp_path / "gx")).query,
    }
    rya = RyaStore.load(spark, triples, path=str(tmp_path / "rya"))
    rows = {}  # (engine, spelling) -> sorted result rows
    for sparql in queries:
        query = parse(sparql)
        reference = bgp_to_sql(query)
        columns = list(query.projection())
        for name, run in spark_engines.items():
            out = run(query)
            assert out.dtypes == [(c, "string") for c in columns], name
            assert_equivalent_pd(out.toPandas(), reference, triples=graph)
            if sparql in spellings:
                rows[name, sparql] = sorted(map(tuple, out.collect()))
        out = rya.query(query)
        assert list(out.columns) == columns
        assert_equivalent_pd(out, reference, triples=graph)
        if sparql in spellings:
            rows["rya", sparql] = sorted(out.itertuples(index=False, name=None))
        if graph.empty:
            assert out.empty
    for name in [*spark_engines, "rya"]:
        same = [rows[name, sparql] for sparql in spellings]
        assert all(r and r == same[0] for r in same), name
