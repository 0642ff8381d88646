"""Edge inputs through the SQL statement path, diffed against the oracle.

PRoST (mixed and VP-only) and S2RDF compile every query to one
parameterised Spark SQL statement. These inputs stress that path:
literals that look like SQL, quoting or parameter markers; predicates
the graph lacks; queries with no variables; ``?x p ?x``; stars over two
unbound multi-valued patterns; DISTINCT. Each answer is diffed against
the DuckDB reference (``sparql/reference.py`` through ``oracle.py``).
"""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.s2rdf import S2RDFStore
from repro.core.executor import compile_tree
from repro.core.prost import Prost
from repro.oracle import assert_equivalent_pd
from repro.rdf.triples import to_spark
from repro.sparql.algebra import IRI, Literal, Query, TriplePattern, Variable, is_const
from repro.sparql.reference import SOLUTION_COLUMN, bgp_to_sql

#: literals shaped like SQL, quoting, escapes or parameter markers
LITERALS = [
    "x' OR '1'='1",
    'say "hi"',
    "back\\slash",
    "tail\\",
    "it''s",
    ":c0",
    "?x",
    "`tick`",
    "{c0}; DROP VIEW v --",
]
N = len(LITERALS)


def s(i: int) -> str:
    return f"ex:s{i}"


def edge_graph() -> pd.DataFrame:
    rows = []
    for i, lit in enumerate(LITERALS):
        rows += [
            (s(i), "ex:label", lit),  # single-valued
            (s(i), "ex:name", f"n{i}"),  # single-valued
            (s(i), "ex:tag", lit),  # multi-valued: two literals each
            (s(i), "ex:tag", LITERALS[(i + 1) % N]),
            (s(i), "ex:knows", s((i + 1) % N)),
        ]
        if i % 2 == 0:
            rows += [(s(i), "ex:tag2", f"t{i}a"), (s(i), "ex:tag2", f"t{i}b")]
    rows += [(s(0), "ex:knows", s(0)), (s(3), "ex:knows", s(3))]  # ?x p ?x
    return pd.DataFrame(rows, columns=["s", "p", "o"])


def term(x: str):
    if x.startswith("?"):
        return Variable(x[1:])
    return IRI(x) if x.startswith("ex:") else Literal(x)


def bgp(*patterns: tuple[str, str, str], select=("*",), distinct=False) -> Query:
    tps = tuple(TriplePattern(term(a), IRI(p), term(b)) for a, p, b in patterns)
    return Query(tuple(select), tps, distinct)


def literal_queries(lit: str) -> list[Query]:
    return [
        bgp(("?s", "ex:label", lit)),
        bgp(("?s", "ex:label", lit), ("?s", "ex:tag", "?t")),
        bgp(("?s", "ex:tag", lit), ("?s", "ex:name", "?n")),
        bgp(("?s", "ex:label", "?l"), ("?t", "ex:tag", "?l"), ("?t", "ex:tag", lit)),
        bgp((s(0), "ex:label", lit)),
        bgp((s(0), "ex:label", lit), (s(0), "ex:name", "n0")),
    ]


CASES = {
    "missing_in_star": bgp(("?s", "ex:label", "?l"), ("?s", "ex:missing", "?m")),
    "missing_as_vp": bgp(
        ("?s", "ex:label", "?l"), ("?s", "ex:knows", "?t"), ("?t", "ex:missing", "?m")
    ),
    "no_vars_two_subjects": bgp((s(0), "ex:knows", s(0)), (s(1), "ex:name", "n1")),
    "no_vars_no_match": bgp((s(0), "ex:name", "n9")),
    "no_vars_missing": bgp((s(0), "ex:missing", "x")),
    "no_vars_distinct": bgp(
        (s(0), "ex:tag", LITERALS[0]), (s(1), "ex:knows", s(2)), distinct=True
    ),
    "self_loop": bgp(("?x", "ex:knows", "?x")),
    "self_loop_in_star": bgp(("?x", "ex:knows", "?x"), ("?x", "ex:name", "?n")),
    "two_multi_valued": bgp(("?s", "ex:tag", "?a"), ("?s", "ex:tag2", "?b")),
    "same_multi_valued_twice": bgp(
        ("?s", "ex:tag", "?a"), ("?s", "ex:tag", "?b"), ("?s", "ex:name", "?n")
    ),
    "distinct_star": bgp(
        ("?s", "ex:tag", "?a"), ("?s", "ex:tag2", "?b"), select=("s",), distinct=True
    ),
    "distinct_join": bgp(
        ("?s", "ex:knows", "?t"), ("?t", "ex:tag", "?l"), select=("l",), distinct=True
    ),
    # Join Tree shapes: two children of the root that share a variable
    # the root lacks, two multi-node components, constant-only patterns
    # beside a star, three variable-free patterns
    "tree_cycle": bgp(
        ("?x", "ex:knows", "?y"), ("?y", "ex:knows", "?z"), ("?z", "ex:knows", "?x")
    ),
    "tree_two_components": bgp(
        ("?a", "ex:knows", "?b"),
        ("?b", "ex:name", "?n"),
        ("?c", "ex:tag2", "?t"),
        ("?d", "ex:knows", "?c"),
    ),
    "tree_constant_patterns": bgp(
        (s(0), "ex:knows", s(0)),
        (s(1), "ex:name", "n1"),
        ("?s", "ex:label", "?l"),
        ("?s", "ex:knows", "?t"),
    ),
    "tree_no_vars_three": bgp(
        (s(0), "ex:knows", s(0)), (s(1), "ex:name", "n1"), (s(3), "ex:knows", s(3))
    ),
}


@pytest.fixture(scope="module")
def graph() -> pd.DataFrame:
    return edge_graph()


@pytest.fixture(scope="module")
def prost(spark, graph, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("edges_prost"))
    return Prost.load(spark, to_spark(spark, graph), path=path)


@pytest.fixture(scope="module")
def engines(spark, graph, prost, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("edges_s2rdf"))
    s2rdf = S2RDFStore.load(spark, to_spark(spark, graph), path=path)
    return {
        "mixed": lambda q: prost.query(q, mode="mixed"),
        "vp": lambda q: prost.query(q, mode="vp"),
        "s2rdf": s2rdf.query,
    }


ENGINES = ["mixed", "vp", "s2rdf"]


def check(engines, graph, engine: str, query: Query) -> None:
    got = engines[engine](query)
    if not query.projection():
        # one row per solution, each the empty mapping
        assert got.columns == []
        got = got.select(F.lit(1).alias(SOLUTION_COLUMN))
    assert_equivalent_pd(got.toPandas(), bgp_to_sql(query), triples=graph)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("lit", LITERALS)
def test_literals(engines, graph, engine, lit):
    for query in literal_queries(lit):
        check(engines, graph, engine, query)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("case", sorted(CASES))
def test_cases(engines, graph, engine, case):
    check(engines, graph, engine, CASES[case])


@pytest.mark.parametrize("case", ["missing_in_star", "missing_as_vp"])
@pytest.mark.parametrize("engine", ENGINES)
def test_missing_predicate_keeps_columns(engines, engine, case):
    out = engines[engine](CASES[case])
    assert out.count() == 0 and out.columns == list(CASES[case].projection())


def test_constants_are_parameters(prost):
    """No constant is spliced into the statement's text: it holds no
    string literal, and every constant is a parameter value."""
    queries = [q for lit in LITERALS for q in literal_queries(lit)] + list(CASES.values())
    for query in queries:
        for mode in ("mixed", "vp"):
            stmt = compile_tree(prost.store, prost.plan(query, mode), query)
            assert "'" not in stmt.text and '"' not in stmt.text
            constants = {
                t.value for tp in query.patterns for t in (tp.s, tp.o) if is_const(t)
            }
            if all(tp.predicate in prost.store.stats for tp in query.patterns):
                assert constants <= set(stmt.args.values())
