"""Unit tests for node compilation and the statement that joins them."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.core.executor import (
    compile_node,
    compile_tree,
    executed_plan,
    execute_tree,
    plan_nodes,
)
from repro.core.jointree import VPNode, build_join_tree, group_patterns
from repro.core.loader import ProstStore
from repro.rdf.triples import to_spark
from repro.sparql.parser import parse
from repro.sparql.watdiv_queries import QUERIES

TINY = pd.DataFrame(
    [
        ("u1", "wsdbm:likes", "p1"),
        ("u1", "wsdbm:likes", "p2"),
        ("u2", "wsdbm:likes", "p1"),
        ("u1", "foaf:age", "26"),
        ("u2", "foaf:age", "30"),
        ("u3", "foaf:age", "26"),
        ("p1", "og:title", "t1"),
        ("u1", "wsdbm:friendOf", "u2"),
        ("u2", "wsdbm:friendOf", "u2"),
    ],
    columns=["s", "p", "o"],
)


@pytest.fixture(scope="module")
def tiny_store(spark, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tiny_store"))
    return ProstStore.load(spark, to_spark(spark, TINY), path=path)


def rows(df):
    return sorted(tuple(r) for r in df.toPandas().itertuples(index=False))


def pattern(text: str):
    return parse(f"SELECT * WHERE {{ {text} }}").patterns[0]


def vp(store, text: str):
    """One pattern compiled as a VP node."""
    return compile_node(store, VPNode(pattern(text)))


def statement_and_result(store, sparql: str):
    """The VP-mode statement of *sparql* and the DataFrame it gives."""
    query = parse(sparql)
    tree = build_join_tree(query, store.stats, mode="vp")
    return compile_tree(store, tree, query), execute_tree(store, tree, query)


class TestCompileVpPattern:
    def test_two_variables(self, tiny_store):
        df = vp(tiny_store, "?a wsdbm:likes ?b .")
        assert sorted(df.columns) == ["a", "b"]
        assert rows(df.select("a", "b")) == [("u1", "p1"), ("u1", "p2"), ("u2", "p1")]

    def test_constant_object(self, tiny_store):
        df = vp(tiny_store, "?a wsdbm:likes <p1> .")
        assert rows(df) == [("u1",), ("u2",)]

    def test_constant_subject(self, tiny_store):
        df = vp(tiny_store, "<u1> wsdbm:likes ?b .")
        assert rows(df) == [("p1",), ("p2",)]

    def test_literal_object(self, tiny_store):
        df = vp(tiny_store, '?a foaf:age "26" .')
        assert rows(df) == [("u1",), ("u3",)]

    def test_repeated_variable(self, tiny_store):
        df = vp(tiny_store, "?x wsdbm:friendOf ?x .")
        assert rows(df) == [("u2",)]

    def test_fully_ground_exists(self, tiny_store):
        df = vp(tiny_store, "<u1> wsdbm:likes <p1> .")
        assert df.count() == 1  # existence row

    def test_fully_ground_no_match(self, tiny_store):
        df = vp(tiny_store, "<u9> wsdbm:likes <p1> .")
        assert df.count() == 0


class TestCompilePtNode:
    def node(self, text: str, mode="mixed"):
        return group_patterns(parse(f"SELECT * WHERE {{ {text} }}"), mode)[0]

    def test_star_two_single_valued(self, tiny_store):
        node = self.node("?u foaf:age ?a . ?u og:title ?t .")
        # no subject has both -> empty
        assert compile_node(tiny_store, node).count() == 0

    def test_star_single_and_multi(self, tiny_store):
        node = self.node("?u foaf:age ?a . ?u wsdbm:likes ?l .")
        df = compile_node(tiny_store, node)
        assert rows(df.select("u", "a", "l")) == [
            ("u1", "26", "p1"),
            ("u1", "26", "p2"),
            ("u2", "30", "p1"),
        ]

    def test_multi_valued_constant_object(self, tiny_store):
        node = self.node("?u wsdbm:likes <p2> . ?u foaf:age ?a .")
        df = compile_node(tiny_store, node)
        assert rows(df.select("u", "a")) == [("u1", "26")]

    def test_two_multi_valued_product(self, tiny_store):
        node = self.node("?u wsdbm:likes ?x . ?u wsdbm:likes ?y .")
        df = compile_node(tiny_store, node)
        # u1: 2x2 pairs, u2: 1 -> 5 rows (bag product semantics)
        assert df.count() == 5

    def test_constant_subject_star(self, tiny_store):
        node = self.node("<u1> foaf:age ?a . <u1> wsdbm:likes ?l .")
        df = compile_node(tiny_store, node)
        assert rows(df.select("a", "l")) == [("26", "p1"), ("26", "p2")]

    def test_missing_predicate_empty(self, tiny_store):
        node = self.node("?u foaf:age ?a . ?u wsdbm:neverUsedPred ?x .")
        df = compile_node(tiny_store, node)
        assert df.count() == 0 and set(df.columns) == {"u", "a", "x"}


class TestJoinAndProject:
    def test_natural_join_on_shared(self, tiny_store):
        stmt, out = statement_and_result(
            tiny_store, "SELECT * WHERE { ?u wsdbm:likes ?p . ?p og:title ?t . }"
        )
        assert "USING (`p`)" in stmt.text
        assert rows(out.select("u", "p", "t")) == [("u1", "p1", "t1"), ("u2", "p1", "t1")]

    def test_cross_join_when_disjoint(self, tiny_store):
        stmt, out = statement_and_result(
            tiny_store, "SELECT * WHERE { ?a foaf:age ?x . ?p og:title ?t . }"
        )
        assert "CROSS JOIN" in stmt.text
        assert out.count() == 3 * 1

    def test_exists_relation_filters(self, tiny_store):
        _stmt, out = statement_and_result(
            tiny_store, "SELECT * WHERE { ?a foaf:age ?x . <u9> wsdbm:likes <p1> . }"
        )
        assert out.count() == 0 and "__exists__" not in out.columns

    def test_project_selects_and_orders(self, tiny_store):
        _stmt, out = statement_and_result(
            tiny_store, "SELECT ?p ?u WHERE { ?u wsdbm:likes ?p . }"
        )
        assert out.columns == ["p", "u"]

    def test_project_distinct(self, tiny_store):
        _stmt, out = statement_and_result(
            tiny_store, "SELECT DISTINCT ?u WHERE { ?u wsdbm:likes ?p . }"
        )
        assert out.count() == 2


@pytest.mark.parametrize("mode", ["mixed", "vp"])
def test_c2_shuffles_fewer_rows_than_it_returns(prost, mode):
    """C2 joined as a tree joins its large inputs last: no shuffle moves
    as many rows as the answer holds (a left-deep chain shuffled a
    larger intermediate into one partition before the last join)."""
    rows, plan = executed_plan(prost.query(QUERIES["C2"], mode))
    shuffled = [
        node.metrics().apply("shuffleRecordsWritten").value()
        for node in plan_nodes(plan)
        if node.nodeName() == "Exchange"
    ]
    assert rows > 0 and max(shuffled) < rows
