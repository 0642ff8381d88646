"""Tests for the BGP → SQL reference semantics and the oracle's comparator."""
from __future__ import annotations

import duckdb
import pandas as pd
import pytest

from repro.oracle import assert_equivalent_pd
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql

TINY = pd.DataFrame(
    [
        ("u1", "likes", "p1"),
        ("u1", "likes", "p2"),
        ("u2", "likes", "p1"),
        ("u1", "age", "26"),
        ("u2", "age", "30"),
        ("p1", "title", "t1"),
    ],
    columns=["s", "p", "o"],
)


def run(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.register("triples", TINY)
    try:
        return con.execute(sql).fetchdf()
    finally:
        con.close()


def q(text: str) -> str:
    return bgp_to_sql(parse(text))


PFX = "PREFIX ex: <http://example.org/> "


class TestSqlShape:
    def test_one_alias_per_pattern(self):
        sql = q("SELECT ?a WHERE { ?a wsdbm:likes ?b . ?b rev:hasReview ?c . }")
        assert "triples t0" in sql and "triples t1" in sql

    def test_constant_becomes_equality(self):
        sql = q("SELECT ?a WHERE { ?a wsdbm:gender \"male\" . }")
        assert "t0.o = 'male'" in sql

    def test_predicate_always_constrained(self):
        sql = q("SELECT ?a WHERE { ?a wsdbm:likes ?b . }")
        assert "t0.p = 'wsdbm:likes'" in sql

    def test_shared_variable_becomes_join(self):
        sql = q("SELECT ?a WHERE { ?a wsdbm:likes ?b . ?b rev:hasReview ?c . }")
        assert "t1.s = t0.o" in sql

    def test_projection_aliases_variables(self):
        sql = q("SELECT ?a ?b WHERE { ?a wsdbm:likes ?b . }")
        assert "AS a" in sql and "AS b" in sql

    def test_distinct_keyword(self):
        assert "DISTINCT" in q("SELECT DISTINCT ?a WHERE { ?a wsdbm:likes ?b . }")

    def test_quote_escaping(self):
        sql = q("SELECT ?a WHERE { ?a sorg:text \"o'brien\" . }")
        assert "'o''brien'" in sql

    def test_variable_predicate_rejected(self):
        with pytest.raises(ValueError):
            q("SELECT ?a WHERE { ?a ?p ?b . }")


class TestSemantics:
    """Executed on the tiny hand-written graph with known answers."""

    def test_single_pattern_bag(self):
        df = run(bgp_to_sql(parse("PREFIX n: <x:> SELECT ?s ?o WHERE { ?s <likes> ?o . }")))
        assert len(df) == 3

    def test_join_chain(self):
        df = run(
            bgp_to_sql(parse("SELECT ?u ?t WHERE { ?u <likes> ?p . ?p <title> ?t . }"))
        )
        assert sorted(map(tuple, df.values)) == [("u1", "t1"), ("u2", "t1")]

    def test_star_same_subject(self):
        df = run(
            bgp_to_sql(parse("SELECT ?u ?a WHERE { ?u <likes> ?p . ?u <age> ?a . }"))
        )
        # u1 likes 2 products -> 2 rows with age 26; u2 -> 1 row
        assert sorted(map(tuple, df.values)) == [
            ("u1", "26"),
            ("u1", "26"),
            ("u2", "30"),
        ]

    def test_constant_subject(self):
        df = run(bgp_to_sql(parse("SELECT ?o WHERE { <u1> <likes> ?o . }")))
        assert sorted(df["o"]) == ["p1", "p2"]

    def test_constant_object(self):
        df = run(bgp_to_sql(parse("SELECT ?s WHERE { ?s <likes> <p1> . }")))
        assert sorted(df["s"]) == ["u1", "u2"]

    def test_repeated_variable_in_pattern(self):
        df = run(bgp_to_sql(parse("SELECT ?x WHERE { ?x <likes> ?x . }")))
        assert len(df) == 0

    def test_distinct_collapses(self):
        df = run(
            bgp_to_sql(parse("SELECT DISTINCT ?u WHERE { ?u <likes> ?p . }"))
        )
        assert sorted(df["u"]) == ["u1", "u2"]

    def test_empty_on_unknown_predicate(self):
        df = run(bgp_to_sql(parse("SELECT ?s WHERE { ?s <nope> ?o . }")))
        assert len(df) == 0


class TestOracleComparator:
    """``oracle.assert_equivalent_pd`` compares bags of rows: it rejects a
    missing row, an extra copy of a row, a NULL in place of a value and
    other columns, and ignores row and column order."""

    SQL = "SELECT s, o FROM triples WHERE p = 'likes'"
    ROWS = [("u1", "p1"), ("u1", "p2"), ("u2", "p1")]

    def check(self, rows, columns=("s", "o")):
        assert_equivalent_pd(pd.DataFrame(rows, columns=list(columns)), self.SQL, triples=TINY)

    def test_accepts_the_same_rows(self):
        self.check(self.ROWS)

    def test_accepts_another_row_order(self):
        self.check(self.ROWS[::-1])

    def test_accepts_another_column_order(self):
        self.check([(o, s) for s, o in self.ROWS], columns=("o", "s"))

    def test_rejects_a_missing_row(self):
        with pytest.raises(AssertionError):
            self.check(self.ROWS[:-1])

    def test_rejects_an_extra_copy_of_a_row(self):
        with pytest.raises(AssertionError):
            self.check(self.ROWS + self.ROWS[:1])

    def test_rejects_null_for_a_value(self):
        with pytest.raises(AssertionError):
            self.check([*self.ROWS[:-1], ("u2", None)])

    def test_rejects_a_value_for_null(self):
        with pytest.raises(AssertionError):
            assert_equivalent_pd(
                pd.DataFrame({"o": ["p1"]}), "SELECT CAST(NULL AS VARCHAR) AS o", triples=TINY
            )

    def test_accepts_null_for_null(self):
        assert_equivalent_pd(
            pd.DataFrame({"o": [None]}), "SELECT CAST(NULL AS VARCHAR) AS o", triples=TINY
        )

    def test_rejects_a_column_mismatch(self):
        with pytest.raises(AssertionError, match="column mismatch"):
            self.check(self.ROWS, columns=("s", "x"))
