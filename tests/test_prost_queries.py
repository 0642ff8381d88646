"""End-to-end PRoST correctness: all 20 WatDiv queries, both strategies,
checked row-for-row against the DuckDB reference semantics."""
from __future__ import annotations

import pytest

from repro.oracle import assert_equivalent_pd
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql
from repro.sparql.watdiv_queries import QUERIES


@pytest.mark.parametrize("name", sorted(QUERIES))
class TestAgainstOracle:
    def test_mixed_strategy(self, prost, triples_pd, name):
        sparql = QUERIES[name]
        df = prost.query(sparql, mode="mixed")
        assert_equivalent_pd(df.toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd)

    def test_vp_only_strategy(self, prost, triples_pd, name):
        sparql = QUERIES[name]
        df = prost.query(sparql, mode="vp")
        assert_equivalent_pd(df.toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd)


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_result_columns_are_projection(prost, name):
    sparql = QUERIES[name]
    q = parse(sparql)
    assert prost.query(sparql).columns == list(q.projection())


def test_most_queries_nonempty(prost):
    """The generator guarantees the evaluation isn't trivially empty."""
    nonempty = sum(1 for s in QUERIES.values() if prost.query(s).count() > 0)
    assert nonempty >= 17


def test_modes_agree_on_counts(prost):
    for name in ("C1", "F5", "L2", "S1"):
        sparql = QUERIES[name]
        assert (
            prost.query(sparql, mode="mixed").count()
            == prost.query(sparql, mode="vp").count()
        )


class TestAdHocQueries:
    """Shapes not covered by the WatDiv set."""

    def test_distinct(self, prost, triples_pd):
        sparql = "SELECT DISTINCT ?g WHERE { ?p wsdbm:hasGenre ?g . }"
        assert_equivalent_pd(
            prost.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_star_projection(self, prost, triples_pd):
        sparql = "SELECT * WHERE { ?u wsdbm:likes ?p . ?p og:title ?t . }"
        assert_equivalent_pd(
            prost.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_unknown_predicate_yields_empty(self, prost):
        assert prost.query("SELECT ?a WHERE { ?a wsdbm:nonexistent ?b . }").count() == 0

    def test_constant_subject_star(self, prost, triples_pd):
        sparql = (
            "SELECT ?a ?l WHERE { wsdbm:User0 foaf:age ?a . wsdbm:User0 wsdbm:likes ?l . }"
        )
        assert_equivalent_pd(
            prost.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_self_join_same_predicate(self, prost, triples_pd):
        sparql = "SELECT ?a ?b ?c WHERE { ?a wsdbm:follows ?b . ?b wsdbm:follows ?c . }"
        assert_equivalent_pd(
            prost.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_two_multi_valued_same_star(self, prost, triples_pd):
        sparql = "SELECT ?u ?x ?y WHERE { ?u wsdbm:likes ?x . ?u og:tag ?y . }"
        # og:tag has Product/Genre subjects; likes has User subjects -> empty star
        assert_equivalent_pd(
            prost.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_triangle_query(self, prost, triples_pd):
        sparql = (
            "SELECT ?a ?b WHERE { ?a wsdbm:friendOf ?b . ?b wsdbm:friendOf ?a . }"
        )
        assert_equivalent_pd(
            prost.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_dot_right_after_prefixed_object(self, prost, triples_pd):
        sparql = "SELECT ?u WHERE { ?u wsdbm:likes wsdbm:Product0. }"
        df = prost.query(sparql)
        assert df.count() > 0
        assert_equivalent_pd(df.toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd)

    def test_variable_predicate_rejected(self, prost):
        with pytest.raises(ValueError):
            prost.query("SELECT ?a WHERE { ?a ?p ?b . }")
