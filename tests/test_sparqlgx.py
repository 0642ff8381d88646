"""Tests for the SPARQLGX baseline: text storage + RDD evaluation."""
from __future__ import annotations

import os

import pytest

from repro.oracle import assert_equivalent_pd
from repro.sparql.algebra import is_const, most_bound_first
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql
from repro.sparql.watdiv_queries import QUERIES


class TestStorage:
    def test_one_text_partition_per_predicate(self, sparqlgx, triples_pd):
        dirs = {d for d in os.listdir(sparqlgx.path) if d.startswith("pred=")}
        column = sparqlgx.stats.column
        expected = {f"pred={column(p)}" for p in triples_pd["p"].unique()}
        assert dirs == expected

    def test_files_are_plain_text(self, sparqlgx):
        pred_dir = os.path.join(sparqlgx.path, f"pred={sparqlgx.stats.column('gn:parentCountry')}")
        files = [f for f in os.listdir(pred_dir) if not f.startswith(("_", "."))]
        line = open(os.path.join(pred_dir, files[0])).readline().rstrip("\n")
        s, o = line.split("\t")
        assert s.startswith("wsdbm:City") and o.startswith("wsdbm:Country")

    def test_line_counts_match(self, sparqlgx, triples_pd):
        pred = "gn:parentCountry"
        pred_dir = os.path.join(sparqlgx.path, f"pred={sparqlgx.stats.column(pred)}")
        n_lines = 0
        for f in os.listdir(pred_dir):
            if f.startswith(("_", ".")):
                continue
            with open(os.path.join(pred_dir, f)) as fh:
                n_lines += sum(1 for _ in fh)
        assert n_lines == (triples_pd["p"] == pred).sum()


class TestOrdering:
    """SPARQLGX orders by :func:`most_bound_first` over its statistics'
    triple counts."""

    def test_most_constrained_first_then_connected(self, sparqlgx):
        q = parse(QUERIES["L2"])
        ordered = most_bound_first(q.patterns, sparqlgx.stats.n_triples)
        n_consts = [sum(map(is_const, (tp.s, tp.o))) for tp in ordered]
        assert n_consts[0] == max(n_consts)  # most-constrained pattern leads
        bound = set(ordered[0].variables())
        for tp in ordered[1:]:  # and the chain stays connected
            assert set(tp.variables()) & bound
            bound |= set(tp.variables())

    def test_smaller_predicates_first_among_equals(self, sparqlgx):
        q = parse(
            "SELECT ?a ?b ?c WHERE { ?a wsdbm:friendOf ?b . ?a gn:parentCountry ?c . }"
        )
        ordered = most_bound_first(q.patterns, sparqlgx.stats.n_triples)
        assert ordered[0].predicate == "gn:parentCountry"


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_queries_match_oracle(sparqlgx, triples_pd, name):
    sparql = QUERIES[name]
    assert_equivalent_pd(
        sparqlgx.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
    )


class TestEdgeCases:
    def test_unknown_predicate_empty(self, sparqlgx):
        assert sparqlgx.query("SELECT ?a WHERE { ?a wsdbm:nopeX ?b . }").count() == 0

    def test_distinct(self, sparqlgx, triples_pd):
        sparql = "SELECT DISTINCT ?u WHERE { ?u wsdbm:likes ?p . }"
        assert_equivalent_pd(
            sparqlgx.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_ground_pattern_true_keeps_bindings(self, sparqlgx, triples_pd):
        known = triples_pd[triples_pd["p"] == "gn:parentCountry"].iloc[0]
        sparql = (
            f"SELECT ?a ?b WHERE {{ <{known['s']}> gn:parentCountry <{known['o']}> . "
            "?a wsdbm:gender ?b . }"
        )
        assert_equivalent_pd(
            sparqlgx.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )

    def test_ground_pattern_false_empties_result(self, sparqlgx):
        sparql = (
            "SELECT ?a ?b WHERE { <wsdbm:City0> gn:parentCountry <wsdbm:NopeCountry> . "
            "?a wsdbm:gender ?b . }"
        )
        assert sparqlgx.query(sparql).count() == 0

    def test_repeated_variable(self, sparqlgx, triples_pd):
        sparql = "SELECT ?x WHERE { ?x wsdbm:friendOf ?x . }"
        assert_equivalent_pd(
            sparqlgx.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
        )
