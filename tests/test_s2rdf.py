"""Tests for the S2RDF baseline: ExtVP semantics and query correctness."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.core.executor import Statement, _Params, vp_node_sql
from repro.core.loader import Relation, vp_relation
from repro.oracle import assert_equivalent_pd
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql
from repro.sparql.watdiv_queries import QUERIES


def rows(s2rdf, rel: Relation):
    """The ``(s, o)`` rows of *rel*, read by the SQL a pattern of a query
    runs over it."""
    param = _Params()
    sql, _cols = vp_node_sql(rel, parse("SELECT * WHERE { ?s <p> ?o . }").patterns[0], param)
    return Statement(sql, param.args).run(s2rdf.spark)


def vp_table(s2rdf, predicate: str):
    return rows(s2rdf, vp_relation(s2rdf.vp_view, s2rdf.stats, predicate))


def semi_join_pd(triples_pd: pd.DataFrame, kind: str, p1: str, p2: str) -> pd.DataFrame:
    """Reference ExtVP computation in pandas."""
    a = triples_pd[triples_pd["p"] == p1][["s", "o"]]
    b = triples_pd[triples_pd["p"] == p2]
    if kind == "ss":
        keys = set(b["s"])
        return a[a["s"].isin(keys)]
    if kind == "so":
        keys = set(b["o"])
        return a[a["s"].isin(keys)]
    if kind == "os":
        keys = set(b["s"])
        return a[a["o"].isin(keys)]
    raise ValueError(kind)


class TestExtVPTables:
    @pytest.mark.parametrize(
        "kind,p1,p2",
        [
            ("ss", "wsdbm:likes", "foaf:age"),
            ("ss", "foaf:age", "wsdbm:likes"),
            ("so", "og:title", "wsdbm:likes"),
            ("so", "rev:rating", "rev:hasReview"),
            ("os", "wsdbm:likes", "og:title"),
            ("os", "gr:includes", "rev:hasReview"),
            ("os", "rev:hasReview", "rev:rating"),
        ],
    )
    def test_extvp_matches_pandas_semi_join(self, s2rdf, triples_pd, kind, p1, p2):
        exp = semi_join_pd(triples_pd, kind, p1, p2)
        if (kind, p1, p2) not in s2rdf.extvp_counts:
            # not materialised -> must have been above threshold or empty
            n_vp = len(triples_pd[triples_pd["p"] == p1])
            assert len(exp) == 0 or len(exp) / n_vp >= 1.0
            return
        got = rows(s2rdf, s2rdf.extvp_relation(kind, p1, p2)).toPandas()
        pd.testing.assert_frame_equal(
            got.sort_values(["s", "o"]).reset_index(drop=True),
            exp.sort_values(["s", "o"]).reset_index(drop=True),
        )

    def test_counts_match_tables(self, s2rdf):
        for (kind, p1, p2), n in list(s2rdf.extvp_counts.items())[:10]:
            assert rows(s2rdf, s2rdf.extvp_relation(kind, p1, p2)).count() == n

    def test_reductions_smaller_than_vp(self, s2rdf):
        """Every kept ExtVP table is strictly smaller than its VP."""
        for (kind, p1, _p2), n in s2rdf.extvp_counts.items():
            assert n < s2rdf.stats.n_triples(p1)

    def test_self_pairs_excluded(self, s2rdf):
        assert all(p1 != p2 for (_k, p1, p2) in s2rdf.extvp_counts)


class TestTableChoice:
    def test_best_table_prefers_smaller_reduction(self, s2rdf):
        q = parse(QUERIES["L2"])  # ?v2 likes Product0 . ?v2 nationality ?v1 ...
        tp = next(tp for tp in q.patterns if tp.predicate == "sorg:nationality")
        table = rows(s2rdf, s2rdf._best_table(q, tp))
        vp_n = vp_table(s2rdf, "sorg:nationality").count()
        assert table.count() <= vp_n

    def test_best_table_falls_back_to_vp(self, s2rdf):
        q = parse("SELECT ?a ?b WHERE { ?a gn:parentCountry ?b . ?c wsdbm:userId ?d . }")
        # no shared variable -> VP
        table = rows(s2rdf, s2rdf._best_table(q, q.patterns[0]))
        assert table.count() == vp_table(s2rdf, "gn:parentCountry").count()


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_queries_match_oracle(s2rdf, triples_pd, name):
    sparql = QUERIES[name]
    assert_equivalent_pd(
        s2rdf.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
    )


def test_agrees_with_prost(s2rdf, prost):
    for name in ("C1", "F3", "L1", "S3"):
        assert s2rdf.query(QUERIES[name]).count() == prost.query(QUERIES[name]).count()


def test_distinct_supported(s2rdf, triples_pd):
    sparql = "SELECT DISTINCT ?g WHERE { ?p wsdbm:hasGenre ?g . ?p sorg:caption ?c . }"
    assert_equivalent_pd(
        s2rdf.query(sparql).toPandas(), bgp_to_sql(parse(sparql)), triples=triples_pd
    )


def test_unknown_predicate_empty(s2rdf):
    assert s2rdf.query("SELECT ?a WHERE { ?a wsdbm:nopeX ?b . ?b wsdbm:nopeY ?c . }").count() == 0
