"""Tests for the loading-phase statistics (paper §3.3)."""
from __future__ import annotations

import re

from hypothesis import given
from hypothesis import strategies as st

from repro.core.stats import GraphStats, PredicateStats

#: predicate spellings: punctuation and case variants of one stem, full
#: IRIs, non-ASCII text and names longer than a path component
SPELLINGS = st.one_of(
    st.builds(
        lambda stem, sep, case: case(f"ex:{stem}{sep}{stem}"),
        st.sampled_from(["x", "name", "s"]),
        st.sampled_from(["", "-", ".", "_", "__", "#", "/", " ", "`"]),
        st.sampled_from([str.lower, str.upper, str.title]),
    ),
    st.builds(lambda local: f"http://example.org/ns#{local}", st.text(max_size=8)),
    st.text(min_size=1),
    st.text(alphabet="aé中-", min_size=200, max_size=400),
)


class TestAgainstPandas:
    def test_counts_match_pandas(self, graph_stats, triples_pd):
        expected = triples_pd.groupby("p").size().to_dict()
        got = {p: st.n_triples for p, st in graph_stats.by_predicate.items()}
        assert got == expected

    def test_distinct_subjects_match_pandas(self, graph_stats, triples_pd):
        expected = triples_pd.groupby("p")["s"].nunique().to_dict()
        got = {p: st.n_distinct_subjects for p, st in graph_stats.by_predicate.items()}
        assert got == expected

    def test_predicates_sorted(self, graph_stats):
        preds = graph_stats.predicates()
        assert preds == sorted(preds)

    def test_contains_and_getitem(self, graph_stats):
        assert "wsdbm:likes" in graph_stats
        assert graph_stats["wsdbm:likes"].n_triples > 0

    def test_missing_predicate_zero(self, graph_stats):
        assert "nope:never" not in graph_stats
        assert graph_stats.n_triples("nope:never") == 0
        assert graph_stats.n_distinct_subjects("nope:never") == 0

    def test_multi_valued_detection(self, graph_stats, triples_pd):
        sizes = triples_pd.groupby(["p", "s"]).size()
        expected = set(sizes[sizes > 1].index.get_level_values("p"))
        assert graph_stats.multi_valued() == expected

    def test_known_multi_valued(self, graph_stats):
        mv = graph_stats.multi_valued()
        assert {"wsdbm:likes", "wsdbm:friendOf", "wsdbm:hasGenre"} <= mv

    def test_known_single_valued(self, graph_stats):
        mv = graph_stats.multi_valued()
        assert "gn:parentCountry" not in mv
        assert "wsdbm:userId" not in mv


@given(st.sets(SPELLINGS, max_size=40))
def test_dictionary_names_are_injective_and_invertible(predicates):
    stats = GraphStats({p: PredicateStats(1, 1) for p in predicates})
    names = [stats.column(p) for p in predicates]
    assert len(set(names)) == len(predicates)
    assert all(re.fullmatch(r"p\d+", n) for n in names)
    assert all(stats.predicate_of[stats.column(p)] == p for p in predicates)
    assert len(stats.predicate_of) == len(predicates)
