"""Tests for the WatDiv-lite generator (pure pandas — no Spark)."""
from __future__ import annotations

import pytest

from repro.rdf.watdiv import (
    ENTITY_BASE,
    PREDICATES,
    entity_counts,
    watdiv_pandas,
)

SCALE = 0.5


@pytest.fixture(scope="module")
def graph():
    return watdiv_pandas(scale=SCALE, seed=42)


class TestEntityCounts:
    def test_scale_one_matches_base(self):
        counts = entity_counts(1.0)
        for kind, (base, _floor) in ENTITY_BASE.items():
            assert counts[kind] == max(base, ENTITY_BASE[kind][1])

    def test_floors_respected_at_tiny_scale(self):
        counts = entity_counts(0.001)
        for kind, (_base, floor) in ENTITY_BASE.items():
            assert counts[kind] >= floor

    def test_counts_grow_with_scale(self):
        small, large = entity_counts(0.5), entity_counts(2.0)
        assert all(large[k] >= small[k] for k in small)


class TestGraphShape:
    def test_columns(self, graph):
        assert list(graph.columns) == ["s", "p", "o"]

    def test_no_nulls(self, graph):
        assert not graph.isna().any().any()

    def test_no_duplicate_triples(self, graph):
        assert not graph.duplicated(["s", "p", "o"]).any()

    def test_deterministic_in_seed(self):
        a = watdiv_pandas(scale=0.1, seed=7)
        b = watdiv_pandas(scale=0.1, seed=7)
        assert a.equals(b)

    def test_different_seeds_differ(self):
        a = watdiv_pandas(scale=0.1, seed=7)
        b = watdiv_pandas(scale=0.1, seed=8)
        assert not a.equals(b)

    def test_triple_count_scales(self):
        small = len(watdiv_pandas(scale=0.2, seed=42))
        large = len(watdiv_pandas(scale=1.0, seed=42))
        assert large > 3 * small

    def test_all_spec_predicates_present(self, graph):
        present = set(graph["p"])
        missing = set(PREDICATES) - present
        assert not missing, f"generator never emitted {missing}"

    def test_rdf_type_present(self, graph):
        assert "rdf:type" in set(graph["p"])


@pytest.mark.parametrize("pred", sorted(PREDICATES))
def test_subject_domain(graph, pred):
    """Every spec predicate's subjects belong to its declared domain
    (shared predicates may add other domains, checked separately)."""
    spec = PREDICATES[pred]
    subs = graph.loc[graph["p"] == pred, "s"]
    prefix = f"wsdbm:{spec.domain}"
    # shared-domain predicates: foaf:homepage (User+Product),
    # sorg:language (Product+Website), og:tag (Product+Genre)
    extra = {
        "foaf:homepage": ("wsdbm:Product",),
        "sorg:language": ("wsdbm:Website",),
        "og:tag": ("wsdbm:Genre",),
    }.get(pred, ())
    ok = subs.str.startswith(prefix)
    for e in extra:
        ok |= subs.str.startswith(e)
    assert ok.all()


@pytest.mark.parametrize(
    "pred",
    sorted(p for p, s in PREDICATES.items() if s.range_kind != "literal"),
)
def test_object_range(graph, pred):
    spec = PREDICATES[pred]
    objs = graph.loc[graph["p"] == pred, "o"]
    assert objs.str.startswith(f"wsdbm:{spec.range_kind}").all()


@pytest.mark.parametrize(
    "pred", sorted(p for p, s in PREDICATES.items() if s.multi)
)
def test_multi_valued_predicates_really_multi(graph, pred):
    per_subject = graph[graph["p"] == pred].groupby("s").size()
    assert (per_subject > 1).any(), f"{pred} never multi-valued"


@pytest.mark.parametrize(
    "pred", sorted(p for p, s in PREDICATES.items() if not s.multi)
)
def test_single_valued_predicates_are_single(graph, pred):
    """Single-valued within one domain; shared-domain predicates are
    single-valued per subject overall too (one draw per subject)."""
    if pred in ("foaf:homepage", "sorg:language"):
        pytest.skip("shared-domain single predicates checked per-domain below")
    per_subject = graph[graph["p"] == pred].groupby("s").size()
    assert (per_subject == 1).all()


def test_shared_single_predicates_single_per_subject(graph):
    for pred in ("foaf:homepage", "sorg:language"):
        per_subject = graph[graph["p"] == pred].groupby("s").size()
        assert (per_subject == 1).all()


class TestCoverageAndSkew:
    def test_prefix_coverage(self, graph):
        """Low-id entities carry the predicate; coverage ≈ spec value."""
        n_users = entity_counts(SCALE)["User"]
        subs = graph.loc[graph["p"] == "foaf:age", "s"]
        ids = subs.str.removeprefix("wsdbm:User").astype(int)
        cov = PREDICATES["foaf:age"].coverage
        assert ids.max() < int(round(n_users * cov))
        assert len(ids) == pytest.approx(n_users * cov, rel=0.05)

    def test_star_subjects_fully_attributed(self, graph):
        """User0 carries every user predicate — the prefix-coverage
        guarantee that star queries are non-empty."""
        user_preds = {
            p for p, s in PREDICATES.items() if s.domain == "User" and s.coverage >= 0.4
        }
        have = set(graph.loc[graph["s"] == "wsdbm:User0", "p"])
        assert user_preds <= have

    def test_zipf_skew_on_links(self, graph):
        likes = graph.loc[graph["p"] == "wsdbm:likes", "o"].value_counts()
        assert likes.index[0] in ("wsdbm:Product0", "wsdbm:Product1", "wsdbm:Product2")

    def test_query_constants_exist(self, graph):
        """Every constant the bundled queries mention occurs in the graph."""
        for const in (
            "wsdbm:Topic1",
            "wsdbm:City0",
            "wsdbm:Country1",
            "wsdbm:Country5",
            "wsdbm:Language0",
            "wsdbm:ProductCategory2",
            "wsdbm:Role2",
            "wsdbm:Genre0",
            "wsdbm:Genre2",
            "wsdbm:Retailer1",
            "wsdbm:Retailer2",
            "wsdbm:Website0",
            "wsdbm:Product0",
            "wsdbm:User3",
        ):
            assert ((graph["o"] == const) | (graph["s"] == const)).any(), const

    def test_age_domain_small(self, graph):
        ages = set(graph.loc[graph["p"] == "foaf:age", "o"])
        assert ages <= {str(18 + 8 * k) for k in range(10)}
        assert "26" in ages

    def test_gender_values(self, graph):
        assert set(graph.loc[graph["p"] == "wsdbm:gender", "o"]) <= {"male", "female"}


class TestDerivedLinks:
    def test_every_offer_offered_by_one_retailer(self, graph):
        offers = graph.loc[graph["p"] == "gr:offers", "o"]
        n_offers = entity_counts(SCALE)["Offer"]
        assert len(offers) == n_offers and offers.is_unique

    def test_every_review_attached_to_one_product(self, graph):
        objs = graph.loc[graph["p"] == "rev:hasReview", "o"]
        assert len(objs) == entity_counts(SCALE)["Review"] and objs.is_unique

    def test_every_purchase_made_by_one_user(self, graph):
        objs = graph.loc[graph["p"] == "wsdbm:makesPurchase", "o"]
        assert len(objs) == entity_counts(SCALE)["Purchase"] and objs.is_unique

    def test_city_parent_country_total(self, graph):
        sub = graph[graph["p"] == "gn:parentCountry"]
        assert len(sub) == entity_counts(SCALE)["City"]

    def test_genres_have_tags(self, graph):
        tags = graph[(graph["p"] == "og:tag") & graph["s"].str.startswith("wsdbm:Genre")]
        assert len(tags) > 0
