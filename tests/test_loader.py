"""Tests for the PRoST loading phase: VP tables + Property Table."""
from __future__ import annotations

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.loader import ProstStore
from repro.core.prost import Prost
from repro.rdf.triples import safe_name, to_spark


class TestVerticalPartitioning:
    def test_vp_table_per_predicate_counts(self, prost, triples_pd):
        for pred, expected in triples_pd.groupby("p").size().items():
            assert prost.store.vp_table(pred).count() == expected

    def test_vp_table_columns(self, prost):
        assert prost.store.vp_table("wsdbm:likes").columns == ["s", "o"]

    def test_vp_table_contents(self, prost, triples_pd):
        got = prost.store.vp_table("gn:parentCountry").toPandas()
        exp = triples_pd[triples_pd["p"] == "gn:parentCountry"][["s", "o"]]
        pd.testing.assert_frame_equal(
            got.sort_values(["s", "o"]).reset_index(drop=True),
            exp.sort_values(["s", "o"]).reset_index(drop=True),
        )

    def test_unknown_predicate_empty(self, prost):
        assert prost.store.vp_table("nope:never").count() == 0

    def test_roundtrip_triples_back(self, prost, triples_pd):
        got = prost.store.triples_back().toPandas()
        exp = triples_pd[["s", "p", "o"]]
        pd.testing.assert_frame_equal(
            got.sort_values(["s", "p", "o"]).reset_index(drop=True),
            exp.sort_values(["s", "p", "o"]).reset_index(drop=True),
        )


class TestPropertyTable:
    def test_one_row_per_subject(self, prost, triples_pd):
        assert prost.store.property_table.count() == triples_pd["s"].nunique()

    def test_one_column_per_predicate_plus_subject(self, prost):
        pt = prost.store.property_table
        assert set(pt.columns) == {"s"} | {safe_name(p) for p in prost.store.predicates}

    def test_single_valued_column_values(self, prost, triples_pd):
        pt = prost.store.property_table.select("s", safe_name("gn:parentCountry")).toPandas()
        exp = triples_pd[triples_pd["p"] == "gn:parentCountry"].set_index("s")["o"]
        got = pt.set_index("s")[safe_name("gn:parentCountry")].dropna()
        assert got.to_dict() == exp.to_dict()

    def test_single_valued_null_where_absent(self, prost, triples_pd):
        pt = prost.store.property_table.select("s", safe_name("gn:parentCountry")).toPandas()
        subjects_with = set(triples_pd[triples_pd["p"] == "gn:parentCountry"]["s"])
        absent = pt[~pt["s"].isin(subjects_with)]
        assert absent[safe_name("gn:parentCountry")].isna().all()

    def test_multi_valued_column_is_array(self, prost):
        field = dict(prost.store.property_table.dtypes)[safe_name("wsdbm:likes")]
        assert field.startswith("array")

    def test_multi_valued_contents_match(self, prost, triples_pd):
        col = safe_name("wsdbm:likes")
        pt = prost.store.property_table.select("s", col).toPandas()
        exp = (
            triples_pd[triples_pd["p"] == "wsdbm:likes"]
            .groupby("s")["o"]
            .apply(lambda x: sorted(x))
            .to_dict()
        )
        got = {
            r["s"]: sorted(r[col])
            for _, r in pt.iterrows()
            if r[col] is not None and len(r[col]) > 0
        }
        assert got == exp

    def test_multi_valued_empty_for_absent_subject(self, prost, triples_pd):
        col = safe_name("wsdbm:likes")
        pt = prost.store.property_table.select("s", col).toPandas()
        with_likes = set(triples_pd[triples_pd["p"] == "wsdbm:likes"]["s"])
        absent = pt[~pt["s"].isin(with_likes)]
        assert all(len(v) == 0 for v in absent[col])

    def test_nulls_are_plentiful(self, prost):
        """The paper's motivation for Parquet: the PT is NULL-heavy."""
        pt = prost.store.property_table
        col = safe_name("gn:parentCountry")  # only cities carry it
        n_null = pt.filter(F.col(col).isNull()).count()
        assert n_null > pt.count() * 0.5


class TestPersistence:
    @pytest.fixture(scope="class")
    def persisted(self, spark, triples, tmp_path_factory):
        path = str(tmp_path_factory.mktemp("prost_store"))
        store = ProstStore.load(spark, triples, path=path)
        return store, path

    def test_writes_vp_and_pt_dirs(self, persisted):
        import os

        _store, path = persisted
        assert os.path.isdir(os.path.join(path, "vp"))
        assert os.path.isdir(os.path.join(path, "pt"))

    def test_vp_partitioned_by_predicate(self, persisted):
        import os

        _store, path = persisted
        parts = os.listdir(os.path.join(path, "vp"))
        assert any(p.startswith("pred=") for p in parts)

    def test_persisted_store_answers_match_memory(self, persisted, prost, triples_pd):
        store, _path = persisted
        for pred in ("wsdbm:likes", "rdf:type", "gr:includes"):
            assert store.vp_table(pred).count() == prost.store.vp_table(pred).count()
        assert store.property_table.count() == prost.store.property_table.count()

    def test_subject_rows_in_one_file(self, persisted, triples_pd):
        """§3.1 subject-hash layout: every subject's PT row lies in
        exactly one Parquet file."""
        store, _path = persisted
        files = store.property_table.select("s", F.input_file_name().alias("file"))
        per_subject = files.groupBy("s").agg(
            F.count(F.lit(1)).alias("rows"), F.countDistinct("file").alias("files")
        )
        assert per_subject.count() == triples_pd["s"].nunique()
        assert per_subject.filter("rows != 1 OR files != 1").count() == 0

    def test_multi_valued_preserved_after_parquet(self, persisted):
        store, _path = persisted
        assert store.is_multi_valued("wsdbm:likes")
        field = dict(store.property_table.dtypes)[safe_name("wsdbm:likes")]
        assert field.startswith("array")


def graph(tag: str) -> pd.DataFrame:
    """A star of two predicates over subjects named after *tag*."""
    preds = ("wsdbm:likes", "foaf:age")
    rows = [(f"{tag}{i}", p, f"{tag}-{p}-{i}") for i in range(3) for p in preds]
    return pd.DataFrame(rows, columns=["s", "p", "o"])


class TestViews:
    """Each store's SQL reads its own temp views, and no other store's."""

    STAR = "SELECT * WHERE { ?s wsdbm:likes ?l . ?s foaf:age ?a . }"

    def answers(self, prost: Prost) -> set[str]:
        out = set()
        for mode in ("mixed", "vp"):
            out |= {r["s"] for r in prost.query(self.STAR, mode).collect()}
        return out

    def test_stores_answer_with_their_own_triples(self, spark, tmp_path):
        one = Prost.load(spark, to_spark(spark, graph("a")))
        two = Prost.load(spark, to_spark(spark, graph("b")))
        path = str(tmp_path / "store")
        first = Prost.load(spark, to_spark(spark, graph("c")), path=path)
        assert self.answers(first) == {"c0", "c1", "c2"}
        reloaded = Prost.load(spark, to_spark(spark, graph("d")), path=path)
        assert self.answers(one) == {"a0", "a1", "a2"}
        assert self.answers(two) == {"b0", "b1", "b2"}
        assert self.answers(reloaded) == {"d0", "d1", "d2"}
        stores = [p.store for p in (one, two, first, reloaded)]
        views = [v for st in stores for v in (st.vp_view, st.pt_view)]
        assert len(set(views)) == len(views)


class TestStatsWiring:
    def test_predicates_sorted_and_complete(self, prost, triples_pd):
        assert prost.store.predicates == sorted(triples_pd["p"].unique())

    def test_multi_valued_wired_from_stats(self, prost):
        assert prost.store.is_multi_valued("wsdbm:friendOf")
        assert not prost.store.is_multi_valued("wsdbm:userId")

    def test_has_predicate(self, prost):
        assert prost.store.has_predicate("wsdbm:likes")
        assert not prost.store.has_predicate("nope:never")
