"""Tests for the PRoST loading phase: VP tables + Property Table."""
from __future__ import annotations

import os

import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.executor import compile_node, executed_plan, plan_nodes
from repro.core.jointree import VPNode
from repro.core.loader import bucket_count
from repro.core.prost import Prost
from repro.core.stats import GraphStats, PredicateStats
from repro.rdf.triples import to_spark
from repro.rdf.watdiv import watdiv_pandas
from repro.sparql.algebra import IRI, TriplePattern, Variable


def column(prost: Prost, predicate: str) -> str:
    """The store name (PT column) of *predicate* in the predicate dictionary."""
    return prost.store.stats.column(predicate)


def vp_table(prost: Prost, predicate: str):
    """The ``(s, o)`` rows of *predicate*'s VP table, read by the SQL a
    VP node of a query runs."""
    node = VPNode(TriplePattern(Variable("s"), IRI(predicate), Variable("o")))
    return compile_node(prost.store, node)


class TestVerticalPartitioning:
    def test_vp_table_per_predicate_counts(self, prost, triples_pd):
        for pred, expected in triples_pd.groupby("p").size().items():
            assert vp_table(prost, pred).count() == expected

    def test_vp_table_columns(self, prost):
        assert vp_table(prost, "wsdbm:likes").columns == ["s", "o"]

    def test_vp_table_contents(self, prost, triples_pd):
        got = vp_table(prost, "gn:parentCountry").toPandas()
        exp = triples_pd[triples_pd["p"] == "gn:parentCountry"][["s", "o"]]
        pd.testing.assert_frame_equal(
            got.sort_values(["s", "o"]).reset_index(drop=True),
            exp.sort_values(["s", "o"]).reset_index(drop=True),
        )

    def test_unknown_predicate_empty(self, prost):
        assert vp_table(prost, "nope:never").count() == 0

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
        preds = prost.store.stats.predicates()
        assert pt.columns == ["s"] + [column(prost, p) for p in preds]

    def test_single_valued_column_values(self, prost, triples_pd):
        pt = prost.store.property_table.select("s", column(prost, "gn:parentCountry")).toPandas()
        exp = triples_pd[triples_pd["p"] == "gn:parentCountry"].set_index("s")["o"]
        got = pt.set_index("s")[column(prost, "gn:parentCountry")].dropna()
        assert got.to_dict() == exp.to_dict()

    def test_single_valued_null_where_absent(self, prost, triples_pd):
        pt = prost.store.property_table.select("s", column(prost, "gn:parentCountry")).toPandas()
        subjects_with = set(triples_pd[triples_pd["p"] == "gn:parentCountry"]["s"])
        absent = pt[~pt["s"].isin(subjects_with)]
        assert absent[column(prost, "gn:parentCountry")].isna().all()

    def test_multi_valued_column_is_array(self, prost):
        field = dict(prost.store.property_table.dtypes)[column(prost, "wsdbm:likes")]
        assert field.startswith("array")

    def test_multi_valued_contents_match(self, prost, triples_pd):
        col = column(prost, "wsdbm:likes")
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
        col = column(prost, "wsdbm:likes")
        pt = prost.store.property_table.select("s", col).toPandas()
        with_likes = set(triples_pd[triples_pd["p"] == "wsdbm:likes"]["s"])
        absent = pt[~pt["s"].isin(with_likes)]
        assert all(len(v) == 0 for v in absent[col])

    def test_nulls_are_plentiful(self, prost):
        """The paper's motivation for Parquet: the PT is NULL-heavy."""
        pt = prost.store.property_table
        col = column(prost, "gn:parentCountry")  # only cities carry it
        n_null = pt.filter(F.col(col).isNull()).count()
        assert n_null > pt.count() * 0.5


class TestPersistence:
    def test_writes_vp_and_pt_dirs(self, prost):
        path = prost.store.path
        assert os.path.isdir(os.path.join(path, "vp"))
        assert os.path.isdir(os.path.join(path, "pt"))

    def test_vp_partitioned_by_predicate(self, prost):
        parts = os.listdir(os.path.join(prost.store.path, "vp"))
        assert any(p.startswith("pred=") for p in parts)

    def test_persisted_store_answers_match_memory(self, prost, triples_pd):
        """The read-back tables hold exactly the input graph's rows."""
        store = prost.store
        for pred in ("wsdbm:likes", "rdf:type", "gr:includes"):
            assert vp_table(prost, pred).count() == (triples_pd["p"] == pred).sum()
        assert store.property_table.count() == triples_pd["s"].nunique()

    def test_subject_rows_in_one_file(self, prost, triples_pd):
        """§3.1 subject-hash layout: every subject's PT row lies in
        exactly one Parquet file."""
        store = prost.store
        files = store.property_table.select("s", F.input_file_name().alias("file"))
        per_subject = files.groupBy("s").agg(
            F.count(F.lit(1)).alias("rows"), F.countDistinct("file").alias("files")
        )
        assert per_subject.count() == triples_pd["s"].nunique()
        assert per_subject.filter("rows != 1 OR files != 1").count() == 0

    def test_multi_valued_preserved_after_parquet(self, prost):
        store = prost.store
        assert "wsdbm:likes" in store.multi_valued
        field = dict(store.property_table.dtypes)[column(prost, "wsdbm:likes")]
        assert field.startswith("array")


def graph(tag: str) -> pd.DataFrame:
    """A star of two predicates over subjects named after *tag*."""
    preds = ("wsdbm:likes", "foaf:age")
    rows = [(f"{tag}{i}", p, f"{tag}-{p}-{i}") for i in range(3) for p in preds]
    return pd.DataFrame(rows, columns=["s", "p", "o"])


class TestViews:
    """Each store's SQL reads its own tables, and no other store's."""

    STAR = "SELECT * WHERE { ?s wsdbm:likes ?l . ?s foaf:age ?a . }"

    def answers(self, prost: Prost) -> set[str]:
        out = set()
        for mode in ("mixed", "vp"):
            out |= {r["s"] for r in prost.query(self.STAR, mode).collect()}
        return out

    def test_stores_answer_with_their_own_triples(self, spark, tmp_path):
        one = Prost.load(spark, to_spark(spark, graph("a")), path=str(tmp_path / "a"))
        two = Prost.load(spark, to_spark(spark, graph("b")), path=str(tmp_path / "b"))
        path = str(tmp_path / "store")
        first = Prost.load(spark, to_spark(spark, graph("c")), path=path)
        assert self.answers(first) == {"c0", "c1", "c2"}
        reloaded = Prost.load(spark, to_spark(spark, graph("d")), path=path)
        assert self.answers(one) == {"a0", "a1", "a2"}
        assert self.answers(two) == {"b0", "b1", "b2"}
        assert self.answers(reloaded) == {"d0", "d1", "d2"}
        stores = [p.store for p in (one, two, first, reloaded)]
        names = [n for st in stores for n in (st.vp_name, st.pt_name)]
        assert len(set(names)) == len(names)


#: Spark's default ``spark.sql.adaptive.advisoryPartitionSizeInBytes``
ADVISORY_BYTES = 64 * 2**20


def stats_of(triples_pd: pd.DataFrame) -> GraphStats:
    """The §3.3 statistics of a pandas triple table, without Spark."""
    grouped = triples_pd.groupby("p")["s"].agg(["size", "nunique"])
    return GraphStats({p: PredicateStats(int(n), int(ds)) for p, (n, ds) in grouped.iterrows()})


class TestBucketCount:
    def test_one_bucket_at_benchmark_scale(self):
        stats = stats_of(watdiv_pandas(scale=1.0, seed=1))
        assert bucket_count(stats, ADVISORY_BYTES) == 1

    def test_one_bucket_for_the_empty_graph(self):
        assert bucket_count(GraphStats({}), ADVISORY_BYTES) == 1

    def test_grows_with_volume(self):
        counts = [
            bucket_count(GraphStats({"p": PredicateStats(n, n)}), ADVISORY_BYTES)
            for n in (10**5, 10**6, 10**7, 10**8)
        ]
        assert counts == sorted(counts)
        assert counts[0] == 1 < counts[-1]
        assert bucket_count(GraphStats({"p": PredicateStats(10**8, 1)}), ADVISORY_BYTES // 2) > counts[-1]


def join_sides(df) -> list[tuple[str, bool]]:
    """Run *df*, whose plan has one join; for each input of the join,
    the scan operators it holds (their names carry the table names) and
    whether it is shuffled (holds an ``Exchange``)."""
    rows, plan = executed_plan(df)
    assert rows > 0
    (join,) = [n for n in plan_nodes(plan) if n.nodeName() == "SortMergeJoin"]
    sides = []
    for side in (join.left(), join.right()):
        names = [n.nodeName() for n in plan_nodes(side)]
        sides.append((" ".join(n for n in names if n.startswith("Scan")), "Exchange" in names))
    return sides


class TestSubjectBuckets:
    """§3.1's subject partitioning as the planner sees it: VP and PT are
    bucketed on the subject, so a join on the subject of two stored
    nodes reads both without a shuffle."""

    VP_STAR = "SELECT * WHERE { ?x wsdbm:likes ?a . ?x wsdbm:friendOf ?b . }"
    PT_VP = "SELECT * WHERE { ?x wsdbm:likes ?a . ?x wsdbm:friendOf ?b . ?y wsdbm:follows ?x . }"

    def test_vp_subject_join_does_not_shuffle(self, prost):
        sides = join_sides(prost.query(self.VP_STAR, "vp"))
        assert [shuffled for _scans, shuffled in sides] == [False, False]
        assert all(prost.store.vp_name in scans for scans, _ in sides)

    def test_pt_side_of_a_subject_join_does_not_shuffle(self, prost):
        """The PT star on ``?x`` joins ``?y follows ?x``: only the VP
        side, joined on its object, is shuffled."""
        sides = join_sides(prost.query(self.PT_VP, "mixed"))
        shuffled = {("pt" if prost.store.pt_name in scans else "vp"): s for scans, s in sides}
        assert shuffled == {"pt": False, "vp": True}

    def test_s2rdf_still_shuffles(self, s2rdf):
        """S2RDF's VP and ExtVP are not bucketed (DESIGN.md §3): both
        sides of the same subject join are shuffled."""
        sides = join_sides(s2rdf.query(self.VP_STAR))
        assert [shuffled for _scans, shuffled in sides] == [True, True]

    @pytest.mark.parametrize("table", ["vp", "pt"])
    def test_one_bucket_file_per_partition(self, prost, table):
        """Repartitioned by the bucket hash before the write: one file
        per predicate (VP) and one for the PT at test scale."""
        root = os.path.join(prost.store.path, table)
        dirs = [os.path.join(root, d) for d in os.listdir(root) if d.startswith("pred=")] or [root]
        for d in dirs:
            assert len([f for f in os.listdir(d) if f.endswith(".parquet")]) == 1


class TestStatsWiring:
    def test_predicates_sorted_and_complete(self, prost, triples_pd):
        assert prost.store.stats.predicates() == sorted(triples_pd["p"].unique())

    def test_multi_valued_wired_from_stats(self, prost):
        assert "wsdbm:friendOf" in prost.store.multi_valued
        assert "wsdbm:userId" not in prost.store.multi_valued

    def test_has_predicate(self, prost):
        assert "wsdbm:likes" in prost.store.stats
        assert "nope:never" not in prost.store.stats
