"""Tests for the Rya baseline: sorted indexes, range scans, NLJ engine."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.baselines.rya import _SEP, INDEX_ORDERS, RyaStore, choose_index
from repro.oracle import assert_equivalent_pd
from repro.rdf.triples import to_spark, unescaper
from repro.sparql.algebra import most_bound_first
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql
from repro.sparql.watdiv_queries import QUERIES
from tests.test_empty_graph import LITERALS

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


def load(spark, graph: pd.DataFrame, path) -> RyaStore:
    return RyaStore.load(spark, to_spark(spark, graph), path=str(path))


def extents(store: RyaStore) -> dict[str, int]:
    """Every predicate of the store's graph with its extent."""
    return {key[0]: store.extent(key[0]) for key in store.indexes["pos"].keys}


@pytest.fixture(scope="module")
def tiny_path(tmp_path_factory):
    return tmp_path_factory.mktemp("tiny")


@pytest.fixture(scope="module")
def tiny(spark, tiny_path):
    return load(spark, TINY, tiny_path)


class TestIndexes:
    def test_three_indexes(self, tiny):
        assert set(tiny.indexes) == {"spo", "pos", "osp"}

    @pytest.mark.parametrize("name", sorted(INDEX_ORDERS))
    def test_keys_sorted(self, tiny, name):
        keys = tiny.indexes[name].keys
        assert keys == sorted(keys)

    @pytest.mark.parametrize("name", sorted(INDEX_ORDERS))
    def test_indexes_hold_all_triples(self, tiny, name):
        assert len(tiny.indexes[name].keys) == len(TINY)

    def test_scan_full(self, tiny):
        assert len(tiny.indexes["spo"].scan(())) == len(TINY)

    def test_scan_prefix_one(self, tiny):
        rng = tiny.indexes["spo"].scan(("u1",))
        assert len(rng) == 3

    def test_scan_prefix_two(self, tiny):
        rng = tiny.indexes["spo"].scan(("u1", "likes"))
        assert len(rng) == 2

    def test_scan_prefix_full_triple(self, tiny):
        assert len(tiny.indexes["spo"].scan(("u1", "likes", "p2"))) == 1

    def test_scan_no_match(self, tiny):
        assert len(tiny.indexes["spo"].scan(("zz",))) == 0

    def test_scan_no_false_prefix_match(self, tiny):
        # "u" must not match "u1": composite keys use a separator
        assert len(tiny.indexes["spo"].scan(("u",))) == 0

    def test_full_triple_scan_is_exact(self, spark, tmp_path):
        """Regression: a fully-bound probe must not prefix-match a
        longer value ("Topic1" vs "Topic10")."""
        df = pd.DataFrame(
            [("a", "tag", "Topic1"), ("a", "tag", "Topic10"), ("b", "tag", "Topic10")],
            columns=["s", "p", "o"],
        )
        store = load(spark, df, tmp_path)
        assert len(store.indexes["spo"].scan(("a", "tag", "Topic1"))) == 1
        assert len(store.indexes["spo"].scan(("b", "tag", "Topic1"))) == 0
        out = store.query(
            "SELECT ?x WHERE { ?x <tag> <Topic10> . ?x <tag> <Topic1> . }"
        )
        assert sorted(out["x"]) == ["a"]

    def test_pos_scan_by_predicate(self, tiny):
        assert len(tiny.indexes["pos"].scan(("likes",))) == 3

    def test_osp_scan_by_object(self, tiny):
        assert len(tiny.indexes["osp"].scan(("p1",))) == 2

    def test_key_files_hold_the_keys(self, spark, tmp_path):
        """Each key file holds one line per key, also for values with a
        line break or the key separator; unescaped, its lines are the
        in-memory keys in index order."""
        store = load(spark, LITERALS, tmp_path)
        unescape = unescaper()
        for name, index in store.indexes.items():
            (part,) = (tmp_path / name).glob("part-*")
            lines = part.read_bytes().decode("utf-8").split("\n")
            assert lines.pop() == ""
            keys = [tuple(map(unescape, line.split(_SEP))) for line in lines]
            assert keys == index.keys, name

    def test_row_roundtrip(self, tiny):
        idx = tiny.indexes["pos"]
        rows = {tuple(idx.row(i).values()) for i in idx.scan(("age",))}
        assert rows == {("u1", "age", "26"), ("u2", "age", "30")}


class TestChooseIndex:
    @pytest.mark.parametrize(
        "bound,expected",
        [
            ({"s"}, "spo"),
            ({"s", "p"}, "spo"),
            ({"s", "p", "o"}, "spo"),
            ({"p"}, "pos"),
            ({"p", "o"}, "pos"),
            ({"o"}, "osp"),
            (set(), "spo"),
        ],
    )
    def test_choice(self, bound, expected):
        assert choose_index(bound) == expected


class TestTinyQueries:
    def test_star(self, tiny):
        out = tiny.query("SELECT ?u ?a ?l WHERE { ?u <age> ?a . ?u <likes> ?l . }")
        assert sorted(map(tuple, out.values)) == [
            ("u1", "26", "p1"),
            ("u1", "26", "p2"),
            ("u2", "30", "p1"),
        ]

    def test_chain(self, tiny):
        out = tiny.query("SELECT ?u ?t WHERE { ?u <likes> ?p . ?p <title> ?t . }")
        assert sorted(map(tuple, out.values)) == [("u1", "t1"), ("u2", "t1")]

    def test_constant_anchor(self, tiny):
        out = tiny.query("SELECT ?o WHERE { <u1> <likes> ?o . }")
        assert sorted(out["o"]) == ["p1", "p2"]

    def test_distinct(self, tiny):
        out = tiny.query("SELECT DISTINCT ?u WHERE { ?u <likes> ?p . }")
        assert sorted(out["u"]) == ["u1", "u2"]

    def test_empty(self, tiny):
        out = tiny.query("SELECT ?u WHERE { ?u <nope> ?p . }")
        assert len(out) == 0 and list(out.columns) == ["u"]

    def test_repeated_variable_pattern(self, tiny):
        out = tiny.query("SELECT ?x WHERE { ?x <likes> ?x . }")
        assert len(out) == 0

    def test_join_order_most_bound_first(self, tiny):
        q = parse("SELECT ?u ?t WHERE { ?u <likes> ?p . ?p <title> <t1> . }")
        ordered = most_bound_first(q.patterns, tiny.extent)
        assert ordered[0].predicate == "title"


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_queries_match_oracle(rya, triples_pd, name):
    sparql = QUERIES[name]
    assert_equivalent_pd(
        rya.query(sparql), bgp_to_sql(parse(sparql)), triples=triples_pd
    )


def test_f4_oracle_at_scale_one(spark, tmp_path):
    """Regression at a scale where entity ids collide as string
    prefixes (Topic1/Topic10) — the exact-probe bug's habitat."""
    from repro.rdf.watdiv import watdiv_pandas

    graph = watdiv_pandas(scale=1.0, seed=42)
    store = load(spark, graph, tmp_path)
    sparql = QUERIES["F4"]
    assert_equivalent_pd(
        store.query(sparql), bgp_to_sql(parse(sparql)), triples=graph
    )


class TestPersistence:
    @staticmethod
    def _key_lines(directory):
        lines = []
        for f in sorted(directory.iterdir()):
            if not f.name.startswith(("_", ".")):
                lines += f.read_text().splitlines()
        return lines

    def _assert_key_files_hold_keys(self, store, path):
        for name in INDEX_ORDERS:
            lines = self._key_lines(path / name)
            assert sorted(lines) == sorted("\x1f".join(k) for k in store.indexes[name].keys)

    def test_indexes_written_as_sorted_key_files(self, tiny, tiny_path):
        """The bulk ingest writes each index as one sorted key file
        holding one line per triple."""
        assert sorted(f.name for f in tiny_path.iterdir()) == ["osp", "pos", "spo"]
        for name in INDEX_ORDERS:
            lines = self._key_lines(tiny_path / name)
            assert len(lines) == len(TINY)
            assert lines == sorted(lines)
            assert all(len(line.split("\x1f")) == 3 for line in lines)

    def test_key_files_equal_in_memory_keys(self, tiny, tiny_path):
        """The key files hold the same keys the query indexes do."""
        assert extents(tiny) == {"likes": 3, "age": 2, "title": 1}
        self._assert_key_files_hold_keys(tiny, tiny_path)

    def test_duplicate_triple_stored_once(self, spark, tmp_path):
        """A graph is a set: a triple given twice is one key in every
        key file and every in-memory index, and counted once."""
        dup = pd.DataFrame(
            [("u1", "likes", "p1"), ("u1", "likes", "p1"), ("u2", "likes", "p1")],
            columns=["s", "p", "o"],
        )
        store = load(spark, dup, tmp_path)
        for name in INDEX_ORDERS:
            assert len(self._key_lines(tmp_path / name)) == 2
        self._assert_key_files_hold_keys(store, tmp_path)
        assert extents(store) == {"likes": 2}

    def test_pred_counts(self, tiny):
        """A predicate's extent is its POS-index range: 0 for one the
        graph lacks, including a prefix of a present one."""
        assert extents(tiny) == {"likes": 3, "age": 2, "title": 1}
        assert tiny.extent("nope") == tiny.extent("like") == 0


class TestNetworkModel:
    def test_probe_counter(self, tiny):
        tiny.query("SELECT ?u ?t WHERE { ?u <likes> ?p . ?p <title> ?t . }")
        # title scans first (smaller extent): 1 seed probe, then one
        # probe for its single binding against the likes pattern
        assert tiny.last_probes == 2

    def test_harness_charges_one_rpc_per_full_batch(self, rya, monkeypatch):
        from repro.bench import harness

        slept = []
        monkeypatch.setattr(harness.time, "sleep", slept.append)
        sparql = QUERIES["C1"]
        out = harness.rya_query(rya, sparql)
        assert slept == [
            rya.last_probes // harness.RYA_RANGES_PER_RPC * harness.RYA_RPC_LATENCY_S
        ]
        assert slept[0] > 0
        assert len(out) == len(rya.query(sparql))

    def test_probe_counts_harness(self, rya, triples_pd):
        from repro.bench.harness import rya_probe_counts

        table = rya_probe_counts(rya)
        assert len(table) == 20
        assert (table["probes"] > 0).all()
