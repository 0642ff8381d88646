"""Unit tests for the benchmark harness (no Spark needed)."""
from __future__ import annotations

import inspect
import os
import time

import pandas as pd

from repro.bench.harness import (
    SYSTEMS,
    LoadedSystem,
    dir_size,
    format_table,
    group_averages,
    loading_table,
    query_times,
    timed,
)
from repro.sparql.watdiv_queries import QUERIES


class TestTimed:
    def test_returns_elapsed_and_result(self):
        secs, out = timed(lambda: 41 + 1)
        assert out == 42 and secs >= 0

    def test_measures_sleep(self):
        secs, _ = timed(lambda: time.sleep(0.05))
        assert secs >= 0.04

    def test_time_query_median(self):
        calls = []

        def run(q):
            calls.append(q)
            return 0

        table = query_times({"X": run}, rounds=3)
        assert len(calls) == (3 + 1) * len(QUERIES)  # one untimed warm-up run each
        assert all(calls.count(q) == 3 + 1 for q in QUERIES.values())
        assert (table["X"] >= 0).all()


class TestSystems:
    def test_every_store_loads_with_one_signature(self):
        """``load_all_systems`` calls ``cls.load(spark, triples, path=path)``
        for every system, so every store class must take exactly that."""
        expected = [
            ("spark", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("triples", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("path", inspect.Parameter.KEYWORD_ONLY),
        ]
        for name, system in SYSTEMS.items():
            params = inspect.signature(system.cls.load).parameters.values()
            assert [(p.name, p.kind) for p in params] == expected, name


class TestDirSize:
    def test_counts_bytes(self, tmp_path):
        (tmp_path / "a.bin").write_bytes(b"x" * 100)
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "b.bin").write_bytes(b"y" * 50)
        assert dir_size(str(tmp_path)) == 150

    def test_empty_dir(self, tmp_path):
        assert dir_size(str(tmp_path)) == 0

    def test_missing_dir(self):
        assert dir_size(os.path.join("/tmp", "definitely-not-here-xyz")) == 0


def _stub(delay):
    def run(q):
        time.sleep(delay)
        return 1

    return run


class TestQueryTables:
    def stub_systems(self):
        return {"Fast": _stub(0.0), "Slow": _stub(0.002)}

    def test_query_times_shape(self):
        df = query_times(self.stub_systems(), rounds=1)
        assert list(df.columns) == ["query", "Fast", "Slow"]
        assert sorted(df["query"]) == sorted(QUERIES)

    def test_group_averages_shape_and_order(self):
        per_query = query_times(self.stub_systems(), rounds=1)
        table = group_averages(per_query)
        assert list(table["group"]) == ["Complex", "Snowflake", "Linear", "Star"]
        assert set(table.columns) == {"group", "Fast", "Slow"}

    def test_group_averages_math(self):
        per_query = pd.DataFrame(
            {
                "query": list(QUERIES),
                "X": [1.0] * len(QUERIES),
            }
        )
        table = group_averages(per_query)
        assert (table["X"] == 1000.0).all()  # 1 s -> 1000 ms

    def test_slow_system_measures_slower(self):
        per_query = query_times(self.stub_systems(), rounds=1)
        assert per_query["Slow"].mean() > per_query["Fast"].mean()


class TestLoadingTable:
    def test_columns_and_rounding(self):
        systems = {
            "A": LoadedSystem(None, 1.26, 1_234_567, len),
            "B": LoadedSystem(None, 0.04, 10_000, len),
        }
        table = loading_table(systems)
        assert list(table.columns) == ["System", "Size (MB)", "Time (s)"]
        assert table.values.tolist() == [["A", 1.23, 1.3], ["B", 0.01, 0.0]]


class TestFormatting:
    def test_format_table_contains_title_and_data(self):
        df = pd.DataFrame({"System": ["PRoST"], "Time": [1.0]})
        out = format_table(df, "Table 1")
        assert "== Table 1 ==" in out and "PRoST" in out

    def test_format_table_no_index_column(self):
        df = pd.DataFrame({"A": [1]})
        assert "\n0 " not in format_table(df, "t")
