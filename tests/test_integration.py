"""Integration: the full Table-1/Table-2 pipeline at tiny scale.

Loads all four systems from the same graph into a temp dir, checks the
measurements are sane and that every system returns identical result
counts — i.e. the benchmark harness measures the same computation on
every engine.
"""
from __future__ import annotations

import pytest

from repro.bench.harness import (
    SYSTEMS,
    group_averages,
    load_all_systems,
    loading_table,
    query_times,
    vp_vs_mixed,
)
from repro.rdf.triples import to_spark
from repro.rdf.watdiv import watdiv_pandas
from repro.sparql.watdiv_queries import QUERIES

SCALE = 0.05


@pytest.fixture(scope="module")
def systems(spark, tmp_path_factory):
    triples = to_spark(spark, watdiv_pandas(scale=SCALE, seed=7))
    base = str(tmp_path_factory.mktemp("stores"))
    return load_all_systems(spark, triples, base)


class TestLoadAllSystems:
    def test_all_four_systems(self, systems):
        assert set(systems) == set(SYSTEMS)

    def test_sizes_positive(self, systems):
        for name, ls in systems.items():
            assert ls.size_bytes > 0, name

    def test_load_times_positive(self, systems):
        for ls in systems.values():
            assert ls.load_seconds > 0

    def test_loading_table_rows(self, systems):
        assert list(loading_table(systems)["System"]) == list(SYSTEMS)

    def test_s2rdf_store_is_largest(self, systems):
        """Table 1 shape: the ExtVP precomputations dominate."""
        assert systems["S2RDF"].size_bytes == max(ls.size_bytes for ls in systems.values())

    def test_rya_triplicates_data(self, systems):
        """Three sorted indexes ≈ 3x one sorted copy of the graph."""
        assert systems["Rya"].size_bytes > 1.5 * systems["SPARQLGX"].size_bytes / 3

    @pytest.mark.parametrize("name", ["C1", "F5", "L2", "S2", "S6"])
    def test_all_systems_agree_on_result_counts(self, systems, name):
        sparql = QUERIES[name]
        counts = {sysname: ls.run_query(sparql) for sysname, ls in systems.items()}
        assert len(set(counts.values())) == 1, counts


class TestTables:
    def test_query_times_and_group_averages(self, systems):
        sub = {k: systems[k].run_query for k in ("PRoST", "Rya")}
        per_query = query_times(sub, rounds=1)
        assert len(per_query) == len(QUERIES)
        table = group_averages(per_query)
        assert len(table) == 4
        assert (table[["PRoST", "Rya"]] > 0).all().all()

    def test_vp_vs_mixed_table(self, systems):
        table = vp_vs_mixed(systems["PRoST"].store, rounds=1)
        assert len(table) == len(QUERIES)
        assert (table["vp_only_s"] > 0).all() and (table["mixed_s"] > 0).all()
