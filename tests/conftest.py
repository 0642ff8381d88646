"""Session-scoped fixtures shared across the test suite.

Every Spark-backed store is loaded once per session from the same
deterministic WatDiv-lite graph (``REPRO_TEST_SCALE``, default 0.2 ≈
8 K triples), so the suite runs in minutes while still exercising
the shuffle path (broadcast joins are disabled by the root conftest).
"""
from __future__ import annotations

import os

import pandas as pd
import pytest

TEST_SCALE = float(os.environ.get("REPRO_TEST_SCALE", "0.2"))
TEST_SEED = 42


@pytest.fixture(scope="session")
def triples_pd() -> pd.DataFrame:
    from repro.rdf.watdiv import watdiv_pandas

    return watdiv_pandas(scale=TEST_SCALE, seed=TEST_SEED)


@pytest.fixture(scope="session")
def triples(spark, triples_pd):
    from repro.rdf.triples import to_spark

    return to_spark(spark, triples_pd).cache()


@pytest.fixture(scope="session")
def prost(spark, triples):
    from repro.core.prost import Prost

    return Prost.load(spark, triples)


@pytest.fixture(scope="session")
def s2rdf(spark, triples):
    from repro.baselines.s2rdf import S2RDFStore

    return S2RDFStore.load(spark, triples)


@pytest.fixture(scope="session")
def sparqlgx(spark, triples, tmp_path_factory):
    from repro.baselines.sparqlgx import SparqlGXStore

    path = str(tmp_path_factory.mktemp("sparqlgx"))
    return SparqlGXStore.load(spark, triples, path=path)


@pytest.fixture(scope="session")
def rya(triples_pd):
    from repro.baselines.rya import RyaStore

    return RyaStore.load(triples_pd)


@pytest.fixture(scope="session")
def graph_stats(triples):
    from repro.core.stats import GraphStats

    return GraphStats.compute(triples)
