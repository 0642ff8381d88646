"""Randomised cross-engine agreement tests.

A seeded generator produces random *connected* BGPs over the WatDiv-lite
vocabulary (each pattern's subject is an already-used variable).
Queries whose reference result would be huge are deterministically
re-rolled (a DuckDB ``count(*)`` guard), so the bag comparison stays
cheap. Hypothesis drives the fast pandas engine (Rya) against the
DuckDB reference on many examples; a fixed seeded sample drives the
Spark engines (each example costs Spark jobs, so that sample is small
but deterministic).
"""
from __future__ import annotations

import random

import duckdb
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.oracle import assert_equivalent_pd
from repro.rdf.watdiv import PREDICATES
from repro.sparql.algebra import IRI, Literal, Query, TriplePattern, Variable
from repro.sparql.reference import bgp_to_sql

PREDS = sorted(PREDICATES) + ["rdf:type"]
CONSTS = [
    "wsdbm:User0",
    "wsdbm:User3",
    "wsdbm:Product0",
    "wsdbm:Product1",
    "wsdbm:Country1",
    "wsdbm:Genre0",
    "wsdbm:Topic1",
    "wsdbm:Website0",
    "male",
    "26",
    "G",
]

MAX_RESULT_ROWS = 50_000


def _random_query_once(rng: random.Random) -> Query:
    """One connected conjunctive query with 1–4 patterns."""
    n = rng.randint(1, 4)
    used = ["v0"]
    patterns = []
    for i in range(n):
        s = Variable("v0") if i == 0 else Variable(rng.choice(used))
        roll = rng.random()
        if roll < 0.25:
            c = rng.choice(CONSTS)
            o = IRI(c) if c.startswith("wsdbm:") else Literal(c)
        elif roll < 0.50 and len(used) > 1:
            o = Variable(rng.choice(used))
        else:
            o = Variable(f"v{len(used)}")
            used.append(o.name)
        if isinstance(o, Variable) and o.name not in used:
            used.append(o.name)
        patterns.append(TriplePattern(s, IRI(rng.choice(PREDS)), o))
    all_vars = []
    for tp in patterns:
        for v in tp.variables():
            if v not in all_vars:
                all_vars.append(v)
    k = rng.randint(1, len(all_vars))
    return Query(tuple(rng.sample(all_vars, k)), tuple(patterns))


class _Guard:
    """Reference-result cardinality estimates, cached per test session."""

    def __init__(self, triples_pd):
        self.con = duckdb.connect()
        self.con.register("triples", triples_pd)

    def count(self, query: Query) -> int:
        sql = bgp_to_sql(query)
        return self.con.execute(f"SELECT count(*) FROM ({sql}) q").fetchone()[0]


_guards: dict[int, _Guard] = {}


def bounded_random_query(seed: int, triples_pd) -> Query:
    """Deterministic query for *seed* whose reference result is small."""
    guard = _guards.setdefault(id(triples_pd), _Guard(triples_pd))
    for attempt in range(50):
        rng = random.Random(seed * 1000 + attempt)
        q = _random_query_once(rng)
        if guard.count(q) <= MAX_RESULT_ROWS:
            return q
    raise AssertionError("could not build a bounded query (generator broken?)")


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_rya_agrees_with_oracle_on_random_bgps(rya, triples_pd, seed):
    query = bounded_random_query(seed, triples_pd)
    assert_equivalent_pd(rya.query(query), bgp_to_sql(query), triples=triples_pd)


SPARK_SEEDS = list(range(10))


@pytest.mark.parametrize("seed", SPARK_SEEDS)
def test_prost_mixed_agrees_on_random_bgps(prost, triples_pd, seed):
    query = bounded_random_query(seed, triples_pd)
    assert_equivalent_pd(prost.query(query).toPandas(), bgp_to_sql(query), triples=triples_pd)


@pytest.mark.parametrize("seed", SPARK_SEEDS)
def test_prost_vp_agrees_on_random_bgps(prost, triples_pd, seed):
    query = bounded_random_query(seed, triples_pd)
    assert_equivalent_pd(
        prost.query(query, mode="vp").toPandas(), bgp_to_sql(query), triples=triples_pd
    )


@pytest.mark.parametrize("seed", SPARK_SEEDS)
def test_s2rdf_agrees_on_random_bgps(s2rdf, triples_pd, seed):
    query = bounded_random_query(seed, triples_pd)
    assert_equivalent_pd(s2rdf.query(query).toPandas(), bgp_to_sql(query), triples=triples_pd)


@pytest.mark.parametrize("seed", SPARK_SEEDS[:5])
def test_sparqlgx_agrees_on_random_bgps(sparqlgx, triples_pd, seed):
    query = bounded_random_query(seed, triples_pd)
    assert_equivalent_pd(sparqlgx.query(query).toPandas(), bgp_to_sql(query), triples=triples_pd)
