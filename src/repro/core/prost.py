"""PRoST facade: load once, query with the mixed or VP-only strategy."""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core.executor import execute_tree
from repro.core.jointree import JoinTree, build_join_tree
from repro.core.loader import ProstStore
from repro.sparql.algebra import Query
from repro.sparql.parser import parse


@dataclass
class Prost:
    """The PRoST system: a loaded store plus the query pipeline.

    ``mode="mixed"`` is the paper's contribution (PT for subject stars,
    VP elsewhere); ``mode="vp"`` is the Figure-2 baseline that plans
    every pattern on a VP table.
    """

    store: ProstStore

    @classmethod
    def load(cls, spark: SparkSession, triples: DataFrame, *, path: str) -> "Prost":
        """Load *triples* into a PRoST store persisted under *path*."""
        return cls(ProstStore.load(spark, triples, path=path))

    def plan(self, sparql: str | Query, mode: str = "mixed") -> JoinTree:
        """The Join Tree (its root) PRoST would execute for *sparql*."""
        query = parse(sparql) if isinstance(sparql, str) else sparql
        return build_join_tree(query, self.store.stats, mode=mode)

    def query(self, sparql: str | Query, mode: str = "mixed") -> DataFrame:
        """Answer a SPARQL query; columns are the projected variables."""
        query = parse(sparql) if isinstance(sparql, str) else sparql
        return execute_tree(self.store, self.plan(query, mode), query)
