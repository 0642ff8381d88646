"""Loading-phase graph statistics (paper §3.3).

The paper uses exactly two statistics, computed during loading "without
any significant overhead": (1) the total number of triples per
predicate and (2) the number of distinct subjects per predicate. The
Join Tree priority heuristic consumes nothing else.

The statistics also fix the predicate dictionary: every store names a
predicate ``p<i>`` (:meth:`GraphStats.column`), never by its IRI, as
Spark resolves column names case-insensitively, the Property Table has
an ``s`` column and a path component holds at most 255 bytes.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from pyspark.sql import DataFrame
from pyspark.sql import functions as F


@dataclass(frozen=True)
class PredicateStats:
    """Per-predicate statistics."""

    n_triples: int
    n_distinct_subjects: int


@dataclass(frozen=True)
class GraphStats:
    """Statistics for the whole graph, keyed by predicate IRI."""

    by_predicate: dict[str, PredicateStats]

    @classmethod
    def compute(cls, triples: DataFrame) -> "GraphStats":
        """One aggregation over the triple table; collected to the driver
        (the number of distinct predicates is small — 86 in WatDiv)."""
        rows = (
            triples.groupBy("p")
            .agg(
                F.count(F.lit(1)).alias("n"),
                F.countDistinct("s").alias("ds"),
            )
            .collect()
        )
        return cls({r["p"]: PredicateStats(r["n"], r["ds"]) for r in rows})

    def __getitem__(self, predicate: str) -> PredicateStats:
        return self.by_predicate[predicate]

    def __contains__(self, predicate: str) -> bool:
        return predicate in self.by_predicate

    def predicates(self) -> list[str]:
        return sorted(self.by_predicate)

    @cached_property
    def columns(self) -> dict[str, str]:
        """The predicate dictionary: IRI → store name ``p<i>``, where *i*
        is the IRI's rank in :meth:`predicates`. Injective, and every
        name is a lowercase SQL identifier and a short path component."""
        return {p: f"p{i}" for i, p in enumerate(self.predicates())}

    @cached_property
    def predicate_of(self) -> dict[str, str]:
        """The inverse dictionary: store name → predicate IRI."""
        return {c: p for p, c in self.columns.items()}

    def column(self, predicate: str) -> str:
        """The store name of *predicate*; KeyError if the graph lacks it."""
        return self.columns[predicate]

    def n_triples(self, predicate: str) -> int:
        """Triple count for *predicate*; 0 if the graph never uses it."""
        st = self.by_predicate.get(predicate)
        return st.n_triples if st else 0

    def n_distinct_subjects(self, predicate: str) -> int:
        st = self.by_predicate.get(predicate)
        return st.n_distinct_subjects if st else 0

    def multi_valued(self) -> set[str]:
        """Predicates with at least one subject carrying several objects."""
        return {
            p
            for p, st in self.by_predicate.items()
            if st.n_triples > st.n_distinct_subjects
        }
