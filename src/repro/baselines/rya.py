"""Rya baseline: sorted triple indexes + binding-at-a-time joins.

Rya (Punnoose et al.) stores whole triples as Accumulo *keys* in three
sorted orders — SPO, POS, OSP — so any bound prefix of a triple pattern
is a fast range scan. Its query engine, however, streams bindings
through index lookups (an index nested-loop join, one probe per
binding); it has no distributed in-memory join processing. The PRoST
paper's observation is precisely this asymmetry: Rya is extremely fast
when intermediate results are tiny and orders of magnitude slower when
they are not.

Substrate built here (per DESIGN.md): "Accumulo tablet" = a sorted list
of ``(s, p, o)`` component tuples in the index's component order; a
range scan is two ``bisect_left`` calls, exact for any string. The join
engine is a deliberate Python binding-at-a-time loop — vectorising it
would simulate a system Rya is not. Join order uses Rya's simple
reordering, :func:`~repro.sparql.algebra.most_bound_first`, which SPARQLGX
shares: most-bound patterns first, then smaller predicate extents (the
length of the predicate's POS-index range), kept connected so the
planner pipelines patterns that share variables with the bindings
already produced (a disconnected pick would turn every probe into a
full scan).

:meth:`RyaStore.load` has the ``load(spark, triples, *, path)`` of every
store here. It collects the deduplicated graph to the driver, builds
the in-memory indexes from it, and persists the same triples under
*path* as three sorted plain-text key files (the laptop-scale stand-in
for Accumulo RFiles — row-key storage, one full triple per key, one
key per line, values escaped by ``repro.rdf.triples.escaped``, no
columnar compression). Spark sort + write jobs write them, mirroring
Rya's MapReduce bulk-ingest path, and Table 1 measures their size on
disk.
Querying always runs from the in-memory indexes (Accumulo tablets are
memory/SSD-resident on the region servers). The BatchScanner's network
round-trips are charged by the Table-2 harness from
:attr:`RyaStore.last_probes` (``repro.bench.harness.rya_query``).
"""
from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.rdf.triples import canonicalize, escaped, to_spark
from repro.sparql.algebra import Query, TriplePattern, is_const, most_bound_first
from repro.sparql.parser import parse

#: separator of the components in the on-disk key files
_SEP = "\x1f"

#: index name -> component order
INDEX_ORDERS: dict[str, tuple[str, str, str]] = {
    "spo": ("s", "p", "o"),
    "pos": ("p", "o", "s"),
    "osp": ("o", "s", "p"),
}


class _Index:
    """One sorted composite-key index (the simulated Accumulo table)."""

    def __init__(self, triples: pd.DataFrame, order: tuple[str, str, str]):
        self.order = order
        self.keys = sorted(zip(*(triples[c].tolist() for c in order)))
        self._spo = tuple(order.index(c) for c in ("s", "p", "o"))

    def scan(self, prefix: tuple[str, ...]) -> range:
        """Row range whose keys start with the given *component* prefix:
        ``[prefix, prefix with its last component + "\\0")``. No string
        lies between a value and that value + ``"\\0"``, so the range
        is exact ("u" does not match "u1", nor "Topic1" "Topic10")."""
        if not prefix:
            return range(len(self.keys))
        upper = prefix[:-1] + (prefix[-1] + "\0",)
        return range(bisect_left(self.keys, prefix), bisect_left(self.keys, upper))

    def row(self, i: int) -> dict[str, str]:
        key = self.keys[i]
        s, p, o = self._spo
        return {"s": key[s], "p": key[p], "o": key[o]}


def choose_index(bound: set[str]) -> str:
    """Best index for a set of bound triple positions (p is always
    bound for the queries in this repo, but the choice is general)."""
    if "s" in bound:
        return "spo"
    if "o" in bound:
        return "osp" if "p" not in bound else "pos"
    return "pos" if "p" in bound else "spo"


@dataclass
class RyaStore:
    """Loaded Rya database: three sorted indexes. A predicate's extent,
    which the join order reads, is its range in the POS index.

    ``last_probes`` exposes the probe count of the most recent query:
    a scale-free cost metric, and the number of range scans the
    Table-2 harness charges BatchScanner RPCs for.
    """

    indexes: dict[str, _Index]
    last_probes: int = 0

    @classmethod
    def load(cls, spark: SparkSession, triples: DataFrame, *, path: str) -> "RyaStore":
        """Collect the deduplicated graph to the driver, where the
        query indexes live, then bulk-ingest that same set via Spark:
        one global sort + text write per index order under *path* (the
        stand-in for Rya's MapReduce bulk-ingest into Accumulo), which
        Table 1 measures. Key files and in-memory indexes thus hold
        the same keys."""
        t = canonicalize(triples).toPandas()
        triples = to_spark(spark, t)
        for name, order in INDEX_ORDERS.items():
            (
                triples.orderBy(*order)
                .select(F.concat_ws(_SEP, *map(escaped, order)).alias("value"))
                .coalesce(1)
                .write.mode("overwrite")
                .text(os.path.join(path, name))
            )
        indexes = {name: _Index(t, order) for name, order in INDEX_ORDERS.items()}
        return cls(indexes=indexes)

    # ------------------------------------------------------------------
    def extent(self, predicate: str) -> int:
        """The triples of *predicate*: the length of its POS-index range
        (0 if the graph lacks it)."""
        return len(self.indexes["pos"].scan((predicate,)))

    def _probe(
        self, tp: TriplePattern, binding: dict[str, str]
    ) -> list[dict[str, str]]:
        """One index lookup: all extensions of *binding* matching *tp*."""
        bound: dict[str, str] = {}
        var_of: dict[str, str] = {}
        for pos, term in (("s", tp.s), ("p", tp.p), ("o", tp.o)):
            if is_const(term):
                bound[pos] = term.value
            else:
                if term.name in binding:
                    bound[pos] = binding[term.name]
                var_of[pos] = term.name

        index = self.indexes[choose_index(set(bound))]
        prefix: list[str] = []
        for pos in index.order:
            if pos in bound:
                prefix.append(bound[pos])
            else:
                break
        residual = {p: v for p, v in bound.items() if p not in index.order[: len(prefix)]}

        out: list[dict[str, str]] = []
        for i in index.scan(tuple(prefix)):
            row = index.row(i)
            if any(row[p] != v for p, v in residual.items()):
                continue
            ext = dict(binding)
            for pos, var in var_of.items():
                if ext.setdefault(var, row[pos]) != row[pos]:  # ?x p ?x
                    break
            else:
                out.append(ext)
        return out

    def query(self, sparql: str | Query) -> pd.DataFrame:
        """Binding-at-a-time evaluation; returns a pandas DataFrame of
        the projected variables (bag semantics)."""
        query = parse(sparql) if isinstance(sparql, str) else sparql
        query.validate()
        self.last_probes = 0
        bindings: list[dict[str, str]] = [{}]
        for tp in most_bound_first(query.patterns, self.extent):
            nxt: list[dict[str, str]] = []
            for b in bindings:
                nxt.extend(self._probe(tp, b))
                self.last_probes += 1
            bindings = nxt
            if not bindings:
                break
        cols = list(query.projection())
        out = pd.DataFrame(
            [[b.get(c) for c in cols] for b in bindings], columns=cols, dtype=object
        )
        return out.drop_duplicates().reset_index(drop=True) if query.distinct else out
