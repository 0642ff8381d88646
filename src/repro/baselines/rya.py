"""Rya baseline: sorted triple indexes + binding-at-a-time joins.

Rya (Punnoose et al.) stores whole triples as Accumulo *keys* in three
sorted orders — SPO, POS, OSP — so any bound prefix of a triple pattern
is a fast range scan. Its query engine, however, streams bindings
through index lookups (an index nested-loop join, one probe per
binding); it has no distributed in-memory join processing. The PRoST
paper's observation is precisely this asymmetry: Rya is extremely fast
when intermediate results are tiny and orders of magnitude slower when
they are not.

Substrate built here (per DESIGN.md): "Accumulo tablet" = a NumPy array
of composite keys (``s\\x1fp\\x1fo`` in the index's component order),
kept sorted; a range scan is two ``searchsorted`` calls. The join
engine is a deliberate Python binding-at-a-time loop — vectorising it
would simulate a system Rya is not. Join order uses Rya's simple
reordering: most-bound patterns first, then smaller predicate extents.

:meth:`RyaStore.load_distributed` persists the three indexes as sorted
plain-text key files (the laptop-scale stand-in for Accumulo RFiles —
row-key storage, one full triple per key, no columnar compression),
written by Spark sort + write jobs that mirror Rya's MapReduce
bulk-ingest path, so Table 1 can measure size on disk. Plain
:meth:`RyaStore.load` builds only the in-memory indexes on the driver.
Querying always runs from the in-memory indexes (Accumulo tablets are
memory/SSD-resident on the region servers).
"""
from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.sparql.algebra import Query, TriplePattern, is_const
from repro.sparql.parser import parse

_SEP = "\x1f"
_HIGH = "\x7f"  # sorts after every character our data may contain

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
        df = triples.sort_values(list(order), kind="mergesort").reset_index(drop=True)
        self.components = {c: df[c].to_numpy() for c in ("s", "p", "o")}
        self.keys = (
            df[order[0]].str.cat(df[order[1]], sep=_SEP).str.cat(df[order[2]], sep=_SEP)
        ).to_numpy()

    def scan(self, prefix_values: tuple[str, ...]) -> range:
        """Row range whose keys start with the given *component* prefix.

        Incomplete prefixes are terminated with the separator so that
        e.g. component "u" cannot match a key starting with "u1".
        """
        if not prefix_values:
            return range(len(self.keys))
        prefix = _SEP.join(prefix_values)
        if len(prefix_values) == 3:
            # fully-bound probe: exact key lookup, not a prefix scan
            # ("...Topic1" must not match "...Topic10")
            lo = int(np.searchsorted(self.keys, prefix, side="left"))
            hi = int(np.searchsorted(self.keys, prefix, side="right"))
            return range(lo, hi)
        prefix += _SEP
        lo = int(np.searchsorted(self.keys, prefix))
        hi = int(np.searchsorted(self.keys, prefix + _HIGH))
        return range(lo, hi)

    def row(self, i: int) -> dict[str, str]:
        return {c: self.components[c][i] for c in ("s", "p", "o")}


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
    """Loaded Rya database: three sorted indexes + extent statistics.

    ``rpc_latency_s`` / ``ranges_per_rpc`` model the Accumulo
    BatchScanner network round-trips that a driver-local index cannot
    exhibit: every ``ranges_per_rpc`` probes cost one ``rpc_latency_s``
    sleep. Unit tests leave the model off (0.0); the Table-2 benchmark
    enables it with conservative real-world parameters (2 ms per RPC,
    32 ranges per batch — see DESIGN.md). ``last_probes`` exposes the
    probe count of the most recent query as a scale-free cost metric.
    """

    indexes: dict[str, _Index]
    pred_counts: dict[str, int]
    path: str | None = None
    rpc_latency_s: float = 0.0
    ranges_per_rpc: int = 32
    last_probes: int = 0

    @classmethod
    def load(cls, triples_pd: pd.DataFrame) -> "RyaStore":
        """Sort the graph three ways on the driver into the in-memory
        query indexes."""
        t = triples_pd[["s", "p", "o"]].drop_duplicates().reset_index(drop=True)
        indexes = {name: _Index(t, order) for name, order in INDEX_ORDERS.items()}
        counts = t["p"].value_counts().to_dict()
        return cls(indexes=indexes, pred_counts=counts)

    @classmethod
    def load_distributed(
        cls,
        spark,
        triples,
        triples_pd: pd.DataFrame,
        *,
        path: str,
        rpc_latency_s: float = 0.0,
        ranges_per_rpc: int = 32,
    ) -> "RyaStore":
        """Bulk ingest via Spark: one global sort + text write per index
        order (the stand-in for Rya's MapReduce bulk-ingest into
        Accumulo). The in-memory query indexes are then built as in
        :meth:`load`; the on-disk key files are what Table 1 measures.
        """
        from pyspark.sql import functions as F

        for name, order in INDEX_ORDERS.items():
            (
                triples.orderBy(*order)
                .select(F.concat_ws(_SEP, *order).alias("value"))
                .coalesce(1)
                .write.mode("overwrite")
                .text(os.path.join(path, name))
            )
        store = cls.load(triples_pd)
        return cls(
            indexes=store.indexes,
            pred_counts=store.pred_counts,
            path=path,
            rpc_latency_s=rpc_latency_s,
            ranges_per_rpc=ranges_per_rpc,
        )

    # ------------------------------------------------------------------
    def _order(self, query: Query) -> list[TriplePattern]:
        """Rya-style join reordering: most-bound patterns first, then
        ascending predicate extent — greedily keeping the chain
        *connected* (Rya's query planner pipelines patterns that share
        variables with already-produced bindings; a disconnected pick
        would turn every probe into a full scan)."""

        def rank(tp: TriplePattern):
            n_const = sum(1 for term in (tp.s, tp.p, tp.o) if is_const(term))
            extent = (
                self.pred_counts.get(tp.p.value, 0) if is_const(tp.p) else len(self.indexes["spo"].keys)
            )
            return (-n_const, extent)

        remaining = sorted(query.patterns, key=rank)
        ordered = [remaining.pop(0)]
        bound = set(ordered[0].variables())
        while remaining:
            connected = [tp for tp in remaining if set(tp.variables()) & bound]
            nxt = connected[0] if connected else remaining[0]
            remaining.remove(nxt)
            ordered.append(nxt)
            bound |= set(nxt.variables())
        return ordered

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
            ok = True
            for pos, var in var_of.items():
                val = row[pos]
                if var in ext and ext[var] != val:
                    ok = False
                    break
                ext[var] = val
            if ok:
                out.append(ext)
        return out

    def query(self, sparql: str | Query) -> pd.DataFrame:
        """Binding-at-a-time evaluation; returns a pandas DataFrame of
        the projected variables (bag semantics)."""
        import time

        query = parse(sparql) if isinstance(sparql, str) else sparql
        query.validate()
        self.last_probes = 0
        bindings: list[dict[str, str]] = [{}]
        for tp in self._order(query):
            nxt: list[dict[str, str]] = []
            for b in bindings:
                nxt.extend(self._probe(tp, b))
                self.last_probes += 1
                if self.rpc_latency_s and self.last_probes % self.ranges_per_rpc == 0:
                    time.sleep(self.rpc_latency_s)
            bindings = nxt
            if not bindings:
                break
        cols = list(query.projection())
        out = pd.DataFrame(
            [[b.get(c) for c in cols] for b in bindings], columns=cols, dtype=object
        )
        return out.drop_duplicates().reset_index(drop=True) if query.distinct else out
