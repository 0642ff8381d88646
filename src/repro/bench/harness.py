"""Timing harness for the paper's evaluation tables.

Produces the measurements behind:

- **Table 1** — store size on disk + loading time per system;
- **Table 2** — average query time per WatDiv group per system;
- **Figure 2 (as a table)** — per-query PRoST mixed vs. VP-only.

Each system is loaded by one loop over :data:`SYSTEMS`, and every query
time, of the four systems or of PRoST's two modes, comes from the one
timing loop in :func:`query_times`.

All timings are wall-clock on the local Spark session. Query execution
is forced with ``count()`` (full materialisation of the result without
driver collection — the paper measures query completion on the
cluster, not result download).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from functools import partial
from statistics import median
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.rya import RyaStore
from repro.baselines.s2rdf import S2RDFStore
from repro.baselines.sparqlgx import SparqlGXStore
from repro.core.prost import Prost
from repro.sparql.watdiv_queries import GROUP_TITLES, GROUPS, QUERIES

#: Accumulo BatchScanner network model for the Rya baseline (see
#: DESIGN.md): one RPC of ~2 ms per full batch of 32 range scans,
#: charged by :func:`rya_query`.
RYA_RPC_LATENCY_S = 0.002
RYA_RANGES_PER_RPC = 32


def dir_size(path: str) -> int:
    """Total bytes under *path* (the store's on-disk footprint)."""
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            fp = os.path.join(root, f)
            try:
                total += os.path.getsize(fp)
            except OSError:
                pass
    return total


def timed(fn: Callable[[], object]) -> tuple[float, object]:
    """Run *fn*, returning (elapsed seconds, its result)."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


@dataclass(frozen=True)
class System:
    """One system: its store class, loaded by ``cls.load(spark, triples,
    path=path)``, and how to run a query on a loaded store."""

    cls: type
    run: Callable[[object, str], int]  # (store, SPARQL text) -> result row count


@dataclass
class LoadedSystem:
    """One system after loading: handle + Table-1 measurements."""

    store: object
    load_seconds: float
    size_bytes: int
    run_query: Callable[[str], int]  # SPARQL text -> result row count


def _count_rows(store, sparql: str) -> int:
    return store.query(sparql).count()


#: the four systems in the paper's Table 2 order, each with its store
#: class and how to run one query on it (returning the result row count)
SYSTEMS: dict[str, System] = {
    "PRoST": System(Prost, _count_rows),
    "S2RDF": System(S2RDFStore, _count_rows),
    "Rya": System(RyaStore, lambda rya, sparql: len(rya_query(rya, sparql))),
    "SPARQLGX": System(SparqlGXStore, _count_rows),
}


def load_all_systems(
    spark: SparkSession, triples: DataFrame, base_dir: str
) -> dict[str, LoadedSystem]:
    """Load the graph into all four stores, timing each (Table 1).
    Each store goes in ``base_dir/<name in lower case>``."""
    out: dict[str, LoadedSystem] = {}
    for name, system in SYSTEMS.items():
        path = os.path.join(base_dir, name.lower())
        secs, store = timed(lambda: system.cls.load(spark, triples, path=path))
        out[name] = LoadedSystem(store, secs, dir_size(path), partial(system.run, store))
    return out


def loading_table(systems: dict[str, LoadedSystem]) -> pd.DataFrame:
    """Table 1: store size on disk and loading time per system."""
    return pd.DataFrame(
        [
            {
                "System": name,
                "Size (MB)": round(ls.size_bytes / 1e6, 2),
                "Time (s)": round(ls.load_seconds, 1),
            }
            for name, ls in systems.items()
        ]
    )


def query_times(
    runners: dict[str, Callable[[str], object]], rounds: int = 1
) -> pd.DataFrame:
    """Per-query median wall-clock seconds over *rounds* executions, one
    column per runner (SPARQL text -> result); Figure 3's data. Each
    query first runs once per runner untimed, so no system's time holds
    the one-off costs of a first run, such as compiling generated code."""
    rows = []
    for qname, sparql in QUERIES.items():
        row: dict[str, object] = {"query": qname}
        for name, run in runners.items():
            run(sparql)
            row[name] = median(timed(lambda: run(sparql))[0] for _ in range(rounds))
        rows.append(row)
    return pd.DataFrame(rows)


def group_averages(per_query: pd.DataFrame) -> pd.DataFrame:
    """Table 2: average per-query time per WatDiv group, milliseconds."""
    sys_cols = [c for c in per_query.columns if c != "query"]
    rows = []
    for g, names in GROUPS.items():
        sub = per_query[per_query["query"].isin(names)]
        row: dict[str, object] = {"group": GROUP_TITLES[g]}
        for c in sys_cols:
            row[c] = round(1000.0 * sub[c].mean(), 1)
        rows.append(row)
    return pd.DataFrame(rows)


def rya_query(rya: RyaStore, sparql: str) -> pd.DataFrame:
    """Run *sparql* on Rya, then sleep for the BatchScanner RPCs its
    probes cost: one ``RYA_RPC_LATENCY_S`` per full batch of
    ``RYA_RANGES_PER_RPC`` range scans."""
    out = rya.query(sparql)
    time.sleep(rya.last_probes // RYA_RANGES_PER_RPC * RYA_RPC_LATENCY_S)
    return out


def rya_probe_counts(rya: RyaStore) -> pd.DataFrame:
    """Per-query index-probe counts for Rya — the scale-free cost
    metric behind its Table-2 profile (probes ≈ Accumulo RPC range scans).
    Runs without the network model so only counts are collected."""
    rows = []
    for qname, sparql in QUERIES.items():
        n = len(rya.query(sparql))
        rows.append({"query": qname, "probes": rya.last_probes, "rows": n})
    return pd.DataFrame(rows)


def vp_vs_mixed(prost: Prost, rounds: int = 1) -> pd.DataFrame:
    """Figure 2 as a table: per-query seconds, VP-only vs mixed."""
    table = query_times(
        {
            "vp_only_s": lambda q: prost.query(q, mode="vp").count(),
            "mixed_s": lambda q: prost.query(q, mode="mixed").count(),
        },
        rounds,
    )
    table["speedup"] = (table["vp_only_s"] / table["mixed_s"]).round(2)
    return table.round({"vp_only_s": 3, "mixed_s": 3})


def format_table(df: pd.DataFrame, title: str) -> str:
    """Plain-text rendering, one paper table per call."""
    return f"== {title} ==\n{df.to_string(index=False)}\n"
