"""Timing harness for the paper's evaluation tables.

Produces the measurements behind:

- **Table 1** — store size on disk + loading time per system;
- **Table 2** — average query time per WatDiv group per system;
- **Figure 2 (as a table)** — per-query PRoST mixed vs. VP-only.

All timings are wall-clock on the local Spark session. Query execution
is forced with ``count()`` (full materialisation of the result without
driver collection — the paper measures query completion on the
cluster, not result download).
"""
from __future__ import annotations

import os
import time
from dataclasses import dataclass
from statistics import median
from typing import Callable

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.rya import RyaStore
from repro.baselines.s2rdf import S2RDFStore
from repro.baselines.sparqlgx import SparqlGXStore
from repro.core.prost import Prost
from repro.sparql.watdiv_queries import GROUP_TITLES, GROUPS, QUERIES

#: evaluation order of the systems, as in the paper's Table 2
SYSTEMS = ("PRoST", "S2RDF", "Rya", "SPARQLGX")

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


@dataclass
class LoadedSystem:
    """One system after loading: handle + Table-1 measurements."""

    name: str
    store: object
    load_seconds: float
    size_bytes: int
    run_query: Callable[[str], int]  # SPARQL text -> result row count


def load_all_systems(
    spark: SparkSession,
    triples: DataFrame,
    triples_pd: pd.DataFrame,
    base_dir: str,
) -> dict[str, LoadedSystem]:
    """Load the graph into all four stores, timing each (Table 1)."""
    out: dict[str, LoadedSystem] = {}

    path = os.path.join(base_dir, "prost")
    secs, prost = timed(lambda: Prost.load(spark, triples, path=path))
    out["PRoST"] = LoadedSystem(
        "PRoST", prost, secs, dir_size(path), lambda q: prost.query(q).count()
    )

    path = os.path.join(base_dir, "s2rdf")
    secs, s2 = timed(lambda: S2RDFStore.load(spark, triples, path=path))
    out["S2RDF"] = LoadedSystem(
        "S2RDF", s2, secs, dir_size(path), lambda q: s2.query(q).count()
    )

    path = os.path.join(base_dir, "rya")
    secs, rya = timed(
        lambda: RyaStore.load_distributed(spark, triples, triples_pd, path=path)
    )
    out["Rya"] = LoadedSystem(
        "Rya", rya, secs, dir_size(path), lambda q: len(rya_query(rya, q))
    )

    path = os.path.join(base_dir, "sparqlgx")
    secs, gx = timed(lambda: SparqlGXStore.load(spark, triples, path=path))
    out["SPARQLGX"] = LoadedSystem(
        "SPARQLGX", gx, secs, dir_size(path), lambda q: gx.query(q).count()
    )
    return out


def time_query(run: Callable[[str], int], sparql: str, rounds: int = 1) -> float:
    """Median wall-clock seconds over *rounds* executions."""
    return median(timed(lambda: run(sparql))[0] for _ in range(rounds))


def query_times(
    systems: dict[str, LoadedSystem], rounds: int = 1
) -> pd.DataFrame:
    """Per-query wall-clock seconds, one column per system (Figure 3)."""
    rows = []
    for qname, sparql in QUERIES.items():
        row: dict[str, object] = {"query": qname}
        for sysname, ls in systems.items():
            row[sysname] = time_query(ls.run_query, sparql, rounds)
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
    rows = []
    for qname, sparql in QUERIES.items():
        t_vp = median(
            timed(lambda: prost.query(sparql, mode="vp").count())[0]
            for _ in range(rounds)
        )
        t_mixed = median(
            timed(lambda: prost.query(sparql, mode="mixed").count())[0]
            for _ in range(rounds)
        )
        rows.append(
            {
                "query": qname,
                "vp_only_s": round(t_vp, 3),
                "mixed_s": round(t_mixed, 3),
                "speedup": round(t_vp / t_mixed, 2) if t_mixed > 0 else float("inf"),
            }
        )
    return pd.DataFrame(rows)


def format_table(df: pd.DataFrame, title: str) -> str:
    """Plain-text rendering, one paper table per call."""
    return f"== {title} ==\n{df.to_string(index=False)}\n"
