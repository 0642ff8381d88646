"""The benchmark's workloads: WatDiv-lite on one local Spark session.

One client in one process runs a closed loop: each query starts when
the previous one has returned. Set-up is timed as ``setup_s``: JVM start
and graph generation; a cold load of a small graph of the same seed,
which pays the JVM's warm-up; the timed load of the queried graph
(``load_s``) and its checks; one oracle-checked pass over the 20 queries,
which is also the cold pass. The measured phase then runs whole passes
of the 20 queries.
"""
from __future__ import annotations

import gc
import os
import shutil
import statistics
import sys
import threading
import time
import traceback
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from functools import reduce
from pathlib import Path

import duckdb
import pyarrow as pa
from _session import get_spark
from pyspark import SparkContext
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.bench.harness import dir_size
from repro.core.executor import compile_node, execute_tree
from repro.core.jointree import PTNode, build_join_tree
from repro.core.prost import Prost
from repro.rdf.triples import to_spark
from repro.rdf.watdiv import watdiv_pandas
from repro.sparql.parser import parse
from repro.sparql.reference import bgp_to_sql
from repro.sparql.watdiv_queries import GROUPS, QUERIES

from measure import Tally, group_means, per_query_medians, tail_percentile
from tracing import JobCounter, Tracer, self_times, traced_load_calls

#: WatDiv-lite scale of the queried graph (about 40 K triples)
SCALE = 1.0

#: scale of the warm-up graph (about 800 triples): its load pays the
#: session's cold start, which costs about the same at any scale
WARMUP_SCALE = 0.02

#: concurrent clients of the (untimed) oracle pass over the 20 queries
ORACLE_CLIENTS = 4

#: whole measured passes (more only if --seconds allows): what the run
#: budget leaves room for after set-up, see README.md
MEASURED_PASSES = 2

#: workload name -> ``Prost.query`` mode
WORKLOADS = {
    # Property Table path: PT-node construction, scans with explodes
    "watdiv-mixed": "mixed",
    # every pattern a VP scan plus a shuffle join; the PT is never read
    "watdiv-vp": "vp",
}


def assert_same_rows(got: pa.Table, expected: pa.Table) -> None:
    """The oracle's check of a full result: *got* has the columns of
    *expected* and, as multisets, the same rows.

    DuckDB compares how often each distinct row occurs on either side.
    ``oracle.assert_equivalent_pd`` sorts both sides in pandas instead,
    which takes about 6 s for C2's 470 K rows.
    """
    cols = sorted(got.column_names)
    assert cols == sorted(expected.column_names), (
        f"columns {cols}, expected {sorted(expected.column_names)}"
    )
    sel = ", ".join(f'"{c}"' for c in cols)
    same = " AND ".join(f'e."{c}" IS NOT DISTINCT FROM g."{c}"' for c in cols)
    con = duckdb.connect()
    try:
        con.execute("SET threads TO 1")
        con.register("got", got)
        con.register("expected", expected)
        (differ,) = con.execute(
            f"""SELECT count(*)
                FROM (SELECT {sel}, count(*) AS n_ FROM expected GROUP BY ALL) e
                FULL JOIN (SELECT {sel}, count(*) AS n_ FROM got GROUP BY ALL) g ON {same}
                WHERE e.n_ IS DISTINCT FROM g.n_"""
        ).fetchone()
        assert differ == 0, f"{differ} distinct rows occur a different number of times"
    finally:
        con.close()


def stop_session(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=60)


def timed_passes(seconds: float, min_passes: int, one_pass) -> list[float]:
    """Whole passes until *seconds* have elapsed and at least
    *min_passes* ran; returns each pass's wall seconds."""
    walls: list[float] = []
    start = time.perf_counter()
    while len(walls) < min_passes or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        one_pass(len(walls))
        walls.append(time.perf_counter() - t)
    return walls


class Run:
    """One run of one workload: set-up, measured passes, metrics."""

    def __init__(self, workload: str, seed: int, work: Path) -> None:
        self.mode = WORKLOADS[workload]
        self.seed = seed
        # one directory per process, so runs sharing a checkout never collide
        self.stores = work / "stores" / f"{workload}-{seed}-{os.getpid()}"
        self.tally = Tally()
        self.details: dict = {"workload": workload, "seed": seed}
        shutil.rmtree(self.stores, ignore_errors=True)
        # graph and reference answers are made while the JVM starts
        with ThreadPoolExecutor(max_workers=1) as pool:
            inputs = pool.submit(self._inputs)
            self.spark = get_spark("prostbench")
            self.triples, self.expected = inputs.result()
        self.counts = {name: t.num_rows for name, t in self.expected.items()}
        self.spark.sparkContext.setLogLevel("ERROR")

    def close(self) -> None:
        stop_session(self.spark)
        shutil.rmtree(self.stores, ignore_errors=True)

    # ------------------------------------------------------------ set-up
    def set_up(self, tracer: Tracer | None = None, jobs: JobCounter | None = None) -> None:
        spark = self.spark
        marks = {"session": time.perf_counter()}
        # warm-up: the session's first (cold) load, of a small graph, so
        # that the timed load runs on a warm JVM
        small = watdiv_pandas(scale=WARMUP_SCALE, seed=self.seed)
        Prost.load(spark, to_spark(spark, small), path=str(self.stores / "warmup"))
        marks["warmup_load"] = time.perf_counter()

        self.path = path = self.stores / "main"
        input_df = to_spark(spark, self.triples)
        if tracer is None:
            t = time.perf_counter()
            self.prost = Prost.load(spark, input_df, path=str(path))
            self.load_s = time.perf_counter() - t
        else:
            jobs.start("load")
            with traced_load_calls(tracer), tracer.span("load", qid="load"):
                self.prost = Prost.load(spark, input_df, path=str(path))
            self.load_s = tracer.total("load")
            self.load_jobs = jobs.count("load")
            jobs.start("untraced")
        self.store_bytes = dir_size(str(path))
        marks["load"] = time.perf_counter()
        self._check_load()
        marks["load_checks"] = time.perf_counter()
        cold_ms = self._oracle_pass()
        # collect the set-up's garbage now rather than inside a timed pass
        gc.collect()
        spark._jvm.System.gc()
        marks["oracle_pass"] = time.perf_counter()

        names = list(marks)
        self.details["warmup"] = {
            "phase_s": {b: marks[b] - marks[a] for a, b in zip(names, names[1:])},
            "cold_query_ms": cold_ms,
        }
        self.details["graph"] = {
            "scale": SCALE,
            "triples": len(self.triples),
            "subjects": int(self.triples["s"].nunique()),
            "predicates": int(self.triples["p"].nunique()),
            "reference_rows": self.counts,
        }

    def _inputs(self) -> tuple:
        """The graph of ``self.seed`` and each query's reference result,
        computed by DuckDB from ``sparql.reference.bgp_to_sql``."""
        triples = watdiv_pandas(scale=SCALE, seed=self.seed)
        con = duckdb.connect()
        try:
            # one thread, so that DuckDB does not slow the JVM's start
            con.execute("SET threads TO 1")
            con.register("graph", triples)
            # a native table: DuckDB scans it far faster than the frame
            con.execute("CREATE TABLE triples AS SELECT * FROM graph")
            return triples, {
                name: con.execute(bgp_to_sql(parse(sparql))).arrow()
                for name, sparql in QUERIES.items()
            }
        finally:
            con.close()

    def _oracle_pass(self) -> dict[str, float]:
        """Untimed: collect every query's full result and diff it against
        its reference. ORACLE_CLIENTS concurrent clients pay the cold
        start of the 20 query plans in less wall time than one would.
        They take the queries with the largest results first, so that no
        client is left with a long one at the end. Returns each query's
        wall ms."""
        lock = threading.Lock()

        def check(name: str) -> float:
            t = time.perf_counter()
            try:
                got = self.prost.query(QUERIES[name], self.mode).toArrow()
                assert_same_rows(got, self.expected[name])
                ok = True
            except Exception:  # a failing query or differing result is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                ok = False
            with lock:
                self.tally.record(ok)
            return (time.perf_counter() - t) * 1000

        order = sorted(QUERIES, key=lambda q: -self.counts[q])
        with ThreadPoolExecutor(max_workers=ORACLE_CLIENTS) as pool:
            return dict(zip(order, pool.map(check, order)))

    def _check_load(self) -> None:
        """Untimed: the store gives back every distinct input triple and
        holds one Property Table row per distinct subject."""
        store = self.prost.store
        distinct = self.triples.drop_duplicates(["s", "p", "o"])
        self.tally.record(store.triples_back().count() == len(distinct))
        self.tally.record(
            store.property_table.count() == distinct["s"].nunique()
        )

    # ---------------------------------------------------------- measured
    def _check(self, name: str, run) -> int | None:
        try:
            n = run()
        except Exception:  # a failing query is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            n = None
        return n if self.tally.record(n == self.counts[name]) else None

    def _untraced(self, name: str) -> float | None:
        """One checked, timed ``count()`` of *name*: its wall ms, or
        ``None`` when it failed."""
        sparql = QUERIES[name]
        t = time.perf_counter()
        ok = self._check(name, lambda: self.prost.query(sparql, self.mode).count())
        return (time.perf_counter() - t) * 1000 if ok is not None else None

    def untraced_pass(self, samples: dict[str, list[float]]) -> None:
        """One pass of timed queries."""
        for name in QUERIES:
            ms = self._untraced(name)
            if ms is not None:
                samples[name].append(ms)

    def _traced(self, tracer: Tracer, jobs: JobCounter, name: str, qid: str, counts) -> float:
        """One checked ``count()`` of *name* with a span per layer call;
        returns its wall ms."""
        store = self.prost.store
        sparql = QUERIES[name]

        def run() -> int:
            with tracer.span("query", qid=qid):
                with tracer.span("sparql.parser"):
                    query = parse(sparql)
                with tracer.span("core.jointree"):
                    tree = build_join_tree(query, store.stats, mode=self.mode)
                with tracer.span("core.executor.construct"):
                    df = execute_tree(store, tree, query)
                jobs.start(qid)
                with tracer.span("core.executor.exec"):
                    n = df.count()
            pt = sum(isinstance(node, PTNode) for node in tree.execution_order)
            counts["jointree.pt_nodes"] += pt
            counts["jointree.vp_nodes"] += len(tree.execution_order) - pt
            return n

        t = time.perf_counter()
        n = self._check(name, run)
        wall_ms = (time.perf_counter() - t) * 1000
        counts["executor.result_rows"] += n or 0
        n_jobs, n_tasks = jobs.count(qid)
        jobs.start("untraced")
        counts["executor.spark_jobs"] += n_jobs
        counts["executor.spark_tasks"] += n_tasks
        return wall_ms

    def node_rows(self) -> int:
        """Summed actual rows of every Join Tree node of every query
        (untimed: one Spark job per query counts all its nodes)."""
        store = self.prost.store
        total = 0
        for sparql in QUERIES.values():
            tree = build_join_tree(parse(sparql), store.stats, mode=self.mode)
            counts = [
                compile_node(store, n).select(F.count(F.lit(1)).alias("n"))
                for n in tree.execution_order
            ]
            total += sum(r["n"] for r in reduce(DataFrame.unionAll, counts).collect())
        return total

    # ------------------------------------------------------------ runs
    def end_to_end(self, seconds: float, setup_start: float) -> dict[str, float]:
        self.set_up()
        setup_s = time.perf_counter() - setup_start
        samples: dict[str, list[float]] = defaultdict(list)
        start = time.perf_counter()
        walls = timed_passes(seconds, MEASURED_PASSES, lambda _k: self.untraced_pass(samples))
        measured_s = time.perf_counter() - start

        every = [x for xs in samples.values() for x in xs]
        medians = per_query_medians(samples)
        groups = group_means(medians, GROUPS)
        tail = tail_percentile(len(every))
        self.details["measured"] = {
            "pass_s": walls,
            "measured_s": measured_s,
            "samples": len(every),
            "tail_percentile": tail,
            "query_median_ms": medians,
        }
        return {
            "setup_s": setup_s,
            "load_s": self.load_s,
            "store_bytes": self.store_bytes,
            "qps": len(every) / measured_s,
            "query_p50_ms": statistics.median(every) if every else None,
            **{f"group_{g}_ms": groups.get(g) for g in GROUPS},
            "success_ratio": self.tally.success_ratio,
        }

    def traced(self) -> dict[str, float]:
        """Set-up, then one pass in which each query runs untraced and
        traced, alternating which goes first, so warm-up drift cancels
        out of ``trace.overhead_pct``. The timed load is traced."""
        tracer = Tracer()
        jobs = JobCounter(self.spark.sparkContext)
        self.set_up(tracer, jobs)

        counts: dict[str, int] = defaultdict(int)
        qids = {name: f"traced:{name}" for name in QUERIES}
        plain_ms = traced_ms = 0.0
        for i, name in enumerate(QUERIES):
            traced_first = i % 2 == 1
            if traced_first:
                traced_ms += self._traced(tracer, jobs, name, qids[name], counts)
            plain_ms += self._untraced(name) or 0.0
            if not traced_first:
                traced_ms += self._traced(tracer, jobs, name, qids[name], counts)
        jobs.start("node-rows")
        t = time.perf_counter()
        node_rows = self.node_rows()
        node_rows_s = time.perf_counter() - t
        jobs.start("untraced")

        every = set(qids.values())
        layer: dict[str, float] = {
            "parser.parse_ms": tracer.total("sparql.parser", every) * 1000,
            "jointree.plan_ms": tracer.total("core.jointree", every) * 1000,
            **counts,
        }
        for stage in ("construct", "exec"):
            span = f"core.executor.{stage}"
            layer[f"executor.{stage}_ms"] = tracer.total(span, every) * 1000
            for g, names in GROUPS.items():
                layer[f"executor.{stage}_ms.{g}"] = statistics.fmean(
                    tracer.total(span, {qids[q]}) * 1000 for q in names
                )
        store = self.prost.store
        layer.update(
            {
                "executor.node_rows": node_rows,
                "stats.compute_s": tracer.total("core.stats"),
                "loader.vp_write_s": tracer.total("core.loader.vp_write"),
                "loader.pt_write_s": tracer.total("core.loader.pt_write"),
                "loader.readback_s": tracer.total("core.loader.readback"),
                "loader.vp_bytes": dir_size(str(self.path / "vp")),
                "loader.pt_bytes": dir_size(str(self.path / "pt")),
                "loader.pt_columns": len(store.property_table.columns) - 1,
                "loader.pt_multi_valued_columns": len(store.multi_valued),
                "loader.spark_tasks": self.load_jobs[1],
                "trace.overhead_pct": (traced_ms / plain_ms - 1) * 100,
            }
        )
        self.details["trace"] = {
            "untraced_pass_s": plain_ms / 1000,
            "traced_pass_s": traced_ms / 1000,
            "load_spark_jobs": self.load_jobs[0],
            "node_rows_s": node_rows_s,
            "self_time_s": self_times(tracer.spans),
            "spans": tracer.as_dicts(),
        }
        return layer
