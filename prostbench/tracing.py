"""Spans and Spark counters for the traced run.

Spans are recorded from the benchmark's side of each call into a
layer; nothing in ``src/`` is instrumented. They are kept in memory and
written out with the run's details at the end.
"""
from __future__ import annotations

import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    qid: str | None  # query (or load) the span belongs to


class Tracer:
    """Records nested spans from one thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, qid: str | None = None) -> Iterator[None]:
        parent = self._open[-1] if self._open else None
        if qid is None and parent is not None:
            qid = self.spans[parent].qid
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, qid))
        self._open.append(idx)
        try:
            yield
        finally:
            self.spans[idx].end = time.perf_counter()
            self._open.pop()

    def total(self, name: str, qids: set[str] | None = None) -> float:
        """Summed seconds of the spans called *name* (of *qids* only)."""
        return sum(
            s.end - s.start
            for s in self.spans
            if s.name == name and (qids is None or s.qid in qids)
        )

    def as_dicts(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name not covered by the span's children.

    Children of one span never overlap (spans nest from one thread),
    so the covered part is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - covered[i]
    return dict(out)


class JobCounter:
    """Spark jobs and completed tasks per job group, read through
    ``SparkContext.statusTracker()``."""

    def __init__(self, sc) -> None:
        self.sc = sc
        self._bus = sc._jsc.sc().listenerBus()

    def start(self, group: str) -> None:
        self.sc.setJobGroup(group, group)

    def count(self, group: str) -> tuple[int, int]:
        """(jobs, completed tasks) of *group*, once the listener bus has
        delivered every event of the jobs that already ran."""
        self._bus.waitUntilEmpty()
        tracker = self.sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        tasks = 0
        for jid in jobs:
            info = tracker.getJobInfo(jid)
            for sid in info.stageIds if info else ():
                stage = tracker.getStageInfo(sid)
                tasks += stage.numCompletedTasks if stage else 0
        return len(jobs), tasks


@contextmanager
def traced_load_calls(tracer: Tracer) -> Iterator[None]:
    """Time the public calls ``ProstStore.load`` makes: the statistics
    pass, the two Parquet writes (named by their directory) and the
    read-backs."""
    from pyspark.sql.readwriter import DataFrameReader, DataFrameWriter

    from repro.core.stats import GraphStats

    compute = GraphStats.__dict__["compute"]
    write = DataFrameWriter.parquet
    read = DataFrameReader.parquet

    def traced_compute(cls, triples):
        with tracer.span("core.stats"):
            return compute.__func__(cls, triples)

    def traced_write(self, path, *args, **kwargs):
        with tracer.span(f"core.loader.{os.path.basename(path)}_write"):
            return write(self, path, *args, **kwargs)

    def traced_read(self, *paths, **kwargs):
        with tracer.span("core.loader.readback"):
            return read(self, *paths, **kwargs)

    GraphStats.compute = classmethod(traced_compute)
    DataFrameWriter.parquet = traced_write
    DataFrameReader.parquet = traced_read
    try:
        yield
    finally:
        GraphStats.compute = compute
        DataFrameWriter.parquet = write
        DataFrameReader.parquet = read
