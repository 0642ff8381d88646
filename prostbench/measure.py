"""Statistics of one benchmark run: medians, the tail rule, group means,
failure counting and run-to-run spread.

Pure Python, no Spark, so the rules are unit-tested on their own.
"""
from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

#: percentiles a run may report, lowest first
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: a percentile is reported only with this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least
    :data:`MIN_SAMPLES_BEYOND` of *n* samples beyond it, or ``None``
    when even the median lacks them (fewer than 20 samples)."""
    best = None
    for p in PERCENTILE_LADDER:
        # rounded: 100 - 99.9 is not exactly 0.1 in binary floating point
        if round(n * (100.0 - p) / 100.0, 9) >= MIN_SAMPLES_BEYOND:
            best = p
    return best


def per_query_medians(samples: Mapping[str, Sequence[float]]) -> dict[str, float]:
    """Median over the measured passes of each query that has samples."""
    return {q: statistics.median(xs) for q, xs in samples.items() if xs}


def group_means(
    medians: Mapping[str, float], groups: Mapping[str, Iterable[str]]
) -> dict[str, float]:
    """Table 2's group time: the mean of the group's per-query medians.

    A group with a query that has no successful sample has no value.
    """
    out = {}
    for g, names in groups.items():
        names = list(names)
        if all(q in medians for q in names):
            out[g] = statistics.fmean(medians[q] for q in names)
    return out


@dataclass
class Tally:
    """Operations attempted and failed; a failed one has no timing."""

    attempted: int = 0
    failed: int = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
        return ok

    @property
    def success_ratio(self) -> float:
        if self.attempted == 0:
            raise ValueError("no operation attempted")
        return (self.attempted - self.failed) / self.attempted


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median: the run-to-run
    spread the acceptance rule compares with a metric's bound."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
