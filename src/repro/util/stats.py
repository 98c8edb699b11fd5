"""Lightweight statistics helpers: online accumulators and per-second
time series.

These are used by the benchmark harness (RADOS bench instrumentation,
CPU utilization sampling) and by the DoCeph latency-breakdown
instrumentation that regenerates Table 3 / Figure 9.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["RunningStats", "TimeSeries", "percentile", "jain_fairness_index"]


def jain_fairness_index(values: list[float]) -> float:
    """Jain's fairness index: ``(Σx)² / (n · Σx²)``.

    1.0 when every tenant gets an equal share, → 1/n as one tenant
    hogs everything.  For QoS we feed *normalized* allocations (e.g.
    goodput / weight), so 1.0 means "fair per the configured shares".
    Empty or all-zero input returns 1.0 (nothing to be unfair about).
    """
    if not values:
        return 1.0
    total = sum(values)
    square_sum = sum(v * v for v in values)
    if square_sum <= 0.0:
        return 1.0
    return (total * total) / (len(values) * square_sum)


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear-interpolated percentile of an already-sorted list.

    ``p`` is in [0, 100].  Matches numpy's default ("linear") method so
    downstream tables agree with numpy-based analysis.
    """
    if not sorted_values:
        raise ValueError("percentile of empty data")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile must be in [0, 100], got {p}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = (p / 100.0) * (len(sorted_values) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return sorted_values[lo]
    frac = rank - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


class RunningStats:
    """Welford online mean/variance plus min/max and sum."""

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Accumulate one observation."""
        self.count += 1
        self.total += value
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> None:
        """Fold another accumulator into this one (parallel Welford)."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self.total = other.total
            self._mean = other._mean
            self._m2 = other._m2
            self.min = other.min
            self.max = other.max
            return
        n1, n2 = self.count, other.count
        delta = other._mean - self._mean
        total_n = n1 + n2
        self._m2 = self._m2 + other._m2 + delta * delta * n1 * n2 / total_n
        self._mean = (n1 * self._mean + n2 * other._mean) / total_n
        self.count = total_n
        self.total += other.total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def __repr__(self) -> str:
        return (
            f"<RunningStats n={self.count} mean={self.mean:.6g}"
            f" sd={self.stddev:.6g} min={self.min:.6g} max={self.max:.6g}>"
        )


@dataclass
class TimeSeries:
    """Per-interval accumulation of a metric (e.g. per-second IOPS).

    ``interval`` is the bucket width in simulated seconds.  Values added
    at time ``t`` accumulate into bucket ``floor(t / interval)``.
    """

    interval: float = 1.0
    _buckets: dict[int, RunningStats] = field(default_factory=dict)

    def add(self, t: float, value: float) -> None:
        idx = int(t // self.interval)
        bucket = self._buckets.get(idx)
        if bucket is None:
            bucket = self._buckets[idx] = RunningStats()
        bucket.add(value)

    def buckets(self) -> list[tuple[float, RunningStats]]:
        """(bucket start time, accumulator) pairs in time order."""
        return [
            (idx * self.interval, self._buckets[idx])
            for idx in sorted(self._buckets)
        ]

    def counts(self) -> list[tuple[float, int]]:
        return [(t, s.count) for t, s in self.buckets()]
