"""Statistics over a run's samples: percentiles, the one latency
summary every report of a run is cut from, and Jain's fairness index."""

from __future__ import annotations

import math
from typing import Sequence

__all__ = ["jain_fairness_index", "latency_summary", "percentile"]


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


def latency_summary(samples: Sequence[float]) -> dict[str, float]:
    """Mean, p50, p90, p99 and max of per-op latencies, all 0.0 when
    there are none.  The samples are the only per-op latency record a
    run keeps; this sorts a copy once.  The mean is ``math.fsum`` over
    them, so it does not depend on their order."""
    if not samples:
        return dict.fromkeys(("mean", "p50", "p90", "p99", "max"), 0.0)
    ordered = sorted(samples)
    return {
        "mean": math.fsum(ordered) / len(ordered),
        "p50": percentile(ordered, 50),
        "p90": percentile(ordered, 90),
        "p99": percentile(ordered, 99),
        "max": ordered[-1],
    }
