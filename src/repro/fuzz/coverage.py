"""The coverage map: which behaviors the fuzzer has already seen.

Coverage keys are signals the simulation already emits — no extra
instrumentation is added for fuzzing:

* ``span.<category>`` — a trace span of that category was recorded
  (client/msgr/osd/objectstore/dma/rpc/...), plus the synthetic
  ``span.error`` / ``span.retry`` for error status and retry links;
* ``fault.<layer>.<kind>`` — the fault plan actually injected that
  fault at least once (a spec that never fires covers nothing);
* ``chaos.<kind>`` — a chaos incident of that kind ran
  (crash/restart/partition/heal), plus ``chaos.settle_timeout``;
* ``mode.<mode>``, ``client.op_failed``, ``abort.<reason>`` — run-level
  outcomes.

The map counts how often each key has been hit; rarity (``1/count``)
weights parent selection so mutation is biased toward scenarios that
exercised behaviors few other scenarios reached.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["CoverageMap"]


class CoverageMap:
    """Hit counts per coverage key, with rarity weighting."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {}

    def add(self, keys: Iterable[str]) -> list[str]:
        """Record one execution's keys; returns the keys seen for the
        first time (sorted — discovery order must not leak set order)."""
        new: list[str] = []
        for key in sorted(set(keys)):
            seen = self.counts.get(key, 0)
            if seen == 0:
                new.append(key)
            self.counts[key] = seen + 1
        return new

    def __contains__(self, key: str) -> bool:
        return key in self.counts

    def __len__(self) -> int:
        return len(self.counts)

    def rarity(self, keys: Iterable[str]) -> float:
        """Sum of ``1/count`` over ``keys`` — higher means the scenario
        touched behaviors few executions have reached."""
        total = 0.0
        for key in keys:
            count = self.counts.get(key, 0)
            if count:
                total += 1.0 / count
        return total

    def as_dict(self) -> dict[str, int]:
        return dict(sorted(self.counts.items()))

    def __repr__(self) -> str:
        return f"<CoverageMap {len(self.counts)} keys>"
