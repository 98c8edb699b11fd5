"""OpTracker: per-operation stage tracing (Ceph's ``dump_historic_ops``).

Ceph's OSD tracks every in-flight operation through named stages
("initiated", "queued_for_pg", "reached_pg", "sub_op_committed", …) and
keeps a ring of recently completed ops for ``ceph daemon osd.N
dump_historic_ops``.  This module reproduces that facility for the
simulated OSD: when enabled, the daemon marks stage transitions with
simulated timestamps, and tests/examples can read exact per-stage
latency for any request — the microscopic view behind Table 3's
macroscopic averages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["OpTracker", "TrackedOp"]


@dataclass(slots=True)
class TrackedOp:
    """One operation's stage history."""

    op_id: int
    description: str
    initiated_at: float
    events: list[tuple[float, str]] = field(default_factory=list)
    completed_at: Optional[float] = None

    def mark(self, t: float, stage: str) -> None:
        self.events.append((t, stage))

    @property
    def duration(self) -> Optional[float]:
        if self.completed_at is None:
            return None
        return self.completed_at - self.initiated_at

    def stage_durations(
        self, now: Optional[float] = None
    ) -> list[tuple[str, float]]:
        """(stage, time spent until the next stage) pairs.

        For a completed op the final stage ends at ``completed_at``.
        For an op still in flight the final stage is ongoing: pass
        ``now`` to report its elapsed time so far (without it the last
        mark itself is the best available end, i.e. zero elapsed)."""
        if not self.events:
            return []
        out = []
        times = [t for t, _ in self.events]
        names = [s for _, s in self.events]
        if self.completed_at is not None:
            last_end = self.completed_at
        elif now is not None:
            last_end = max(now, times[-1])
        else:
            last_end = times[-1]
        ends = times[1:] + [last_end]
        for name, start, end in zip(names, times, ends):
            out.append((name, end - start))
        return out

    def stage_time(self, stage: str, now: Optional[float] = None) -> float:
        """Total time attributed to one (possibly repeated) stage."""
        return sum(d for s, d in self.stage_durations(now) if s == stage)


class OpTracker:
    """Bounded registry of in-flight and recently completed ops."""

    __slots__ = (
        "history_size",
        "_next_id",
        "in_flight",
        "historic",
        "ops_tracked",
    )

    def __init__(self, history_size: int = 256) -> None:
        if history_size < 1:
            raise ValueError("history_size must be >= 1")
        self.history_size = history_size
        self._next_id = 0
        self.in_flight: dict[int, TrackedOp] = {}
        self.historic: list[TrackedOp] = []

        # statistics
        self.ops_tracked = 0

    def create(self, description: str, now: float) -> TrackedOp:
        """Register a new op (marks the 'initiated' stage)."""
        self._next_id += 1
        op = TrackedOp(self._next_id, description, now)
        op.mark(now, "initiated")
        self.in_flight[op.op_id] = op
        self.ops_tracked += 1
        return op

    def complete(self, op: TrackedOp, now: float) -> None:
        """Move an op to the historic ring."""
        op.completed_at = now
        self.in_flight.pop(op.op_id, None)
        self.historic.append(op)
        if len(self.historic) > self.history_size:
            self.historic.pop(0)

    # -- queries (the 'admin socket' surface) ------------------------------
    def dump_historic(self, count: Optional[int] = None) -> list[TrackedOp]:
        """Most recent completed ops, newest last."""
        if count is None:
            return list(self.historic)
        return self.historic[-count:]

    def __repr__(self) -> str:
        return (
            f"<OpTracker in_flight={len(self.in_flight)}"
            f" historic={len(self.historic)}>"
        )
