"""Prioritized OSD operation queue (Ceph's WPQ discipline + mClock tenants).

Ceph schedules work items (client ops, sub-ops, recovery pushes)
through a weighted priority queue: *strict*-priority items always go
first; everything else is dequeued with probability proportional to its
priority, so background recovery can never starve client I/O and vice
versa.

This is a faithful reimplementation of the WPQ semantics on top of the
simulation kernel's event machinery: ``enqueue``/``dequeue`` are event
based so OSD worker threads simply ``yield queue.dequeue()``.

Priority classes follow Ceph's conventions:

* ``CLIENT_OP``   (63)  — client I/O
* ``SUB_OP``      (127) — replication sub-operations (strict band)
* ``RECOVERY_OP`` (5)   — background recovery/backfill

Multi-tenant QoS (``repro.qos``) adds an mClock/dmClock band: ops
enqueued with a ``tenant`` tag carry per-tenant reservation/limit/
proportional tags and are dequeued tag-ordered instead of FIFO.  The
tagged band joins the weighted-fair pick as one pseudo-class at
``CLIENT_OP`` priority **only when it has eligible backlog**, so runs
that never tag an op make byte-identical RNG draws and keep their
golden digests; replication stays in the strict band above everything.

mClock semantics (Gulati et al., OSDI'10; Ceph's dmclock):

* arrival of tenant *t* stamps ``R = max(now, prev_R + 1/reservation)``,
  ``L = max(now, prev_L + 1/limit)`` (``now`` when unlimited) and
  ``P = max(now, prev_P + 1/weight)``;
* dequeue serves the *reservation phase* first — the smallest R tag
  among heads with ``R <= now`` — so every tenant gets its reserved
  ops/sec floor even under saturation;
* otherwise the *weight phase* serves the smallest P tag among heads
  whose ``L <= now`` (the limit gate caps bursty tenants), and the
  served tenant's remaining R tags shift down by ``1/reservation`` so
  reservation counts *total* service, not just reservation-phase
  service;
* when backlog exists but every head is reservation/limit-blocked the
  queue arms a deterministic timer for the earliest tag time
  (``limit_deferrals`` counts these stalls).
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any, Optional

from ..sim import Environment, Event
from ..util.rng import SeededRng

__all__ = ["WeightedPriorityQueue", "QosSpec",
           "CLIENT_OP", "SUB_OP", "RECOVERY_OP", "STRICT_THRESHOLD"]

CLIENT_OP = 63
SUB_OP = 127
RECOVERY_OP = 5

#: Priorities at or above this are strict (always dequeued first);
#: mirrors Ceph's osd_client_op_priority cutoff behaviour.
STRICT_THRESHOLD = 64

_INF = float("inf")


@dataclass(frozen=True, slots=True)
class QosSpec:
    """mClock share for one tenant (all rates in ops/sec).

    ``reservation`` is the guaranteed floor (0 = none), ``weight`` the
    proportional share of spare capacity, ``limit`` the hard ceiling
    (0 = unlimited).  A finite limit must be able to carry the
    reservation.
    """

    reservation: float = 0.0
    weight: float = 1.0
    limit: float = 0.0

    def __post_init__(self) -> None:
        if self.reservation < 0:
            raise ValueError(f"negative reservation: {self.reservation}")
        if self.weight <= 0:
            raise ValueError(f"non-positive weight: {self.weight}")
        if self.limit < 0:
            raise ValueError(f"negative limit: {self.limit}")
        if self.limit and self.limit < self.reservation:
            raise ValueError(
                f"limit {self.limit} below reservation {self.reservation}"
            )


class _MClockTenant:
    """Per-tenant mClock state: spec, tag clocks and FIFO of tagged ops.

    Queue entries are mutable lists ``[r_tag, l_tag, p_tag, seq,
    payload]`` because weight-phase service shifts the tenant's
    remaining R tags down in place.
    """

    __slots__ = ("spec", "queue", "prev_r", "prev_l", "prev_p", "enqueued")

    def __init__(self, spec: QosSpec) -> None:
        self.spec = spec
        self.queue: deque[list] = deque()
        self.prev_r = -_INF
        self.prev_l = -_INF
        self.prev_p = -_INF
        self.enqueued = 0


class WeightedPriorityQueue:
    """WPQ: strict band + weighted-fair band (+ optional mClock band).

    Items with priority ≥ :data:`STRICT_THRESHOLD` are served in strict
    priority/FIFO order before anything else: the strict band is a heap
    of ``(-priority, seq, payload)`` tuples (``seq`` is unique, so two
    payloads are never compared).  Items below the threshold are served
    weighted-fair from one payload FIFO per priority: each dequeue picks
    a priority class with probability proportional to (priority ×
    backlog-present), using a deterministic seeded RNG so simulations
    stay reproducible.
    Tenant-tagged items form one extra pseudo-class at ``CLIENT_OP``
    priority, internally ordered by mClock tags (see module docstring).
    """

    __slots__ = (
        "env",
        "_seq",
        "_strict",
        "_weighted",
        "_waiters",
        "_rng",
        "_depth",
        "_tenants",
        "_tagged_depth",
        "_timer_armed",
        "_timer_deadline",
        "_timer_version",
        "enqueued",
        "dequeued",
        "max_depth",
        "tagged_enqueued",
        "reservation_served",
        "weight_served",
        "limit_deferrals",
    )

    def __init__(self, env: Environment, seed: int = 0) -> None:
        self.env = env
        self._seq = 0
        self._strict: list[tuple[int, int, Any]] = []  # heap
        self._weighted: dict[int, deque[Any]] = {}  # prio -> payload FIFO
        self._waiters: deque[Event] = deque()
        self._rng = SeededRng(seed).stream("wpq")
        self._depth = 0
        self._tenants: dict[str, _MClockTenant] = {}
        self._tagged_depth = 0
        self._timer_armed = False
        self._timer_deadline = 0.0
        self._timer_version = 0

        # statistics
        self.enqueued = 0
        self.dequeued = 0
        self.max_depth = 0
        self.tagged_enqueued = 0
        self.reservation_served = 0
        self.weight_served = 0
        self.limit_deferrals = 0

    def __len__(self) -> int:
        return self._depth

    # ------------------------------------------------------------- tenants
    def set_tenant(self, name: str, spec: QosSpec) -> None:
        """Install (or update) the mClock spec for ``name``."""
        tenant = self._tenants.get(name)
        if tenant is None:
            self._tenants[name] = _MClockTenant(spec)
        else:
            tenant.spec = spec

    def enqueue(self, payload: Any, priority: int = CLIENT_OP,
                tenant: Optional[str] = None) -> None:
        """Add a work item (non-blocking; queue is unbounded).

        ``tenant`` routes the item to the mClock band; ``None`` (the
        default) keeps the classic WPQ path untouched.
        """
        if priority < 0:
            raise ValueError(f"negative priority: {priority}")
        self._seq += 1
        if tenant is not None:
            self._enqueue_tagged(tenant, payload)
        elif priority >= STRICT_THRESHOLD:
            heapq.heappush(self._strict, (-priority, self._seq, payload))
        else:
            q = self._weighted.get(priority)
            if q is None:
                q = self._weighted[priority] = deque()
            q.append(payload)
        self.enqueued += 1
        self._depth += 1
        if self._depth > self.max_depth:
            self.max_depth = self._depth
        if self._waiters:
            if self._servable():
                waiter = self._waiters.popleft()
                waiter.succeed(self._pop())
            elif self._tagged_depth:
                self.limit_deferrals += 1
                self._arm_timer()

    def dequeue(self) -> Event:
        """Event yielding the next work item's payload."""
        ev = self.env.event()
        if self._servable():
            ev.succeed(self._pop())
        else:
            self._waiters.append(ev)
            if self._tagged_depth:
                self.limit_deferrals += 1
                self._arm_timer()
        return ev

    # ---------------------------------------------------------------- internals
    def _enqueue_tagged(self, tenant: str, payload: Any) -> None:
        t = self._tenants.get(tenant)
        if t is None:
            t = self._tenants[tenant] = _MClockTenant(QosSpec())
        now = self.env.now
        spec = t.spec
        if spec.reservation:
            r_tag = max(now, t.prev_r + 1.0 / spec.reservation)
            t.prev_r = r_tag
        else:
            r_tag = _INF
        if spec.limit:
            l_tag = max(now, t.prev_l + 1.0 / spec.limit)
            t.prev_l = l_tag
        else:
            l_tag = now
        p_tag = max(now, t.prev_p + 1.0 / spec.weight)
        t.prev_p = p_tag
        t.queue.append([r_tag, l_tag, p_tag, self._seq, payload])
        t.enqueued += 1
        self._tagged_depth += 1
        self.tagged_enqueued += 1

    def _servable(self) -> bool:
        """True when the next ``_pop`` can legally serve something."""
        if self._depth - self._tagged_depth:
            return True
        return bool(self._tagged_depth) and self._tagged_ready(self.env.now)

    def _tagged_ready(self, now: float) -> bool:
        # The limit tag gates BOTH phases (a hard cap on total service,
        # the semantics operators expect), so a head is eligible iff
        # L <= now; unlimited tenants stamp L = enqueue-time now, which
        # is always eligible.
        for t in self._tenants.values():
            if t.queue and t.queue[0][1] <= now:
                return True
        return False

    def _next_tag_time(self) -> float:
        """Earliest time any blocked tagged head becomes eligible."""
        t_min = _INF
        for t in self._tenants.values():
            if t.queue:
                edge = t.queue[0][1]
                if edge < t_min:
                    t_min = edge
        return t_min

    def _arm_timer(self) -> None:
        now = self.env.now
        deadline = self._next_tag_time()
        if deadline == _INF:
            return
        if deadline < now:
            deadline = now
        if self._timer_armed and self._timer_deadline <= deadline:
            return
        self._timer_armed = True
        self._timer_deadline = deadline
        self._timer_version += 1
        self.env.process(self._timer_body(self._timer_version,
                                          deadline - now))

    def _timer_body(self, version: int, delay: float):
        yield self.env.timeout(delay)
        if version != self._timer_version:
            return
        self._timer_armed = False
        while self._waiters and self._servable():
            waiter = self._waiters.popleft()
            waiter.succeed(self._pop())
        if self._waiters and self._tagged_depth:
            self._arm_timer()

    def _pop(self) -> Any:
        self.dequeued += 1
        self._depth -= 1
        if self._strict:
            return heapq.heappop(self._strict)[2]
        # weighted-fair pick among backlogged priorities; the tagged
        # band joins as a pseudo-class (queue sentinel None) only when
        # it has an eligible head, so untagged runs draw identically.
        classes = [(p, q) for p, q in self._weighted.items() if q]
        now = self.env.now
        if self._tagged_depth and self._tagged_ready(now):
            classes.append((CLIENT_OP, None))
        assert classes, "pop from empty queue"
        if len(classes) == 1:
            prio, q = classes[0]
        else:
            total = sum(p for p, _ in classes)
            pick = self._rng.uniform(0, total)
            acc = 0.0
            prio, q = classes[-1]
            for p, queue in sorted(classes, key=lambda c: c[0]):
                acc += p
                if pick <= acc:
                    prio, q = p, queue
                    break
        if q is None:
            return self._pop_tagged(now)
        payload = q.popleft()
        if not q:
            del self._weighted[prio]
        return payload

    def _pop_tagged(self, now: float) -> Any:
        self._tagged_depth -= 1
        # reservation phase: smallest (R, seq) among heads with R <= now.
        # The L gate applies here too — classic mClock serves
        # reservations regardless of limit, which lets a backlogged
        # tenant sustain reservation+limit total; gating both phases
        # makes ``limit`` a true ceiling, and costs no reservation
        # because QosSpec enforces limit >= reservation.
        best: Optional[_MClockTenant] = None
        best_key = (0.0, 0)
        for t in self._tenants.values():
            if not t.queue:
                continue
            head = t.queue[0]
            if head[0] <= now and head[1] <= now:
                key = (head[0], head[3])
                if best is None or key < best_key:
                    best, best_key = t, key
        if best is not None:
            entry = best.queue.popleft()
            self.reservation_served += 1
            return entry[4]
        # weight phase: smallest (P, seq) among limit-eligible heads
        for t in self._tenants.values():
            if not t.queue:
                continue
            head = t.queue[0]
            if head[1] <= now:
                key = (head[2], head[3])
                if best is None or key < best_key:
                    best, best_key = t, key
        assert best is not None, "tagged pop with no eligible head"
        entry = best.queue.popleft()
        self.weight_served += 1
        spec = best.spec
        if spec.reservation:
            # mClock tag adjustment: weight-phase service also counts
            # toward the reservation, so shift remaining R tags down.
            delta = 1.0 / spec.reservation
            for e in best.queue:
                e[0] -= delta
            best.prev_r -= delta
        return entry[4]

    def __repr__(self) -> str:
        return (
            f"<WeightedPriorityQueue depth={len(self)} "
            f"strict={len(self._strict)} tagged={self._tagged_depth}>"
        )
