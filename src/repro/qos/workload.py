"""Deterministic open-loop workload generation, one process per tenant.

Closed-loop bench clients (``radosbench``) wait for each op before
issuing the next, so offered load collapses to match capacity and
overload never materializes.  Here each tenant is an *open-loop*
arrival process: inter-arrival gaps are drawn from the tenant's own
seeded RNG stream and every arrival spawns an independent op process,
whether or not earlier ops finished.

Determinism rules
-----------------

* Every random draw (gap, batch, op kind, size, read target) happens
  *inside the sequential arrival loop*, never inside the spawned op
  process — so the draw order is a pure function of the tenant's
  stream and cannot depend on how the simulator interleaves op
  completion.
* Each tenant owns ``SeededRng(seed).child("qos").child(name)``;
  adding/removing a tenant never shifts another tenant's sequence.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..cluster.builder import BENCH_POOL
from ..rados.client import RadosClient, RadosError
from ..trace import QOS_CATEGORY

__all__ = ["TenantStats", "open_loop_tenant", "tenant_rng"]

#: ``RadosError.result`` for an admission-shed op (EAGAIN).
EAGAIN = -11


def tenant_rng(seed: int, name: str) -> random.Random:
    """The arrival stream for one tenant — derived from (seed, tenant
    name) only, so tenant sets compose without draw interference."""
    from ..util.rng import SeededRng

    return SeededRng(seed).child("qos").child(name).stream("arrivals")


@dataclass(slots=True)
class TenantStats:
    """Everything one tenant's workload observed during a run."""

    name: str
    #: Arrivals generated (open-loop offered load).
    offered: int = 0
    #: Ops that finished successfully.
    completed: int = 0
    #: Ops shed at the admission window (``-EAGAIN``).
    shed: int = 0
    #: Ops that failed for any other reason.
    failed: int = 0
    #: Ops that finished only after the measurement window closed
    #: (drained, not counted toward goodput/latency — an open-loop
    #: window measures completions *inside* it).
    completed_late: int = 0
    #: Payload bytes of completed ops.
    bytes_done: int = 0
    latencies: list[float] = field(default_factory=list)

    @property
    def admitted(self) -> int:
        """Arrivals that passed the admission window."""
        return self.offered - self.shed


def open_loop_tenant(
    env: Any,
    client: RadosClient,
    spec: Any,
    stats: TenantStats,
    rng: random.Random,
    t_close: float,
    prepopulate: int,
    pending: dict[Any, None],
    tracer: Optional[Any] = None,
) -> Generator[Any, Any, None]:
    """Generate ``spec``'s arrivals until ``t_close``.

    Each spawned op process is a key of ``pending`` while it is in
    flight, in issue order, so the runner can drain in-flight work after
    the arrival window closes.  The process leaves ``pending`` when its
    completion is dispatched, through a callback that schedules nothing:
    a finished op keeps no process and no name alive.
    """
    seq = 0
    n_sizes = len(spec.sizes)
    finished = pending.pop
    while True:
        if spec.arrival == "poisson":
            batch = 1
            gap = rng.expovariate(spec.rate)
        else:
            # Same mean rate, delivered in bursts: the batch gap is the
            # exponential gap of a rate/burst process.
            batch = spec.burst
            gap = rng.expovariate(spec.rate / spec.burst)
        yield env.timeout(gap)
        if env.now >= t_close:
            return
        for _ in range(batch):
            size = (spec.sizes[0] if n_sizes == 1
                    else spec.sizes[rng.randrange(n_sizes)])
            is_read = (spec.read_ratio > 0.0
                       and rng.random() < spec.read_ratio)
            read_idx = rng.randrange(prepopulate) if is_read else 0
            stats.offered += 1
            proc = env.process(
                _one_op(env, client, spec.name, stats,
                        f"qos_{spec.name}_{seq}", size, is_read, read_idx,
                        t_close, tracer),
                name=f"qos-{spec.name}-{seq}",
            )
            pending[proc] = None
            proc.callbacks.append(finished)
            seq += 1


def _one_op(
    env: Any,
    client: RadosClient,
    tenant: str,
    stats: TenantStats,
    oid: str,
    size: int,
    is_read: bool,
    read_idx: int,
    t_close: float,
    tracer: Optional[Any],
) -> Generator[Any, Any, None]:
    """One independent tenant op: issue, record, classify failure."""
    try:
        if is_read:
            result = yield from client.read_object(
                BENCH_POOL, f"qos_pre_{read_idx}", size, tenant=tenant
            )
        else:
            result = yield from client.write_object(
                BENCH_POOL, oid, size, tenant=tenant
            )
    except RadosError as exc:
        if exc.result == EAGAIN:
            stats.shed += 1
            if tracer is not None:
                span = tracer.start_span(
                    "qos.shed", env.now, node="client", cpu="client",
                    category=QOS_CATEGORY, thread_name="admission",
                )
                span.tag("tenant", tenant)
                span.error(env.now, "admission-window-full")
        else:
            stats.failed += 1
        return
    if env.now > t_close:
        stats.completed_late += 1
        return
    stats.completed += 1
    stats.bytes_done += size
    stats.latencies.append(result.latency)
