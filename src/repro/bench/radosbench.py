"""RADOS bench: the paper's workload generator (§5.1).

Closed-loop pattern: ``clients`` concurrent I/O contexts each keep one
request outstanding for ``duration`` seconds after a warm-up.
:func:`run_rados_bench` is the paper's workload (uniquely-named writes
of ``object_size`` bytes); :func:`run_read_bench` reads back a
prepopulated object set.  Latency is the end-to-end client-observed
response time, kept as one sample per measured op; IOPS is completed
ops per second.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Optional

from ..cluster.builder import BENCH_POOL, Cluster
from ..core.proxy_objectstore import BreakdownView, ProxyObjectStore
from .metrics import (
    CpuSampler,
    CpuWindow,
    FaultReport,
    HealthReport,
    collect_fault_report,
    collect_health_report,
)

__all__ = ["BenchResult", "run_rados_bench", "run_read_bench"]


@dataclass
class BenchResult:
    """Everything one benchmark run produced."""

    object_size: int
    clients: int
    duration: float
    iops: float
    throughput_bytes: float
    #: End-to-end latency of each op completed in the window: the run's
    #: one latency record (``repro.util.stats.latency_summary``).
    latencies: list[float]
    #: One window per storage node, for the complex the Ceph daemons run
    #: on (host in Baseline, DPU in DoCeph).
    ceph_cpu: list[CpuWindow] = field(default_factory=list)
    #: One window per storage node's *host* complex (Fig. 7's metric).
    host_cpu: list[CpuWindow] = field(default_factory=list)
    #: DoCeph only: per-write latency breakdowns (Table 3), a view of the
    #: proxies' logs as the run left them.
    breakdowns: BreakdownView = field(default_factory=BreakdownView)
    #: Cumulative fault/recovery counters at the end of the run.
    faults: Optional[FaultReport] = None
    #: Cluster-health counters (daemon lifecycle, monitor activity,
    #: client resends/timeouts, partition drops) at the end of the run.
    health: Optional[HealthReport] = None
    #: Trace report when a :class:`~repro.trace.Tracer` was attached at
    #: build time (None otherwise); window = the measurement window.
    trace: Optional[Any] = None

    @property
    def completed_ops(self) -> int:
        return len(self.latencies)

    @property
    def avg_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return math.fsum(self.latencies) / len(self.latencies)

    @property
    def host_utilization_pct(self) -> float:
        """Average host CPU % across storage nodes (Fig. 7)."""
        if not self.host_cpu:
            return 0.0
        return sum(w.utilization_pct for w in self.host_cpu) / len(self.host_cpu)

    @property
    def ceph_cpu_window(self) -> CpuWindow:
        """Merged per-node window for the Ceph complexes (Fig. 5)."""
        return CpuWindow.merge(self.ceph_cpu)


def _closed_loop(
    cluster: Cluster,
    object_size: int,
    clients: int,
    duration: float,
    warmup: float,
    issue: Callable[[int, int], Generator[Any, Any, Any]],
    prepopulate: list[str],
    label: str,
) -> BenchResult:
    """Boot the cluster (if needed), write the ``prepopulate`` objects,
    then keep ``clients`` contexts each with one op outstanding until
    the window closes.  ``issue(idx, n)`` is the ``n``-th op of context
    ``idx``; ``label`` prefixes the process names.

    The simulation runs until every in-flight request issued inside the
    measurement window completes, so latency tails are never truncated.
    """
    env = cluster.env
    client = cluster.client
    assert client is not None

    if client.osdmap is None:
        boot = env.process(cluster.boot(), name="cluster-boot")
        env.run(until=boot)

    if prepopulate:
        def prep() -> Generator[Any, Any, None]:
            for name in prepopulate:
                yield from client.write_object(BENCH_POOL, name, object_size)

        env.run(until=env.process(prep(), name=f"{label}-prepopulate"))

    # reset any breakdown history from earlier runs
    for osd in cluster.osds:
        if isinstance(osd.store, ProxyObjectStore):
            osd.store.reset_breakdowns()

    t_open = env.now + warmup
    t_close = t_open + duration
    latencies: list[float] = []

    def io_context(idx: int) -> Generator[Any, Any, None]:
        n = 0
        while env.now < t_close:
            issued = env.now
            result = yield from issue(idx, n)
            n += 1
            if issued >= t_open:
                latencies.append(result.latency)

    sampler_hosts = CpuSampler(env, cluster.host_cpus())
    sampler_ceph = CpuSampler(env, cluster.ceph_cpus())

    def measured_run() -> Generator[Any, Any, None]:
        yield env.timeout(t_open - env.now)
        sampler_hosts.start()
        sampler_ceph.start()

    env.process(measured_run(), name="bench-window")
    workers = [
        env.process(io_context(i), name=f"{label}-client-{i}")
        for i in range(clients)
    ]
    for w in workers:
        env.run(until=w)

    host_windows = sampler_hosts.stop()
    ceph_windows = sampler_ceph.stop()

    breakdowns = BreakdownView(
        osd.store.breakdowns for osd in cluster.osds
        if isinstance(osd.store, ProxyObjectStore)
    )

    tracer = getattr(cluster, "tracer", None)
    trace = (tracer.report(window=(t_open, env.now))
             if tracer is not None else None)
    measured = max(env.now - t_open, 1e-9)
    return BenchResult(
        object_size=object_size,
        clients=clients,
        duration=duration,
        iops=len(latencies) / measured,
        throughput_bytes=len(latencies) * object_size / measured,
        latencies=latencies,
        ceph_cpu=ceph_windows,
        host_cpu=host_windows,
        breakdowns=breakdowns,
        faults=collect_fault_report(cluster),
        health=collect_health_report(cluster),
        trace=trace,
    )


def run_rados_bench(
    cluster: Cluster,
    object_size: int,
    clients: int = 16,
    duration: float = 30.0,
    warmup: float = 3.0,
) -> BenchResult:
    """Boot the cluster (if needed) and run one write bench: each
    context writes uniquely-named objects of ``object_size`` bytes."""
    client = cluster.client
    assert client is not None

    def write(idx: int, n: int) -> Generator[Any, Any, Any]:
        return client.write_object(BENCH_POOL, f"bench_{idx}_{n}", object_size)

    return _closed_loop(cluster, object_size, clients, duration, warmup,
                        write, [], "bench")


def run_read_bench(
    cluster: Cluster,
    object_size: int,
    clients: int = 16,
    duration: float = 20.0,
    warmup: float = 2.0,
    prepopulate: int = 64,
) -> BenchResult:
    """Read benchmark (the §5.5 'future work' path, implemented):
    prepopulates objects with writes, then measures a read-only phase
    in which the contexts stride through the objects together."""
    client = cluster.client
    assert client is not None

    def read(idx: int, n: int) -> Generator[Any, Any, Any]:
        return client.read_object(
            BENCH_POOL, f"readbench_{(idx + n * clients) % prepopulate}",
            object_size,
        )

    return _closed_loop(
        cluster, object_size, clients, duration, warmup, read,
        [f"readbench_{i}" for i in range(prepopulate)], "read",
    )
