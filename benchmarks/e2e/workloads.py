"""The four replay workloads and the one function that replays them.

Every workload is driven through the simulator's public entry points
only (cluster builders / ``get_strategy().build``, ``cluster.boot``,
``run_rados_bench``, ``run_qos``, ``FaultPlan.parse``); nothing under
``src/`` is edited or monkeypatched here.  A replay is a fresh
``Environment`` each time, so N replays in one process are N
independent, identical simulations.

Why these four (see README.md for the full interaction map):

* ``w4m_baseline`` and ``w4m_doceph`` are the paper's two testbeds at
  its headline request size; one never enters ``repro.core``, the other
  lives in it, so each is the bypass workload for the other's layers.
* ``w4m_fallback`` runs the same ``core`` layer down its other path
  (kernel-socket bulk RPC, probes, retries).
* ``mix64k_qos`` is open loop, small ops, reads beside writes: per-op
  cost dominates where the 4 MB workloads are per-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional, Sequence

from repro.bench.radosbench import BenchResult, run_rados_bench
from repro.cluster.builder import (
    Cluster,
    build_baseline_cluster,
    build_doceph_cluster,
)
from repro.cluster.config import DocephProfile, HardwareProfile
from repro.cluster.strategy import get_strategy
from repro.faults import FaultPlan
from repro.osd.opqueue import QosSpec
from repro.qos.runner import QosResult, run_qos
from repro.qos.tenants import TenantSpec
from repro.qos.workload import TenantStats, tenant_rng
from repro.sim import Environment
from repro.trace import simulation_digest
from repro.util.wallclock import perf_counter

from spans import SpanLog

KB = 1 << 10
MB = 1 << 20

#: Replay length used by the set-up warm-ups, the cProfile pass and
#: ``--quick``: long enough to reach steady state, short enough to be
#: cheap next to a measured replay.
SHORT_SIM_S = 2.0

#: The open-loop workload's offered rate per tenant.  4 x 80 = 320 ops/s
#: is ~60 % of the ~540 ops/s the seed code sustains at saturation with
#: this tenant set (measured by offering 4 x 1000 ops/s), so queues form
#: in bursts but no backlog grows.
QOS_RATE = 80.0
QOS_PREPOPULATE = 64


@dataclass(frozen=True)
class Workload:
    """One named replay configuration."""

    name: str
    why: str
    kind: str  # "baseline" | "doceph" | "qos"
    loop: str  # "closed" | "open"
    duration: float
    warmup: float = 0.0
    faults: Optional[str] = None


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "w4m_baseline",
            "paper Baseline at 4 MB: msgr and hw.tcp/net burn host CPU, "
            "repro.core is never entered (bypass workload for core/hw.dma)",
            kind="baseline", loop="closed", duration=30.0, warmup=1.0,
        ),
        Workload(
            "w4m_doceph",
            "paper DoCeph at 4 MB: ProxyObjectStore, DmaPipeline, MR cache "
            "and hw.dma carry every write (mechanism workload for core)",
            kind="doceph", loop="closed", duration=30.0, warmup=1.0,
        ),
        Workload(
            "w4m_fallback",
            "DoCeph under dma,p=0.3: same core layer on its RPC bulk path "
            "with probes and retries, so a DMA-path gain that taxes "
            "fallback shows",
            kind="doceph", loop="closed", duration=28.0, warmup=1.0,
            faults="dma,p=0.3",
        ),
        Workload(
            "mix64k_qos",
            "open loop, 4 tenants x 80 ops/s of 64 KB, half reads: per-op "
            "cost in osd mClock, rados admission, msgr framing dominates; "
            "per-byte hw/core cost does little",
            kind="qos", loop="open", duration=20.0,
        ),
    )
}


def qos_tenants() -> list[TenantSpec]:
    """Four tenants: weights 1-4, equal reservations, t1 bursty, t3
    limit-tagged.  The limit sits at 4x the offered rate so the limit
    tag is exercised on bursts (~0.1 deferrals per op) without shedding
    in steady state."""
    tenants = [
        TenantSpec(
            name=f"t{i}",
            rate=QOS_RATE,
            qos=QosSpec(reservation=20.0, weight=float(1 + i)),
            read_ratio=0.5,
            sizes=(64 * KB,),
            window=64,
        )
        for i in range(4)
    ]
    tenants[1] = replace(tenants[1], arrival="bursty", burst=2)
    tenants[3] = replace(
        tenants[3], qos=replace(tenants[3].qos, limit=4.0 * QOS_RATE)
    )
    return tenants


def expected_offered(spec: TenantSpec, seed: int, duration: float) -> int:
    """How many arrivals ``spec`` must offer in ``duration`` simulated
    seconds: the arrival schedule is a pure function of (seed, tenant),
    recomputed here from the tenant's public RNG stream with the draw
    order ``repro.qos.workload`` documents (gap, then per arrival the
    read coin and the read index)."""
    rng = tenant_rng(seed, spec.name)
    batch = spec.burst if spec.arrival == "bursty" else 1
    elapsed = 0.0
    offered = 0
    while True:
        elapsed += rng.expovariate(spec.rate / batch)
        if elapsed >= duration:
            return offered
        for _ in range(batch):
            if len(spec.sizes) > 1:
                rng.randrange(len(spec.sizes))
            if spec.read_ratio > 0.0 and rng.random() < spec.read_ratio:
                rng.randrange(QOS_PREPOPULATE)
            offered += 1


def open_loop_accounting(
    tenants: Sequence[TenantStats],
) -> tuple[int, int, int, int]:
    """(attempted, failed, errored, late) for an open-loop run: every
    offered arrival was attempted; one that was shed at admission,
    errored, or completed only after the window closed missed its
    deadline and counts as failed.  ``late`` is the last group alone."""
    attempted = sum(t.offered for t in tenants)
    errored = sum(t.failed for t in tenants)
    late = sum(t.completed_late for t in tenants)
    failed = errored + late + sum(t.shed for t in tenants)
    return attempted, failed, errored, late


@dataclass
class Replay:
    """What one replay produced; ``wall_s`` covers build + boot + drive."""

    wall_s: float
    sim_s: float
    events: int
    peak_heap: int
    digest: str
    bench: BenchResult
    #: Only for ``mix64k_qos``.
    qos: Optional[QosResult]
    #: The built cluster; for ``mix64k_qos`` it is reachable only
    #: through an attached tracer (``run_qos`` builds its own).
    cluster: Optional[Cluster]
    attempted: int
    failed: int
    #: Ops that returned an error or timed out (a subset of ``failed``).
    errored: int
    #: Open loop only: ops still in flight when the window closed, which
    #: completed correctly after it (a subset of ``failed``).
    late: int = 0
    #: Open loop only: arrivals offered minus what the seed's schedule
    #: says must be offered (0 = the generator kept its schedule).
    offered_mismatch: int = 0


def replay(
    workload: Workload,
    seed: int,
    log: SpanLog,
    replay_id: int,
    *,
    duration: Optional[float] = None,
    tracer: Any = None,
    doceph_switches: Optional[dict[str, bool]] = None,
) -> Replay:
    """Run ``workload`` once on a fresh ``Environment``.

    ``duration`` overrides the measured simulated seconds (warm-ups and
    the profiled pass use :data:`SHORT_SIM_S`); ``doceph_switches`` sets
    :class:`DocephProfile` feature switches (``mr_cache``,
    ``pipelining``) and is the sensitivity check's simulated-side knob,
    not available on ``mix64k_qos``."""
    dur = workload.duration if duration is None else duration
    env = Environment()
    t0 = perf_counter()
    qos: Optional[QosResult] = None
    if workload.kind == "qos":
        # run_qos builds and boots its own cluster inside the drive call
        with log.span("phase.drive", replay_id):
            qos = run_qos(
                "full-osd", qos_tenants(), seed=seed, duration=dur,
                prepopulate=QOS_PREPOPULATE, env=env, tracer=tracer,
            )
        bench = qos.bench
        cluster = getattr(tracer, "cluster", None)
    else:
        with log.span("phase.build", replay_id):
            cluster = _build(workload, seed, env, tracer,
                             doceph_switches or {})
        with log.span("phase.boot", replay_id):
            boot = env.process(cluster.boot(), name="cluster-boot")
            env.run(until=boot)
        with log.span("phase.drive", replay_id):
            bench = run_rados_bench(
                cluster, object_size=4 * MB, clients=16,
                duration=dur, warmup=workload.warmup,
            )
    wall = perf_counter() - t0

    mismatch = late = 0
    if qos is not None:
        attempted, failed, errored, late = open_loop_accounting(qos.tenants)
        mismatch = sum(
            abs(t.offered - expected_offered(spec, seed, dur))
            for spec, t in zip(qos.specs, qos.tenants)
        )
    else:
        health = bench.health
        errored = health.client_ops_failed + health.client_timeouts
        failed = errored
        attempted = bench.completed_ops + failed
    return Replay(
        wall_s=wall, sim_s=env.now,
        events=env.events_scheduled, peak_heap=env.peak_pending,
        digest=simulation_digest(env), bench=bench, qos=qos,
        cluster=cluster, attempted=attempted, failed=failed,
        errored=errored, late=late, offered_mismatch=mismatch,
    )


def qos_build_boot_phases(log: SpanLog, replay_id: int) -> None:
    """Record ``phase.build`` and ``phase.boot`` spans for a replay of
    ``mix64k_qos`` by timing an identical throwaway cluster: ``run_qos``
    builds and boots its own inside the drive call, where the harness
    cannot separate them.  Only the traced run asks for this; it is
    outside every replay's ``wall_s``."""
    with log.span("phase.build", replay_id):
        cluster = get_strategy("full-osd").build(Environment())
    with log.span("phase.boot", replay_id):
        boot = cluster.env.process(cluster.boot(), name="cluster-boot")
        cluster.env.run(until=boot)


def _build(
    workload: Workload, seed: int, env: Environment, tracer: Any,
    switches: dict[str, bool],
) -> Cluster:
    plan = (FaultPlan.parse(workload.faults, seed=seed)
            if workload.faults else None)
    if workload.kind == "baseline":
        # A DocephProfile is a HardwareProfile whose DoCeph switches the
        # baseline builder never reads: that is what makes this the
        # bypass side of the sensitivity check.
        profile: HardwareProfile = (
            DocephProfile(**switches) if switches else HardwareProfile()
        )
        return build_baseline_cluster(env, profile, fault_plan=plan,
                                      tracer=tracer)
    if workload.faults:
        # the experiment_fallback tuning: prompt fault detection
        switches = dict(switches, cooldown_seconds=0.5,
                        rpc_timeout_seconds=0.5)
    return build_doceph_cluster(env, DocephProfile(**switches),
                                fault_plan=plan, tracer=tracer)
