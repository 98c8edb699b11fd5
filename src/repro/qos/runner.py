"""The multi-tenant QoS harness: strategy in, SLO report out.

``run_qos`` assembles one cluster via a named offload strategy
(:mod:`repro.cluster.strategy`), installs each tenant's mClock tags on
every OSD (reservation/limit are aggregate ops/s, divided by OSD count
so the per-queue floors sum back to the contract), attaches client-side
admission control, drives the open-loop tenants for ``duration``
simulated seconds, and reports:

* the canonical bench block (``bench_result_dict`` shape) aggregated
  across tenants,
* per-tenant goodput vs offered, shed counts, reservation attainment,
  and latency percentiles,
* Jain fairness over raw and weight-normalized goodput,
* a sha256 fingerprint over the whole payload, which reads no host
  clock, so two runs of the same seed are byte-comparable — the replay
  gate the CLI and CI enforce.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional, Sequence

from ..bench.metrics import (
    CpuSampler,
    collect_fault_report,
    collect_health_report,
)
from ..bench.radosbench import BenchResult
from ..cluster.builder import BENCH_POOL, Cluster
from ..cluster.strategy import get_strategy
from ..osd.opqueue import QosSpec
from ..sim import Environment
from ..trace import Tracer
from ..util.digest import fingerprint
from ..util.stats import jain_fairness_index, latency_summary
from .admission import AdmissionController
from .tenants import TenantSpec, default_tenants
from .workload import TenantStats, open_loop_tenant, tenant_rng

__all__ = ["QosResult", "qos_payload", "run_qos"]


@dataclass(slots=True)
class QosResult:
    """Everything one multi-tenant QoS run produced."""

    strategy: str
    seed: int
    duration: float
    specs: list[TenantSpec]
    tenants: list[TenantStats]
    #: Aggregate (all tenants folded together) in the canonical bench
    #: shape, so the standard reporting/schema path applies unchanged.
    bench: BenchResult
    #: Summed mClock queue counters across OSDs
    #: (tagged_enqueued / reservation_served / weight_served /
    #: limit_deferrals).
    queue_stats: dict[str, int] = field(default_factory=dict)
    admission: Optional[AdmissionController] = None
    #: Aggregate offered rate / aggregate goodput (>= 1 ⇒ overload).
    overload_factor: float = 0.0
    jain_goodput: float = 1.0
    jain_weighted_goodput: float = 1.0
    #: sha256 over the deterministic payload (see :func:`qos_payload`).
    fingerprint: str = ""


def _install_qos(cluster: Cluster, specs: Sequence[TenantSpec]) -> None:
    """Install per-OSD mClock tags: aggregate contract / OSD count.

    Client ops hash across OSDs by object name, so an aggregate
    reservation of R is enforced as a floor of R/n on each of the n
    queues — the floors sum back to R when load spreads, and skew can
    only land a tenant *above* its per-queue floors elsewhere.
    """
    n = len(cluster.osds)
    for spec in specs:
        q = spec.qos
        per_osd = QosSpec(
            reservation=q.reservation / n,
            weight=q.weight,
            limit=(q.limit / n) if q.limit else 0.0,
        )
        for osd in cluster.osds:
            osd.set_qos(spec.name, per_osd)


def run_qos(
    strategy: str = "full-osd",
    tenants: Optional[Sequence[TenantSpec]] = None,
    *,
    seed: int = 0,
    duration: float = 20.0,
    prepopulate: int = 64,
    env: Optional[Environment] = None,
    tracer: Optional[Tracer] = None,
) -> QosResult:
    """Run one multi-tenant open-loop serving experiment.

    ``strategy`` names an offload strategy
    (:data:`~repro.cluster.strategy.STRATEGY_NAMES`); ``tenants``
    defaults to :func:`~repro.qos.tenants.default_tenants`.  The same
    ``(strategy, tenants, seed, duration)`` always produces the same
    :attr:`QosResult.fingerprint`.

    ``env`` injects a caller-owned (fresh) :class:`Environment` so
    harnesses that digest the event stream afterwards — the ``qos``
    perf-replay scenario — can reach it; ``tracer`` attaches a
    caller-owned tracer.
    """
    specs = list(tenants) if tenants is not None else default_tenants()
    if not specs:
        raise ValueError("need at least one tenant")
    names = [s.name for s in specs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate tenant names: {names}")

    strat = get_strategy(strategy)
    if env is None:
        env = Environment()
    cluster = strat.build(env, tracer=tracer)
    client = cluster.client
    assert client is not None

    _install_qos(cluster, specs)
    admission = AdmissionController()
    for spec in specs:
        admission.set_window(spec.name, spec.window)
    client.admission = admission

    boot = env.process(cluster.boot(), name="cluster-boot")
    env.run(until=boot)

    if any(spec.read_ratio > 0.0 for spec in specs):
        read_size = max(
            max(spec.sizes) for spec in specs if spec.read_ratio > 0.0
        )

        def prep() -> Generator[Any, Any, None]:
            for i in range(prepopulate):
                yield from client.write_object(
                    BENCH_POOL, f"qos_pre_{i}", read_size
                )

        p = env.process(prep(), name="qos-prepopulate")
        env.run(until=p)

    t_close = env.now + duration
    sampler_hosts = CpuSampler(env, cluster.host_cpus())
    sampler_ceph = CpuSampler(env, cluster.ceph_cpus())
    sampler_hosts.start()
    sampler_ceph.start()

    stats = [TenantStats(name=spec.name) for spec in specs]
    #: ops in flight, in issue order (each leaves when it finishes)
    pending: dict[Any, None] = {}
    arrival_procs = [
        env.process(
            open_loop_tenant(
                env, client, spec, st, tenant_rng(seed, spec.name),
                t_close, prepopulate, pending, tracer,
            ),
            name=f"qos-arrivals-{spec.name}",
        )
        for spec, st in zip(specs, stats)
    ]
    for proc in arrival_procs:
        env.run(until=proc)
    # Samplers close with the arrival window so CPU figures describe
    # the loaded period, not the post-window drain.
    host_windows = sampler_hosts.stop()
    ceph_windows = sampler_ceph.stop()
    # Drain in-flight ops issued before the window closed (they count
    # as ``completed_late``, not goodput) so the run ends quiescent.
    # A finished op has left ``pending``; waiting on it would return at
    # once, so the drain stops where waiting on every op would.
    for proc in list(pending):
        env.run(until=proc)

    queue_stats: dict[str, int] = {}
    for osd in cluster.osds:
        for key, value in osd.qos_stats().items():
            queue_stats[key] = queue_stats.get(key, 0) + value

    all_latencies: list[float] = []
    total_bytes = 0
    for st in stats:
        all_latencies.extend(st.latencies)
        total_bytes += st.bytes_done

    trace_report = tracer.report() if tracer is not None else None
    bench = BenchResult(
        object_size=specs[0].sizes[0],
        clients=len(specs),
        duration=duration,
        iops=len(all_latencies) / duration,
        throughput_bytes=total_bytes / duration,
        latencies=all_latencies,
        ceph_cpu=ceph_windows,
        host_cpu=host_windows,
        faults=collect_fault_report(cluster),
        health=collect_health_report(cluster),
        trace=trace_report,
    )

    goodputs = [st.completed / duration for st in stats]
    weighted = [g / spec.qos.weight for g, spec in zip(goodputs, specs)]
    offered_rate = sum(spec.rate for spec in specs)
    achieved = sum(goodputs)
    result = QosResult(
        strategy=strategy,
        seed=seed,
        duration=duration,
        specs=specs,
        tenants=stats,
        bench=bench,
        queue_stats=queue_stats,
        admission=admission,
        overload_factor=offered_rate / achieved if achieved > 0 else 0.0,
        jain_goodput=jain_fairness_index(goodputs),
        jain_weighted_goodput=jain_fairness_index(weighted),
    )
    result.fingerprint = qos_payload(result)["fingerprint"]
    return result


def _tenant_dict(spec: TenantSpec, st: TenantStats,
                 duration: float) -> dict[str, Any]:
    goodput = st.completed / duration
    out: dict[str, Any] = {
        "name": spec.name,
        "arrival": spec.arrival,
        "offered_ops": st.offered,
        "offered_iops": round(st.offered / duration, 9),
        "admitted_ops": st.admitted,
        "completed_ops": st.completed,
        "completed_late_ops": st.completed_late,
        "shed_ops": st.shed,
        "failed_ops": st.failed,
        "goodput_iops": round(goodput, 9),
        "throughput_MBps": round(st.bytes_done / duration / 1e6, 9),
        "reservation_iops": round(spec.qos.reservation, 9),
        "weight": round(spec.qos.weight, 9),
        "limit_iops": round(spec.qos.limit, 9),
        "latency_s": {k: round(v, 9)
                      for k, v in latency_summary(st.latencies).items()},
    }
    if spec.qos.reservation > 0:
        out["reservation_attainment"] = round(
            goodput / spec.qos.reservation, 9
        )
    return out


def qos_payload(result: QosResult) -> dict[str, Any]:
    """The ``BENCH_qos_*.json`` payload: canonical bench block plus the
    ``qos`` extension, stamped with a deterministic fingerprint.

    The fingerprint is sha256 over the sorted-key JSON of the payload
    — byte-equal fingerprints ⇔ identical simulated outcomes.
    """
    from ..bench.reporting import bench_result_dict

    payload = bench_result_dict(result.bench)
    payload["qos"] = {
        "strategy": result.strategy,
        "seed": result.seed,
        "duration_s": round(result.duration, 9),
        "overload_factor": round(result.overload_factor, 9),
        "jain_goodput": round(result.jain_goodput, 9),
        "jain_weighted_goodput": round(result.jain_weighted_goodput, 9),
        "ops_shed": sum(st.shed for st in result.tenants),
        "queue": dict(sorted(result.queue_stats.items())),
        "tenants": [
            _tenant_dict(spec, st, result.duration)
            for spec, st in zip(result.specs, result.tenants)
        ],
    }
    payload["fingerprint"] = fingerprint(payload)
    return payload
