"""Metric arithmetic: everything a replay's public report objects are
reduced to, kept free of timing so it can be unit-tested on plain data.

Simulated metrics are pure functions of (workload, seed): they must
repeat bit for bit across replays, processes and machines, which is
what the golden files and the replay-identity check rely on.
"""

from __future__ import annotations

import re
from typing import Any, Optional, Sequence

from repro.bench.experiments import PAPER
from repro.bench.radosbench import BenchResult
from repro.core.proxy_objectstore import ProxyObjectStore
from repro.core.rpc import PROXY_CATEGORY
from repro.msgr.messenger import MSGR_CATEGORY
from repro.objectstore.bluestore import BSTORE_CATEGORY
from repro.osd.daemon import OSD_CATEGORY
from repro.trace import TraceReport
from repro.util.stats import percentile

from workloads import MB, Replay, Workload

#: A metric, workload or layer name: starts with a letter or digit, then
#: letters, digits, ``_``, ``.`` and ``-``; at most 64 characters.
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")

#: A percentile is reported only with at least this many samples beyond
#: it (p99 of 3000 samples has 30).
MIN_BEYOND = 30


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) by linear interpolation."""
    ordered = sorted(values)
    return (percentile(ordered, 25), percentile(ordered, 50),
            percentile(ordered, 75))


def iqr_pct(values: Sequence[float]) -> float:
    """Distance between the quartiles as a percentage of the median."""
    q1, median, q3 = quartiles(values)
    return 100.0 * (q3 - q1) / median if median else 0.0


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie beyond the ``p``-th percentile."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def percentile_supported(n: int, p: float) -> bool:
    return samples_beyond(n, p) >= MIN_BEYOND


def ok_pct(attempted: int, failed: int) -> float:
    """Share of attempted ops that completed in time, in percent.  Shed,
    late, errored and timed-out ops all count as failed."""
    if attempted <= 0:
        raise ValueError("no ops attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, {attempted}]")
    return 100.0 * (attempted - failed) / attempted


def paper_err_pct(workload: Workload, bench: BenchResult) -> Optional[float]:
    """Largest relative error of {host CPU, IOPS, mean latency} against
    the paper's 4 MB point, in percent; None where the paper publishes
    no point for the configuration (faulted DoCeph, 64 KB tenants)."""
    if workload.loop != "closed" or workload.faults:
        return None
    side = workload.kind
    pairs = (
        (bench.host_utilization_pct, PAPER[f"fig7_{side}_cpu_pct"][4 * MB]),
        (bench.iops, PAPER[f"fig10_{side}_iops"][4 * MB]),
        (bench.avg_latency, PAPER[f"fig8_{side}_latency_s"][4 * MB]),
    )
    return 100.0 * max(abs(ours - ref) / ref for ours, ref in pairs)


def simulated(workload: Workload, r: Replay) -> dict[str, float]:
    """The exact, machine-independent numbers of one replay: the
    simulated end-to-end metrics plus what the golden file also pins."""
    bench = r.bench
    ordered = sorted(bench.latencies)
    out = {
        "events_per_op": r.events / bench.completed_ops,
        "sim_iops": bench.iops,
        "sim_lat_p50_ms": 1e3 * percentile(ordered, 50),
        "sim_lat_p99_ms": 1e3 * percentile(ordered, 99),
        "sim_host_cpu_pct": bench.host_utilization_pct,
        "ops_ok_pct": ok_pct(r.attempted, r.failed),
        "sim_lat_mean_ms": 1e3 * bench.avg_latency,
        "sim_s": r.sim_s,
        "latency_samples": float(len(ordered)),
    }
    err = paper_err_pct(workload, bench)
    if err is not None:
        out["paper_err_pct"] = err
    return out


# ---------------------------------------------------------------- per layer

_CRIT_LAYERS = {
    "client": "rados", "qos": "rados", "msgr": "msgr", "osd": "osd",
    "proxy": "core_proxy", "dma": "core_dma", "rpc": "core_rpc",
    "bstore": "objectstore",
}


def critical_path_by_layer(report: TraceReport) -> dict[str, float]:
    """``TraceReport.critical_path_summary()`` folded by layer, in ms
    per completed root op.

    The summary is computed per trace and re-weighted, which gives the
    same means as one call on the whole report but without rescanning
    every span for every root."""
    totals = {f"crit.{layer}_ms": 0.0
              for layer in dict.fromkeys(_CRIT_LAYERS.values())}
    roots = 0
    for spans in report.traces().values():
        sub = TraceReport(spans=spans)
        n = sum(1 for s in sub.roots() if s.end is not None)
        roots += n
        for name, mean_s in sub.critical_path_summary().items():
            layer = _CRIT_LAYERS.get(name.split(".", 1)[0])
            if layer is not None:
                totals[f"crit.{layer}_ms"] += 1e3 * mean_s * n
    return {k: (v / roots if roots else 0.0) for k, v in totals.items()}


def _pct(num: float, den: float) -> float:
    return 100.0 * num / den if den else 0.0


def modelled(workload: Workload, r: Replay) -> dict[str, float]:
    """Modelled-component metrics of one replay that carried a tracer
    (so its cluster is reachable on every workload).  Counters cover
    the whole replay; ``per_op`` divides by the ops completed in the
    measurement window."""
    bench, cluster = r.bench, r.cluster
    assert cluster is not None and bench.faults is not None
    assert bench.health is not None
    ops = bench.completed_ops
    kops = ops / 1e3
    faults, health = bench.faults, bench.health
    doceph = workload.kind != "baseline"

    def host_pct(category: str) -> float:
        shares = [
            _pct(w.busy_by_category.get(category, 0.0), w.elapsed)
            for w in bench.host_cpu
        ]
        return sum(shares) / len(shares)

    windows = list(bench.host_cpu) + (list(bench.ceph_cpu) if doceph else [])
    out = {
        "sim.cpu.host_msgr_pct": host_pct(MSGR_CATEGORY),
        "sim.cpu.host_bstore_pct": host_pct(BSTORE_CATEGORY),
        "sim.cpu.host_osd_pct": host_pct(OSD_CATEGORY),
        "sim.cpu.host_proxy_pct": host_pct(PROXY_CATEGORY),
        "sim.cpu.dpu_pct": (
            sum(w.utilization_pct for w in bench.ceph_cpu)
            / len(bench.ceph_cpu) if doceph else 0.0
        ),
        "sim.cpu.ctx_switches_per_op": sum(
            sum(w.ctx_by_category.values()) for w in windows
        ) / ops,
    }

    stores = [osd.store for osd in cluster.osds
              if isinstance(osd.store, ProxyObjectStore)]
    breakdowns = bench.breakdowns or [
        b for store in stores for b in store.breakdowns
    ]
    n = len(breakdowns)
    for part in ("dma", "dma_wait", "stage", "host_write"):
        out[f"sim.core.{part}_ms_per_op"] = (
            1e3 * sum(getattr(b, part) for b in breakdowns) / n if n else 0.0
        )
    hits = sum(s.doca.cache_hits for s in stores)
    misses = sum(s.doca.cache_misses for s in stores)
    out.update({
        "sim.core.mr_cache_hit_pct": _pct(hits, hits + misses),
        "sim.core.fallback_bytes_pct": _pct(
            sum(b.fallback_bytes for b in breakdowns),
            sum(b.size for b in breakdowns),
        ),
        "sim.core.rpc_retries_per_kop": faults.rpc_retries / kops,
        "sim.core.probe_success_pct": _pct(
            faults.probes_succeeded, faults.probes_attempted
        ),
        "sim.core.recovery_latency_ms": 1e3 * faults.mean_recovery_latency,
    })

    nodes = cluster.nodes
    span_s = r.sim_s * len(nodes)
    out.update({
        "sim.hw.dma_busy_pct": _pct(
            sum(nd.dma.busy_time for nd in nodes if nd.dma is not None),
            span_s,
        ),
        "sim.hw.dma_failures_per_kop": faults.dma_failures / kops,
        "sim.hw.ssd_busy_pct": _pct(
            sum(nd.ssd.busy_time for nd in nodes), span_s
        ),
        "sim.hw.ssd_write_amp": (
            sum(nd.ssd.bytes_written for nd in nodes)
            / max(1, cluster.client.bytes_written)
        ),
        "sim.hw.net_drops": float(
            health.messages_dropped + health.partition_drops
        ),
    })

    messengers = [osd.messenger for osd in cluster.osds]
    messengers += [cluster.client.messenger, cluster.mon.messenger]
    out["sim.msgr.wire_resends_per_kop"] = sum(
        m.wire_stats.get("retransmit", 0) for m in messengers
    ) / kops

    queue: dict[str, int] = {}
    for osd in cluster.osds:
        for key, value in osd.qos_stats().items():
            queue[key] = queue.get(key, 0) + value
    qos = r.qos
    out.update({
        "sim.osd.reservation_served_pct": _pct(
            queue["reservation_served"], queue["tagged_enqueued"]
        ),
        "sim.osd.limit_deferrals_per_op": queue["limit_deferrals"] / ops,
        "sim.osd.reservation_attainment_min": min(
            (t.completed / qos.duration / spec.qos.reservation
             for spec, t in zip(qos.specs, qos.tenants)),
        ) if qos else 0.0,
        "sim.osd.jain_weighted": qos.jain_weighted_goodput if qos else 0.0,
    })

    offered = sum(t.offered for t in qos.tenants) if qos else r.attempted
    out.update({
        "sim.rados.shed_pct": _pct(
            sum(t.shed for t in qos.tenants) if qos else 0, offered
        ),
        "sim.rados.resends_per_kop": health.client_resends / kops,
        "sim.rados.late_pct": _pct(
            sum(t.completed_late for t in qos.tenants) if qos else 0,
            offered,
        ),
    })
    return out


def phases(log: Any, replay_id: int) -> dict[str, float]:
    """The harness-boundary phase spans of one replay, in seconds."""
    return {
        f"phase.{name}_s": log.total(f"phase.{name}", replay_id)
        for name in ("build", "boot", "drive", "report")
    }
