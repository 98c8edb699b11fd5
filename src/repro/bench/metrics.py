"""Measurement utilities: CPU utilization sampling and breakdowns.

Reproduces the paper's measurement methodology (§5.1/§5.2):

* utilization is sampled at 1 Hz over the benchmark window (htop/iostat
  style) and reported **single-core normalized** (busy-cores × 100 —
  the convention behind Fig. 5's right axis and Fig. 7's percentages);
* per-category breakdowns follow Ceph's thread naming: ``msgr-worker``
  (Messenger), ``bstore`` (ObjectStore), ``tp_osd_tp`` (OSD threads) —
  mutually exclusive categories, as the paper notes;
* context switches are counted per category over the window (Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..hw.cpu import CpuComplex, CpuSnapshot
from ..msgr.messenger import MSGR_CATEGORY
from ..objectstore.bluestore import BSTORE_CATEGORY
from ..osd.daemon import OSD_CATEGORY
from ..sim import Environment

__all__ = [
    "CpuWindow",
    "CpuSampler",
    "CATEGORY_LABELS",
    "FaultReport",
    "HealthReport",
    "collect_fault_report",
    "collect_health_report",
]

#: Display labels in the paper's vocabulary.
CATEGORY_LABELS = {
    MSGR_CATEGORY: "Messenger",
    BSTORE_CATEGORY: "ObjectStore",
    OSD_CATEGORY: "OSD threads",
    "proxy": "Proxy",
}


@dataclass
class CpuWindow:
    """Accounting deltas of one CPU complex over one window."""

    name: str
    elapsed: float
    busy_by_category: dict[str, float]
    ctx_by_category: dict[str, int]

    @property
    def total_busy(self) -> float:
        return sum(self.busy_by_category.values())

    @property
    def busy_cores(self) -> float:
        """Average busy cores (single-core-normalized utilization /100)."""
        return self.total_busy / self.elapsed if self.elapsed > 0 else 0.0

    @property
    def utilization_pct(self) -> float:
        """The paper's 'CPU utilization (%)': busy-cores × 100."""
        return 100.0 * self.busy_cores

    def category_share(self, category: str) -> float:
        """Fraction of this window's busy time in ``category``."""
        total = self.total_busy
        if total <= 0:
            return 0.0
        return self.busy_by_category.get(category, 0.0) / total

    def breakdown(self) -> dict[str, float]:
        """Category → share of total busy time."""
        total = self.total_busy
        if total <= 0:
            return {}
        return {
            cat: busy / total
            for cat, busy in sorted(self.busy_by_category.items())
        }

    def ctx_rate(self, category: str) -> float:
        """Context switches per second in ``category``."""
        if self.elapsed <= 0:
            return 0.0
        return self.ctx_by_category.get(category, 0) / self.elapsed

    @staticmethod
    def between(
        cpu: CpuComplex, start: CpuSnapshot, end: CpuSnapshot
    ) -> "CpuWindow":
        elapsed = end.time - start.time
        busy = end.busy_since(start)
        ctx = {
            cat: end.ctx_by_category.get(cat, 0)
            - start.ctx_by_category.get(cat, 0)
            for cat in sorted(set(end.ctx_by_category) | set(start.ctx_by_category))
        }
        return CpuWindow(cpu.name, elapsed, busy, ctx)

    @staticmethod
    def merge(windows: list["CpuWindow"]) -> "CpuWindow":
        """Aggregate windows (e.g. both storage nodes) by averaging —
        the paper reports per-node averages."""
        if not windows:
            raise ValueError("nothing to merge")
        n = len(windows)
        busy: dict[str, float] = {}
        ctx: dict[str, int] = {}
        for w in windows:
            for cat, b in w.busy_by_category.items():
                busy[cat] = busy.get(cat, 0.0) + b / n
            for cat, c in w.ctx_by_category.items():
                ctx[cat] = ctx.get(cat, 0) + c // n
        return CpuWindow(
            name="+".join(w.name for w in windows),
            elapsed=windows[0].elapsed,
            busy_by_category=busy,
            ctx_by_category=ctx,
        )


@dataclass
class FaultReport:
    """Per-layer fault and recovery counters for one cluster run.

    Aggregated across nodes; ``injected`` / ``injected_bytes`` come from
    the cluster's :class:`~repro.faults.FaultPlan` (empty when the run
    was fault-free).  Counters are plain ints/floats so two runs with
    the same plan seed can be compared for byte-identical equality.
    """

    # plan-side: what the fault plan injected, keyed "layer.kind"
    injected: dict[str, int]
    injected_bytes: dict[str, int]
    # dma layer
    dma_failures: int = 0
    dma_failed_bytes: int = 0
    # fallback controller (recovery machinery)
    fallback_failures: int = 0
    fallback_segments: int = 0
    probes_attempted: int = 0
    probes_succeeded: int = 0
    probes_suppressed: int = 0
    recovery_latencies: list[float] = field(default_factory=list)
    # rpc layer
    rpc_timeouts: int = 0
    rpc_retries: int = 0
    rpc_request_losses: int = 0
    rpc_reply_losses: int = 0
    rpc_delays: int = 0
    rpc_duplicates_suppressed: int = 0
    rpc_errors: int = 0
    # net layer
    net_degraded_chunks: int = 0
    # storage layer
    storage_io_errors: int = 0
    storage_failed_bytes: int = 0

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def mean_recovery_latency(self) -> float:
        if not self.recovery_latencies:
            return 0.0
        return sum(self.recovery_latencies) / len(self.recovery_latencies)

    def as_dict(self) -> dict[str, Any]:
        """Stable, JSON-friendly form (used by the CLI and for run-to-run
        reproducibility comparisons)."""
        return {
            "injected": dict(sorted(self.injected.items())),
            "injected_bytes": dict(sorted(self.injected_bytes.items())),
            "dma": {
                "failures": self.dma_failures,
                "failed_bytes": self.dma_failed_bytes,
            },
            "fallback": {
                "failures": self.fallback_failures,
                "fallback_segments": self.fallback_segments,
                "probes_attempted": self.probes_attempted,
                "probes_succeeded": self.probes_succeeded,
                "probes_suppressed": self.probes_suppressed,
                "recoveries": len(self.recovery_latencies),
                "mean_recovery_latency": self.mean_recovery_latency,
            },
            "rpc": {
                "timeouts": self.rpc_timeouts,
                "retries": self.rpc_retries,
                "request_losses": self.rpc_request_losses,
                "reply_losses": self.rpc_reply_losses,
                "delays": self.rpc_delays,
                "duplicates_suppressed": self.rpc_duplicates_suppressed,
                "errors": self.rpc_errors,
            },
            "net": {"degraded_chunks": self.net_degraded_chunks},
            "storage": {
                "io_errors": self.storage_io_errors,
                "failed_bytes": self.storage_failed_bytes,
            },
        }


def collect_fault_report(cluster: Any) -> FaultReport:
    """Aggregate fault/recovery counters from every layer of ``cluster``."""
    # local import: repro.core imports nothing from bench, but keep the
    # bench package importable without the core stack loaded
    from ..core.proxy_objectstore import ProxyObjectStore

    plan = getattr(cluster, "fault_plan", None)
    snap = plan.snapshot() if plan is not None else {
        "injected": {}, "injected_bytes": {},
    }
    report = FaultReport(
        injected=snap["injected"],
        injected_bytes=snap["injected_bytes"],
    )

    for node in cluster.nodes:
        if node.dma is not None:
            report.dma_failures += node.dma.failures
            report.dma_failed_bytes += node.dma.failed_bytes
        ssd = node.ssd
        report.storage_io_errors += ssd.io_errors
        report.storage_failed_bytes += ssd.failed_bytes
        report.net_degraded_chunks += node.nic.tx.degraded_chunks
        report.net_degraded_chunks += node.nic.rx.degraded_chunks

    for osd in cluster.osds:
        store = osd.store
        if isinstance(store, ProxyObjectStore):
            fb = store.fallback
            report.fallback_failures += fb.failures
            report.fallback_segments += fb.fallback_segments
            report.probes_attempted += fb.probes_attempted
            report.probes_succeeded += fb.probes_succeeded
            report.probes_suppressed += fb.probes_suppressed
            report.recovery_latencies.extend(fb.recovery_latencies)

    for server in getattr(cluster, "proxy_servers", []):
        rpc = server.rpc
        report.rpc_timeouts += rpc.timeouts
        report.rpc_retries += rpc.retries
        report.rpc_request_losses += rpc.request_losses
        report.rpc_reply_losses += rpc.reply_losses
        report.rpc_delays += rpc.delays
        report.rpc_duplicates_suppressed += rpc.duplicates_suppressed
        report.rpc_errors += rpc.errors

    return report


@dataclass
class HealthReport:
    """Cluster-health counters for one run: daemon lifecycle, monitor
    failure-detection activity, client robustness, and the partition /
    recovery machinery.  Complements :class:`FaultReport` (which covers
    the per-layer *injection* counters) with the cluster-level view the
    chaos experiment judges.
    """

    # final OSDMap state
    osds_up: int = 0
    osds_down: int = 0
    osds_out: int = 0
    # PG health (degraded = incomplete acting set or a dirty/absent copy)
    total_pgs: int = 0
    degraded_pgs: int = 0
    # daemon lifecycle
    osd_crashes: int = 0
    osd_restarts: int = 0
    osd_rejoins: int = 0
    misdirected_ops: int = 0
    objects_discarded: int = 0
    # monitor failure detection
    mon_marked_down: int = 0
    mon_marked_out: int = 0
    mon_marked_up: int = 0
    mon_report_down_events: int = 0
    # client robustness
    client_resends: int = 0
    client_timeouts: int = 0
    client_map_refetches: int = 0
    client_ops_failed: int = 0
    # wire
    messages_dropped: int = 0
    partition_drops: int = 0
    partition_dropped_bytes: int = 0
    # recovery
    pulls_sent: int = 0
    pulls_retried: int = 0
    pgs_recovered: int = 0
    objects_recovered: int = 0
    #: per-incident heal latency (incident end → every PG clean),
    #: supplied by the chaos controller when one drove the run
    recovery_to_clean: list[float] = field(default_factory=list)

    @property
    def mean_recovery_to_clean(self) -> float:
        if not self.recovery_to_clean:
            return 0.0
        return sum(self.recovery_to_clean) / len(self.recovery_to_clean)

    def as_dict(self) -> dict[str, Any]:
        """Stable, JSON-friendly form (CLI output and replay digests)."""
        return {
            "osds": {
                "up": self.osds_up,
                "down": self.osds_down,
                "out": self.osds_out,
                "crashes": self.osd_crashes,
                "restarts": self.osd_restarts,
                "rejoins": self.osd_rejoins,
                "misdirected_ops": self.misdirected_ops,
                "objects_discarded": self.objects_discarded,
            },
            "pgs": {
                "total": self.total_pgs,
                "degraded": self.degraded_pgs,
            },
            "monitor": {
                "marked_down": self.mon_marked_down,
                "marked_out": self.mon_marked_out,
                "marked_up": self.mon_marked_up,
                "report_down_events": self.mon_report_down_events,
            },
            "client": {
                "resends": self.client_resends,
                "timeouts": self.client_timeouts,
                "map_refetches": self.client_map_refetches,
                "ops_failed": self.client_ops_failed,
            },
            "wire": {
                "messages_dropped": self.messages_dropped,
                "partition_drops": self.partition_drops,
                "partition_dropped_bytes": self.partition_dropped_bytes,
            },
            "recovery": {
                "pulls_sent": self.pulls_sent,
                "pulls_retried": self.pulls_retried,
                "pgs_recovered": self.pgs_recovered,
                "objects_recovered": self.objects_recovered,
                "to_clean": [round(t, 9) for t in self.recovery_to_clean],
                "mean_to_clean": round(self.mean_recovery_to_clean, 9),
            },
        }


def collect_health_report(
    cluster: Any, controller: Any = None
) -> HealthReport:
    """Aggregate cluster-health counters from every layer of ``cluster``.

    Pass the :class:`~repro.chaos.ChaosController` that drove the run to
    include per-incident recovery-to-clean latencies.
    """
    from ..cluster.builder import BENCH_POOL
    from ..rados.osdmap import OsdState

    report = HealthReport()
    osdmap = cluster.osdmap
    for info in osdmap.osds.values():
        if info.state == OsdState.UP_IN:
            report.osds_up += 1
        elif info.state == OsdState.DOWN_IN:
            report.osds_down += 1
        else:
            report.osds_out += 1

    pool = osdmap.pool_by_name(BENCH_POOL)
    want = min(pool.size, len(cluster.osds))
    for pgid in osdmap.all_pgs(BENCH_POOL):
        report.total_pgs += 1
        acting = osdmap.pg_to_osds(pgid)
        degraded = len(acting) < want
        for osd_id in acting:
            osd = cluster.osds[osd_id]
            pg = osd.pgs.get(pgid)
            if pgid not in osd.member_pgs or (pg and not pg.clean):
                degraded = True
        if degraded:
            report.degraded_pgs += 1

    for osd in cluster.osds:
        report.osd_crashes += osd.crashes
        report.osd_restarts += osd.restarts
        report.osd_rejoins += osd.rejoins
        report.misdirected_ops += osd.misdirected_ops
        report.objects_discarded += osd.objects_discarded
        report.messages_dropped += osd.messenger.messages_dropped
        if osd.recovery is not None:
            report.pulls_sent += osd.recovery.pulls_sent
            report.pulls_retried += osd.recovery.pulls_retried
            report.pgs_recovered += osd.recovery.pgs_recovered
            report.objects_recovered += osd.recovery.objects_recovered

    mon = getattr(cluster, "mon", None)
    if mon is not None:
        report.mon_marked_down = mon.osds_marked_down
        report.mon_marked_out = mon.osds_marked_out
        report.mon_marked_up = mon.osds_marked_up
        report.mon_report_down_events = mon.report_down_events
        report.messages_dropped += mon.messenger.messages_dropped

    client = getattr(cluster, "client", None)
    if client is not None:
        report.client_resends = client.resends
        report.client_timeouts = client.timeouts
        report.client_map_refetches = client.map_refetches
        report.client_ops_failed = client.ops_failed
        report.messages_dropped += client.messenger.messages_dropped

    report.partition_drops = cluster.network.partition_drops
    report.partition_dropped_bytes = cluster.network.partition_dropped_bytes

    if controller is not None:
        report.recovery_to_clean = list(controller.recovery_to_clean)

    return report


class CpuSampler:
    """1 Hz utilization sampler over a set of CPU complexes.

    Mirrors the paper's "sampling every second throughout the benchmark
    duration": call :meth:`start` at the measurement window's opening,
    :meth:`stop` at its close; per-second samples and the full-window
    delta are then available.
    """

    def __init__(self, env: Environment, cpus: list[CpuComplex],
                 period: float = 1.0) -> None:
        self.env = env
        self.cpus = cpus
        self.period = period
        self._start_snaps: Optional[list[CpuSnapshot]] = None
        self._end_windows: Optional[list[CpuWindow]] = None
        self.samples: dict[str, list[float]] = {c.name: [] for c in cpus}
        self._proc = None
        self._last_snaps: Optional[list[CpuSnapshot]] = None

    def start(self) -> None:
        now = self.env.now
        self._start_snaps = [c.accounting.snapshot(now) for c in self.cpus]
        self._last_snaps = list(self._start_snaps)
        self._proc = self.env.process(self._tick(), name="cpu-sampler")

    def _tick(self) -> Generator[Any, Any, None]:
        from ..sim import Interrupt

        while True:
            try:
                yield self.env.timeout(self.period)
            except Interrupt:
                return
            now = self.env.now
            assert self._last_snaps is not None
            snaps = [c.accounting.snapshot(now) for c in self.cpus]
            for cpu, prev, cur in zip(self.cpus, self._last_snaps, snaps):
                window = CpuWindow.between(cpu, prev, cur)
                self.samples[cpu.name].append(window.utilization_pct)
            self._last_snaps = snaps

    def stop(self) -> list[CpuWindow]:
        """Close the window; returns one :class:`CpuWindow` per CPU."""
        if self._start_snaps is None:
            raise RuntimeError("sampler never started")
        now = self.env.now
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt()
            self._proc = None
        self._end_windows = [
            CpuWindow.between(cpu, start, cpu.accounting.snapshot(now))
            for cpu, start in zip(self.cpus, self._start_snaps)
        ]
        return self._end_windows
