"""Experiment drivers: one function per table/figure in the paper.

Each ``experiment_*`` function builds the relevant testbed(s), runs the
paper's workload, and returns a result object carrying both *our*
measurements and the *paper's* reference values so the harness can
print them side by side.  Absolute agreement is not expected (our
substrate is a calibrated simulator, not the authors' hardware); the
shape — who wins, by what factor, where crossovers fall — is the
reproduction target (see EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from ..cluster.builder import build_baseline_cluster, build_doceph_cluster
from ..cluster.config import (
    DocephProfile,
    GIGABIT,
    HUNDRED_GIG,
    HardwareProfile,
)
from ..faults import FaultPlan
from ..msgr.messenger import MSGR_CATEGORY
from ..objectstore.bluestore import BSTORE_CATEGORY
from ..osd.daemon import OSD_CATEGORY
from ..sim import Environment
from .radosbench import BenchResult, run_rados_bench

__all__ = [
    "SIZES",
    "MB",
    "ComparisonPoint",
    "FallbackResult",
    "experiment_fig5",
    "experiment_table2",
    "experiment_table3",
    "experiment_fallback",
    "experiment_qos",
    "run_comparison_sweep",
    "PAPER",
]

MB = 1 << 20

#: The paper's request-size sweep (§5.1).
SIZES = (1 * MB, 4 * MB, 8 * MB, 16 * MB)

#: Published reference values, straight from the paper's §5.
PAPER = {
    "fig5_msgr_share": {"1G": 0.8105, "100G": 0.8248},
    "fig5_total_cpu_pct": {"1G": 24.0, "100G": 70.08},
    "table2_ctx": {"messenger": 7475, "objectstore": 751},
    "fig7_baseline_cpu_pct": {1 * MB: 94.2, 4 * MB: 70.1, 8 * MB: 68.9,
                              16 * MB: 67.2},
    "fig7_doceph_cpu_pct": {1 * MB: 5.5, 4 * MB: 5.75, 8 * MB: 5.53,
                            16 * MB: 5.39},
    "fig8_baseline_latency_s": {1 * MB: 0.03, 4 * MB: 0.134, 8 * MB: 0.267,
                                16 * MB: 0.54},
    "fig8_doceph_latency_s": {1 * MB: 0.05, 4 * MB: 0.14, 8 * MB: 0.30,
                              16 * MB: 0.57},
    "table3": {
        1 * MB: {"host_write": 0.0008, "dma": 0.0028, "dma_wait": 0.0224,
                 "others": 0.024, "total": 0.05},
        4 * MB: {"host_write": 0.0024, "dma": 0.0042, "dma_wait": 0.0336,
                 "others": 0.0998, "total": 0.14},
        8 * MB: {"host_write": 0.0046, "dma": 0.00523, "dma_wait": 0.0418,
                 "others": 0.24837, "total": 0.30},
        16 * MB: {"host_write": 0.0084, "dma": 0.00846, "dma_wait": 0.0676,
                  "others": 0.48554, "total": 0.57},
    },
    "fig10_baseline_iops": {1 * MB: 435, 4 * MB: 119, 8 * MB: 60, 16 * MB: 28},
    "fig10_doceph_iops": {1 * MB: 304, 4 * MB: 112, 8 * MB: 52, 16 * MB: 27},
}


# --------------------------------------------------------------- shared sweep


@dataclass
class ComparisonPoint:
    """One request size measured on both systems."""

    object_size: int
    baseline: BenchResult
    doceph: BenchResult

    @property
    def cpu_saving_pct(self) -> float:
        base = self.baseline.host_utilization_pct
        if base <= 0:
            return 0.0
        return 100.0 * (1 - self.doceph.host_utilization_pct / base)


_sweep_cache: dict[tuple, list[ComparisonPoint]] = {}


def run_comparison_sweep(
    sizes: tuple[int, ...] = SIZES,
    duration: float = 10.0,
    clients: int = 16,
    warmup: float = 2.0,
) -> list[ComparisonPoint]:
    """Baseline vs DoCeph across the paper's size sweep.

    Results are memoized per parameter set so the Fig. 7/8/9/10 and
    Table 3 harnesses share one set of runs (as the paper's do)."""
    key = (sizes, duration, clients, warmup)
    if key in _sweep_cache:
        return _sweep_cache[key]
    points = []
    for size in sizes:
        env_b = Environment()
        base = run_rados_bench(
            build_baseline_cluster(env_b), object_size=size,
            clients=clients, duration=duration, warmup=warmup,
        )
        env_d = Environment()
        doceph = run_rados_bench(
            build_doceph_cluster(env_d), object_size=size,
            clients=clients, duration=duration, warmup=warmup,
        )
        points.append(ComparisonPoint(size, base, doceph))
    _sweep_cache[key] = points
    return points


# --------------------------------------------------------------- Fig. 5 / 6


@dataclass
class Fig5Row:
    """CPU breakdown for one network configuration (baseline)."""

    label: str
    bandwidth_bps: float
    msgr_share: float
    objectstore_share: float
    osd_share: float
    total_cpu_pct: float
    throughput_bytes: float
    ctx_msgr_per_s: float
    ctx_objectstore_per_s: float


def _run_breakdown(bandwidth: float, label: str, duration: float,
                   clients: int) -> Fig5Row:
    env = Environment()
    profile = HardwareProfile(net_bandwidth=bandwidth)
    cluster = build_baseline_cluster(env, profile)
    result = run_rados_bench(
        cluster, object_size=4 * MB, clients=clients,
        duration=duration, warmup=2.0,
    )
    window = result.ceph_cpu_window
    return Fig5Row(
        label=label,
        bandwidth_bps=bandwidth,
        msgr_share=window.category_share(MSGR_CATEGORY),
        objectstore_share=window.category_share(BSTORE_CATEGORY),
        osd_share=window.category_share(OSD_CATEGORY),
        total_cpu_pct=window.utilization_pct,
        throughput_bytes=result.throughput_bytes,
        ctx_msgr_per_s=window.ctx_rate(MSGR_CATEGORY),
        ctx_objectstore_per_s=window.ctx_rate(BSTORE_CATEGORY),
    )


def experiment_fig5(duration: float = 10.0, clients: int = 16) -> list[Fig5Row]:
    """Fig. 5: CPU usage breakdown under 1 Gbps and 100 Gbps (baseline,
    4 MB writes).  Fig. 6's throughput comes from the same runs, as in
    the paper."""
    return [
        _run_breakdown(GIGABIT, "1G", duration, clients),
        _run_breakdown(HUNDRED_GIG, "100G", duration, clients),
    ]


# --------------------------------------------------------------- Table 2


@dataclass
class Table2Result:
    """Context switches: Messenger vs ObjectStore (100 Gbps, 4 MB)."""

    messenger_per_s: float
    objectstore_per_s: float

    @property
    def ratio(self) -> float:
        if self.objectstore_per_s <= 0:
            return float("inf")
        return self.messenger_per_s / self.objectstore_per_s

    @classmethod
    def of(cls, row: Fig5Row) -> Table2Result:
        """Table 2 read off a Fig. 5 row: the same run."""
        return cls(messenger_per_s=row.ctx_msgr_per_s,
                   objectstore_per_s=row.ctx_objectstore_per_s)


def experiment_table2(duration: float = 10.0, clients: int = 16) -> Table2Result:
    """Table 2: per-second context switches by component (Fig. 5's
    100 Gbps run)."""
    return Table2Result.of(
        _run_breakdown(HUNDRED_GIG, "100G", duration, clients))


# --------------------------------------------------------------- Table 3 / Fig. 9


@dataclass
class Table3Row:
    """DoCeph latency breakdown for one request size (seconds)."""

    object_size: int
    host_write: float
    dma: float
    dma_wait: float
    others: float
    total: float

    def normalized(self) -> dict[str, float]:
        """Fig. 9: each component as a share of total latency."""
        if self.total <= 0:
            return {"host_write": 0, "dma": 0, "dma_wait": 0, "others": 0}
        return {
            "host_write": self.host_write / self.total,
            "dma": self.dma / self.total,
            "dma_wait": self.dma_wait / self.total,
            "others": self.others / self.total,
        }


def experiment_table3(duration: float = 10.0, clients: int = 16) -> list[Table3Row]:
    """Table 3: average latency time breakdown of DoCeph.

    ``total`` is the client-observed latency; host-write/DMA/DMA-wait
    come from the proxy instrumentation; Others is the residual (DPU
    OSD work, messenger activity, replication coordination, ACK waits).
    Fig. 9 is the same rows normalized."""
    # imported here, not at module level: ``statistics`` loads
    # ``decimal`` and ``fractions`` (~0.55 MB), and every replay that
    # imports this module would carry them for three means it never takes
    import statistics

    points = run_comparison_sweep(duration=duration, clients=clients)
    rows = []
    for point in points:
        bd = point.doceph.breakdowns
        if not bd:
            continue
        host_write = statistics.mean(b.host_write for b in bd)
        dma = statistics.mean(b.dma for b in bd)
        dma_wait = statistics.mean(b.dma_wait for b in bd)
        total = point.doceph.avg_latency
        others = max(0.0, total - host_write - dma - dma_wait)
        rows.append(
            Table3Row(
                object_size=point.object_size,
                host_write=host_write,
                dma=dma,
                dma_wait=dma_wait,
                others=others,
                total=total,
            )
        )
    return rows


# --------------------------------------------------------------- §4 robustness


@dataclass
class FallbackResult:
    """DoCeph under an injected fault plan vs the fault-free run."""

    plan: FaultPlan
    clean: BenchResult
    faulty: BenchResult

    @property
    def iops_retained(self) -> float:
        """Fraction of fault-free IOPS the faulty run still delivers."""
        if self.clean.iops <= 0:
            return 0.0
        return self.faulty.iops / self.clean.iops

    @property
    def host_cpu_increase_pct(self) -> float:
        """Extra host CPU points paid for rerouting bulk data over the
        kernel-socket fallback path (the §4 robustness cost)."""
        return (
            self.faulty.host_utilization_pct
            - self.clean.host_utilization_pct
        )


def experiment_fallback(
    faults: str | FaultPlan = "dma,p=0.3",
    seed: int = 0,
    object_size: int = 4 * MB,
    duration: float = 10.0,
    clients: int = 16,
    warmup: float = 2.0,
    cooldown_seconds: float = 0.5,
    rpc_timeout_seconds: float = 0.5,
) -> FallbackResult:
    """§4 robustness: DoCeph with an injected fault plan, against the
    same configuration fault-free.

    ``faults`` is either a :class:`~repro.faults.FaultPlan` or the
    textual spec format shared with ``cli.py --faults`` and
    ``examples/failure_injection.py`` (e.g. ``"dma,p=0.3"``,
    ``"rpc:reply_loss,p=0.1;net:degrade,window=4-6"``).
    """
    plan = (
        faults if isinstance(faults, FaultPlan)
        else FaultPlan.parse(faults, seed=seed)
    )
    # fast-recovery tuning: a robustness run wants prompt fault
    # detection, not the conservative production timeout
    profile = DocephProfile(
        cooldown_seconds=cooldown_seconds,
        rpc_timeout_seconds=rpc_timeout_seconds,
    )

    env_clean = Environment()
    clean = run_rados_bench(
        build_doceph_cluster(env_clean, profile), object_size=object_size,
        clients=clients, duration=duration, warmup=warmup,
    )
    env_faulty = Environment()
    faulty = run_rados_bench(
        build_doceph_cluster(env_faulty, profile, fault_plan=plan),
        object_size=object_size, clients=clients, duration=duration,
        warmup=warmup,
    )
    return FallbackResult(plan=plan, clean=clean, faulty=faulty)


def experiment_qos(
    strategies: tuple[str, ...] = ("baseline", "tcp-only", "full-osd",
                                   "zero-copy"),
    tenant_counts: tuple[int, ...] = (8,),
    seed: int = 0,
    duration: float = 10.0,
):
    """The QoS crossover map: {strategy × tenant count × op size × rate}.

    Two operating points per cell bracket the crossover found
    empirically: *small* (4 KB, high rate) makes the OSD op queue the
    contended stage, so mClock weights split spare capacity; *large*
    (64 KB, moderate rate) shifts contention into the messaging path —
    upstream of the scheduler — where strategies differ by up to ~4x
    aggregate goodput (DPU ingress vs host ingress) and weights level
    out.  Returns ``{(strategy, tenants, label): QosResult}``.
    """
    # Imported lazily: repro.qos imports back into repro.bench
    # (metrics/reporting), and this module is loaded from
    # ``bench/__init__`` — a top-level import here would cycle.
    from ..qos import default_tenants, run_qos

    KB = 1024
    points = {
        # label: (object_size, per-tenant offered rate, reservation)
        "small": (4 * KB, 1500.0, 100.0),
        "large": (64 * KB, 250.0, 25.0),
    }
    results = {}
    for strategy in strategies:
        for count in tenant_counts:
            for label, (size, rate, reservation) in points.items():
                specs = default_tenants(
                    count, reservation=reservation, rate=rate,
                    object_size=size,
                )
                results[(strategy, count, label)] = run_qos(
                    strategy, specs, seed=seed, duration=duration,
                )
    return results
