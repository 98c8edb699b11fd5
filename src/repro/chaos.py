"""Cluster-level chaos: seeded crash/partition schedules plus an
acked-write durability checker.

The paper's premise is that the messenger — not the data path — is
where Ceph burns its CPU; the flip side is that the messenger is also
where Ceph absorbs *failure*.  This module exercises that machinery end
to end:

* :class:`ChaosController` replays a seeded schedule of OSD daemon
  crashes (kill → downtime → restart → recover-until-clean) and
  sustained network partitions (via :meth:`repro.hw.net.Network.partition`)
  against a live cluster;
* :class:`DurabilityChecker` records every write the cluster *acked*
  during the run and, after heal, verifies each is readable with the
  exact payload identity that was acked and that all replicas hold
  byte-identical copies;
* :func:`run_chaos` wires both into a small write workload and returns
  a :class:`ChaosReport` whose :meth:`~ChaosReport.fingerprint` is
  byte-identical across two runs with the same seed (determinism is
  part of the contract — a chaos bug you cannot replay is not a
  repro).

Everything random is pre-drawn from ``SeededRng(seed)`` streams, so the
schedule depends only on the seed, never on simulation interleaving.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Generator, Optional

from .cluster.builder import (
    BENCH_POOL,
    Cluster,
    build_baseline_cluster,
    build_doceph_cluster,
)
from .cluster.config import DocephProfile, HardwareProfile
from .objectstore import NoSuchObject
from .rados.client import RadosClient, RadosError
from .sim import Environment
from .util.bufferlist import DataBlob
from .util.digest import fingerprint
from .util.rng import SeededRng

__all__ = [
    "AckedWrite",
    "ChaosController",
    "ChaosIncident",
    "ChaosReport",
    "DurabilityChecker",
    "chaos_profile",
    "collect_qos_incidents",
    "collect_wire_incidents",
    "run_chaos",
]


# --------------------------------------------------------------- durability


@dataclass(frozen=True)
class AckedWrite:
    """One write the cluster acknowledged as durable."""

    pool: str
    oid: str
    size: int
    #: Payload identity (the blob's root id) at ack time.  Raw blob ids
    #: are process-global counters, so they are never compared across
    #: runs — only against what the cluster stored *within* this run.
    root_id: int
    version: int
    acked_at: float


class DurabilityChecker:
    """Records acked writes during chaos; verifies them after heal.

    The invariant: an acknowledged write survives any schedule of
    crashes, restarts, and partitions the cluster healed from.  After
    the run, every recorded object must (a) be readable through the
    client with the acked size and payload identity, and (b) be held
    byte-identically — same (size, content identity) — by every acting
    replica's ObjectStore.

    Recording is last-ack-wins, so overwrite workloads verify the most
    recently acknowledged payload.
    """

    def __init__(self, cluster: Cluster, pool: str = BENCH_POOL) -> None:
        self.cluster = cluster
        self.pool = pool
        self.acked: dict[str, AckedWrite] = {}
        self.writes_recorded = 0
        self.violations: list[str] = []
        self.objects_verified = 0
        self.replicas_compared = 0

    # -- record -----------------------------------------------------------------
    def record(self, oid: str, size: int, blob: DataBlob,
               version: int, now: float) -> None:
        """Call at the moment the client sees the write ack."""
        self.writes_recorded += 1
        self.acked[oid] = AckedWrite(
            pool=self.pool, oid=oid, size=size,
            root_id=blob.root_id, version=version, acked_at=now,
        )

    # -- verify -----------------------------------------------------------------
    def verify(self, client: RadosClient) -> Generator[Any, Any, list[str]]:
        """Read back every acked write through ``client`` (run as a sim
        process, after the cluster healed).  Appends human-readable
        violation strings to :attr:`violations` and returns them."""
        for oid in sorted(self.acked):
            rec = self.acked[oid]
            try:
                st = yield from client.stat_object(self.pool, oid)
            except RadosError as exc:
                self.violations.append(
                    f"{oid}: stat failed after heal ({exc})"
                )
                continue
            if st.result != 0:
                self.violations.append(
                    f"{oid}: acked write missing (stat result {st.result})"
                )
                continue
            stat = st.attachment
            if stat is not None and stat.size != rec.size:
                self.violations.append(
                    f"{oid}: size {stat.size} != acked {rec.size}"
                )
                continue
            try:
                rd = yield from client.read_object(self.pool, oid, rec.size)
            except RadosError as exc:
                self.violations.append(
                    f"{oid}: read failed after heal ({exc})"
                )
                continue
            if rd.result != 0 or rd.data is None:
                self.violations.append(
                    f"{oid}: acked write unreadable (result {rd.result})"
                )
                continue
            if rd.data.length != rec.size:
                self.violations.append(
                    f"{oid}: short read {rd.data.length} != {rec.size}"
                )
                continue
            content = rd.data.root_id
            if content != rec.root_id:
                self.violations.append(
                    f"{oid}: payload identity {content} != acked "
                    f"{rec.root_id} (lost or clobbered write)"
                )
                continue
            # Only objects that passed every check count as verified; a
            # violated object must never inflate the pass counter.
            self.objects_verified += 1
        self.check_replicas()
        return self.violations

    def check_replicas(self) -> list[str]:
        """Compare every acked object across its acting replicas'
        ObjectStores — same size and content identity everywhere.
        Synchronous: inspects BlueStore state directly (the disk view,
        not the wire view)."""
        cluster = self.cluster
        osdmap = cluster.osdmap
        for oid in sorted(self.acked):
            rec = self.acked[oid]
            pgid = osdmap.object_to_pg(self.pool, oid)
            coll = str(pgid)
            acting = osdmap.pg_to_osds(pgid)
            if not acting:
                self.violations.append(f"{oid}: no acting set after heal")
                continue
            copies: list[tuple[int, int, int]] = []  # (osd, size, content)
            for osd_id in acting:
                store = cluster.stores[osd_id]
                try:
                    onode = store.onode(coll, oid)
                except NoSuchObject:
                    self.violations.append(
                        f"{oid}: replica osd.{osd_id} has no copy"
                    )
                    continue
                copies.append((osd_id, onode.size, onode.content_id))
            self.replicas_compared += len(copies)
            if len({(size, content) for _, size, content in copies}) > 1:
                detail = ", ".join(
                    f"osd.{o}=({s}B,{c})" for o, s, c in copies
                )
                self.violations.append(
                    f"{oid}: replicas diverge after heal: {detail}"
                )
            elif copies and copies[0][2] != rec.root_id:
                self.violations.append(
                    f"{oid}: stored identity {copies[0][2]} != acked "
                    f"{rec.root_id}"
                )
        return self.violations


# --------------------------------------------------------------- controller


#: Sim seconds before the first incident.
_START_AFTER = 2.0
#: Uniform ranges an incident's length is drawn from: a crash's downtime
#: and a partition's window.
_DOWNTIME = (2.0, 5.0)
_PARTITION_WINDOW = (3.0, 6.0)
#: Uniform range of the settle pause after each incident.
_GAP = (1.0, 3.0)
#: A settle gives up after this long (counted in ``settle_timeouts``).
_SETTLE_TIMEOUT = 120.0
#: How often a settle re-checks that every PG is clean.
_POLL = 0.25


@dataclass(frozen=True)
class ChaosIncident:
    """One pre-drawn entry of the chaos schedule."""

    kind: str  # "crash" | "partition"
    target: int  # osd id
    duration: float  # downtime / partition window length
    gap: float  # settle pause before the next incident


class ChaosController:
    """Replays a seeded crash/partition schedule against a cluster.

    Incidents run sequentially: each one is injected, held for its
    drawn duration, healed, and then the controller waits for every PG
    to return to clean (bounded by ``_SETTLE_TIMEOUT``) before moving
    on.  The whole schedule is drawn up front from the seed, so the
    sequence of incidents is independent of simulation timing.
    """

    def __init__(
        self,
        cluster: Cluster,
        seed: int = 0,
        crashes: int = 3,
        partitions: int = 1,
    ) -> None:
        self.cluster = cluster
        self.env: Environment = cluster.env
        self.done = False

        # statistics / trace
        self.events: list[tuple[str, int, float]] = []
        self.recovery_to_clean: list[float] = []
        self.settle_timeouts = 0

        rng = SeededRng(seed).stream("chaos")
        kinds = ["crash"] * crashes + ["partition"] * partitions
        rng.shuffle(kinds)
        n_osds = len(cluster.osds)
        self.schedule: list[ChaosIncident] = []
        for kind in kinds:
            lo, hi = _DOWNTIME if kind == "crash" else _PARTITION_WINDOW
            self.schedule.append(ChaosIncident(
                kind=kind,
                target=rng.randrange(n_osds),
                duration=rng.uniform(lo, hi),
                gap=rng.uniform(*_GAP),
            ))
        self._proc = None

    def start(self) -> Any:
        """Kick off the schedule; returns the controller process."""
        self._proc = self.env.process(self.run(), name="chaos-controller")
        return self._proc

    def run(self) -> Generator[Any, Any, None]:
        env = self.env
        yield env.timeout(_START_AFTER)
        for incident in self.schedule:
            if incident.kind == "crash":
                yield from self._run_crash(incident)
            else:
                yield from self._run_partition(incident)
            yield env.timeout(incident.gap)
        yield from self.wait_all_clean()
        self.done = True

    # -- incidents --------------------------------------------------------------
    def _run_crash(
        self, incident: ChaosIncident
    ) -> Generator[Any, Any, None]:
        env = self.env
        osd = self.cluster.osds[incident.target]
        self.events.append(("crash", osd.osd_id, env.now))
        osd.crash()
        yield env.timeout(incident.duration)
        t0 = env.now
        self.events.append(("restart", osd.osd_id, env.now))
        yield from osd.restart()
        clean = yield from self.wait_all_clean()
        # A timed-out settle is not a recovery sample: recording
        # _SETTLE_TIMEOUT seconds as "recovery" would skew the
        # fingerprinted stats (the timeout is already counted).
        if clean:
            self.recovery_to_clean.append(env.now - t0)

    def _run_partition(
        self, incident: ChaosIncident
    ) -> Generator[Any, Any, None]:
        env = self.env
        osd = self.cluster.osds[incident.target]
        # Isolate the OSD's storage node.  The monitor sits at its own
        # management address ("mon0"), so the rest of the cluster keeps
        # its quorum view while the islanded OSD goes silent.
        addr = self.cluster.osdmap.address_of(osd.osd_id)
        self.events.append(("partition", osd.osd_id, env.now))
        self.cluster.network.partition(
            {addr}, env.now, env.now + incident.duration
        )
        yield env.timeout(incident.duration)
        t0 = env.now
        self.events.append(("heal", osd.osd_id, env.now))
        clean = yield from self.wait_all_clean()
        if clean:
            self.recovery_to_clean.append(env.now - t0)

    # -- settle -----------------------------------------------------------------
    def wait_all_clean(self) -> Generator[Any, Any, bool]:
        """Poll until every OSD is up and every PG clean (bounded)."""
        deadline = self.env.now + _SETTLE_TIMEOUT
        while self.env.now < deadline:
            if self.all_clean():
                return True
            yield self.env.timeout(_POLL)
        self.settle_timeouts += 1
        return False

    def all_clean(self) -> bool:
        """Every daemon alive + marked up, every PG fully replicated and
        clean on each acting member — and no acting member behind any
        holder's content generation (an unfinished merge of interim
        writes is not clean, even if the member's own flag says so)."""
        cluster = self.cluster
        osdmap = cluster.osdmap
        for osd in cluster.osds:
            if not osd.alive or not osdmap.is_up(osd.osd_id):
                return False
        pool = osdmap.pool_by_name(BENCH_POOL)
        for pgid in osdmap.all_pgs(BENCH_POOL):
            acting = osdmap.pg_to_osds(pgid)
            if len(acting) < min(pool.size, len(cluster.osds)):
                return False
            max_gen = max(
                (osdmap.holder_gen(pgid, o)
                 for o in osdmap.holders_of(pgid)),
                default=0,
            )
            for osd_id in acting:
                osd = cluster.osds[osd_id]
                if pgid not in osd.member_pgs:
                    return False
                pg = osd.pgs.get(pgid)
                if pg is not None and not pg.clean:
                    return False
                if osdmap.holder_gen(pgid, osd_id) < max_gen:
                    return False
        return True


# --------------------------------------------------------------- experiment


@dataclass
class ChaosReport:
    """Outcome of one seeded chaos run."""

    mode: str
    seed: int
    sim_elapsed: float
    writes_acked: int
    writes_failed: int
    objects_verified: int
    replicas_compared: int
    violations: list[str]
    incidents: list[tuple[str, int, float]]
    recovery_to_clean: list[float]
    settle_timeouts: int
    max_op_latency: float
    latency_bound: float
    acked_objects: dict[str, tuple[int, int]] = field(default_factory=dict)
    health: Optional[dict[str, Any]] = None
    #: aggregated messenger wire-integrity counters (crc_rejected,
    #: dup_suppressed, retransmit, reset, ...) across every endpoint
    wire_incidents: dict[str, int] = field(default_factory=dict)
    #: aggregated QoS-plane counters when the run was multi-tenant
    #: (mClock phase counts, limit deferrals, admission sheds) — all
    #: zero / empty for single-tenant runs
    qos_incidents: dict[str, int] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (not self.violations and self.settle_timeouts == 0
                and self.max_op_latency <= self.latency_bound)

    def fingerprint(self) -> str:
        """Replay digest: identical for two runs with the same seed.

        Includes the incident trace, per-object outcomes, and the
        robustness counters; excludes raw blob/content ids (allocated
        from a process-global counter) and anything else that is not a
        pure function of the seed.
        """
        doc = {
            "mode": self.mode,
            "seed": self.seed,
            "sim_elapsed": round(self.sim_elapsed, 9),
            "writes_acked": self.writes_acked,
            "writes_failed": self.writes_failed,
            "violations": sorted(self.violations),
            "incidents": [
                [kind, target, round(t, 9)]
                for kind, target, t in self.incidents
            ],
            "recovery_to_clean": [
                round(t, 9) for t in self.recovery_to_clean
            ],
            "acked_objects": {
                oid: [size, version]
                for oid, (size, version) in sorted(
                    self.acked_objects.items()
                )
            },
            "health": self.health,
            "wire_incidents": dict(sorted(self.wire_incidents.items())),
            "qos_incidents": dict(sorted(self.qos_incidents.items())),
        }
        return fingerprint(doc)

    def as_dict(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "seed": self.seed,
            "passed": self.passed,
            "sim_elapsed": self.sim_elapsed,
            "writes_acked": self.writes_acked,
            "writes_failed": self.writes_failed,
            "objects_verified": self.objects_verified,
            "replicas_compared": self.replicas_compared,
            "violations": list(self.violations),
            "incidents": [list(e) for e in self.incidents],
            "recovery_to_clean": list(self.recovery_to_clean),
            "settle_timeouts": self.settle_timeouts,
            "max_op_latency": self.max_op_latency,
            "latency_bound": self.latency_bound,
            "fingerprint": self.fingerprint(),
            "health": self.health,
            "wire_incidents": dict(sorted(self.wire_incidents.items())),
            "qos_incidents": dict(sorted(self.qos_incidents.items())),
        }


def collect_qos_incidents(cluster: Cluster) -> dict[str, int]:
    """Sum the QoS-plane counters: every OSD queue's mClock stats plus
    the client's admission sheds.  All zeros when QoS was never
    configured (the counters still exist on every queue)."""
    totals: dict[str, int] = {}
    for osd in cluster.osds:
        for key, count in osd.qos_stats().items():
            totals[key] = totals.get(key, 0) + count
    if cluster.client is not None:
        totals["ops_shed"] = getattr(cluster.client, "ops_shed", 0)
    return totals


def collect_wire_incidents(cluster: Cluster) -> dict[str, int]:
    """Sum every endpoint messenger's ``wire_stats`` counters."""
    totals: dict[str, int] = {}
    messengers = [osd.messenger for osd in cluster.osds]
    if cluster.mon is not None:
        messengers.append(cluster.mon.messenger)
    if cluster.client is not None:
        messengers.append(cluster.client.messenger)
    for msgr in messengers:
        for key, count in msgr.wire_stats.items():
            totals[key] = totals.get(key, 0) + count
    return totals


def chaos_profile(mode: str = "baseline", **overrides: Any) -> HardwareProfile:
    """The chaos testbed: three storage nodes (so a single failure
    leaves a full acting set), client timeouts armed, fast monitor
    detection.  ``overrides`` replace any field."""
    base: HardwareProfile
    if mode == "doceph":
        base = DocephProfile()
    else:
        base = HardwareProfile()
    params: dict[str, Any] = dict(
        storage_nodes=3,
        replication=2,
        pg_num=16,
        client_op_timeout=2.0,
        client_max_attempts=8,
        client_retry_backoff=0.25,
        mon_down_grace=2.0,
        mon_out_interval=12.0,
        mon_check_period=0.5,
        recovery_tick=0.5,
    )
    params.update(overrides)
    return replace(base, **params)


def _client_latency_bound(profile: HardwareProfile) -> float:
    """No-hang contract: the worst case is ``max_attempts`` rounds, each
    paying an op timeout, a (bounded) map refetch, and linear backoff —
    plus slack for queueing behind recovery traffic."""
    n = profile.client_max_attempts
    timeout = profile.client_op_timeout or 0.0
    backoff = profile.client_retry_backoff * n * (n + 1) / 2
    return n * 2.0 * timeout + backoff + 5.0


def run_chaos(
    mode: str = "baseline",
    seed: int = 0,
    duration: float = 10.0,
    clients: int = 2,
    object_size: int = 1 << 20,
    crashes: int = 3,
    partitions: int = 1,
    profile: Optional[HardwareProfile] = None,
    tracer: Any = None,
    fault_plan: Any = None,
    think_time: float = 0.0,
    tenants: int = 0,
) -> ChaosReport:
    """One full chaos experiment: boot, write under a seeded schedule of
    crashes and partitions, heal, then verify every acked write.

    Pass a :class:`~repro.trace.Tracer` to capture spans across the run
    (crashed ops show error spans, resends show retry links); tracing
    never changes the simulated schedule.  Pass a
    :class:`~repro.faults.FaultPlan` to layer per-operation faults
    (dma/rpc/net/storage) under the crash/partition schedule — the
    fuzzer composes both; the plan's injection counters are readable on
    the plan object afterwards.  ``think_time`` inserts a fixed pause
    between consecutive writes of each I/O context (open-loop-ish
    pacing); the default ``0.0`` preserves the original closed-loop
    event sequence byte-for-byte.

    ``tenants`` > 0 turns the run multi-tenant: each I/O context is
    tagged ``t{idx % tenants}``, every OSD gets a modest per-tenant
    mClock spec, and a deliberately tight admission window is attached
    so overload sheds (``-EAGAIN``) actually fire under chaos — those
    land in :attr:`ChaosReport.qos_incidents` for the fuzzer's
    ``qos.*`` coverage keys.  The default ``0`` installs nothing and
    keeps the event sequence byte-identical to pre-QoS runs."""
    profile = profile or chaos_profile(mode)
    env = Environment()
    if mode == "doceph":
        cluster = build_doceph_cluster(
            env, profile, fault_plan=fault_plan, tracer=tracer
        )
    else:
        cluster = build_baseline_cluster(
            env, profile, fault_plan=fault_plan, tracer=tracer
        )
    client = cluster.client
    assert client is not None

    boot = env.process(cluster.boot(), name="cluster-boot")
    env.run(until=boot)

    checker = DurabilityChecker(cluster)
    controller = ChaosController(
        cluster, seed=seed, crashes=crashes, partitions=partitions,
    )

    tenant_names: list[Optional[str]] = [None] * clients
    if tenants > 0:
        # Lazy imports: repro.qos pulls in the bench stack, which this
        # module otherwise only touches at report-collection time.
        from .osd.opqueue import QosSpec
        from .qos.admission import AdmissionController

        tenant_names = [f"t{i % tenants}" for i in range(clients)]
        n_osds = len(cluster.osds)
        admission = AdmissionController()
        for t in range(tenants):
            spec = QosSpec(
                reservation=5.0 / n_osds,
                weight=float(1 + t % 4),
                limit=50.0 / n_osds,
            )
            for osd in cluster.osds:
                osd.set_qos(f"t{t}", spec)
            # Window of 1 per tenant: any overlap between contexts
            # sharing a tenant (or a slow op under faults) sheds.
            admission.set_window(f"t{t}", 1)
        client.admission = admission

    bound = _client_latency_bound(profile)
    t_end = env.now + duration
    failed = [0]
    max_latency = [0.0]

    def io_context(idx: int) -> Generator[Any, Any, None]:
        seq = 0
        while env.now < t_end or not controller.done:
            oid = f"chaos_{idx}_{seq}"
            seq += 1
            blob = DataBlob(object_size)
            try:
                res = yield from client.write_object(
                    BENCH_POOL, oid, object_size, data=blob,
                    tenant=tenant_names[idx],
                )
            except RadosError as exc:
                # Admission sheds (-EAGAIN) are a QoS outcome, not an
                # I/O failure — the client's ops_shed counter carries
                # them into qos_incidents.  The gate raises before any
                # sim yield, so back off for a beat or the closed loop
                # would retry forever at the same simulated instant.
                if exc.result == -11:
                    yield env.timeout(0.001)
                else:
                    failed[0] += 1
            else:
                max_latency[0] = max(max_latency[0], res.latency)
                checker.record(oid, object_size, blob, res.version, env.now)
            if think_time > 0.0:
                yield env.timeout(think_time)

    chaos_proc = controller.start()
    workers = [
        env.process(io_context(i), name=f"chaos-client-{i}")
        for i in range(clients)
    ]
    env.run(until=chaos_proc)
    for w in workers:
        env.run(until=w)

    # final heal: per-operation fault injection stops here — the oracle
    # promises "once the faults stop and the cluster settles, every
    # acked write is intact", and an open-ended probabilistic spec
    # would otherwise fail the verifier's own reads forever.  Recovery
    # triggered by the last client writes may still be trailing; settle
    # before judging durability.
    if fault_plan is not None:
        fault_plan.quiesce(env.now)
    settle = env.process(controller.wait_all_clean(), name="chaos-settle")
    env.run(until=settle)

    verify = env.process(checker.verify(client), name="chaos-verify")
    env.run(until=verify)

    from .bench.metrics import collect_health_report

    health = collect_health_report(cluster, controller).as_dict()
    return ChaosReport(
        mode=mode,
        seed=seed,
        sim_elapsed=env.now,
        writes_acked=checker.writes_recorded,
        writes_failed=failed[0],
        objects_verified=checker.objects_verified,
        replicas_compared=checker.replicas_compared,
        violations=list(checker.violations),
        incidents=list(controller.events),
        recovery_to_clean=list(controller.recovery_to_clean),
        settle_timeouts=controller.settle_timeouts,
        max_op_latency=max_latency[0],
        latency_bound=bound,
        acked_objects={
            oid: (rec.size, rec.version)
            for oid, rec in checker.acked.items()
        },
        health=health,
        wire_incidents=collect_wire_incidents(cluster),
        qos_incidents=collect_qos_incidents(cluster) if tenants else {},
    )
