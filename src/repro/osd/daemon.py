"""The OSD daemon: request dispatch, primary-copy replication, recovery
hooks.

Thread structure mirrors Figure 2 of the paper:

* the messenger's ``msgr-worker`` threads fast-dispatch decoded messages
  into the OSD's op queue (steps ②–③);
* ``tp_osd_tp`` worker threads pop ops (step ④), do the PG-level
  processing, submit transactions to the ObjectStore (step ⑤) and issue
  replication messages back through the messenger (steps ⑥–⑧);
* commit completions are event-driven (Ceph's on_commit contexts):
  worker threads never block on I/O, so a small thread pool sustains
  deep client concurrency;
* once the local commit and every replica ack arrive, the client reply
  goes out (step ⑨).

The same daemon runs unmodified on the host (Baseline) or on the DPU
(DoCeph) — only the CPU complex behind its threads and the ObjectStore
behind ``self.store`` change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional

from ..hw.cpu import SimThread
from ..msgr.heartbeat import HeartbeatAgent
from ..msgr.message import (
    Message,
    MOSDBeacon,
    MOSDOp,
    MOSDOpReply,
    MOSDPGPull,
    MOSDPGPush,
    MOSDPGPushReply,
    MOSDPing,
    MOSDRepOp,
    MOSDRepOpReply,
    OpType,
)
from ..msgr.messenger import AsyncMessenger, Connection
from ..objectstore.api import NoSuchObject, ObjectStore, StoreError, Transaction
from ..rados.osdmap import OsdMap
from ..rados.types import PgId
from ..sim import AllOf, Event
from ..sim.exceptions import Interrupt
from .opqueue import (
    CLIENT_OP,
    RECOVERY_OP,
    SUB_OP,
    QosSpec,
    WeightedPriorityQueue,
)
from .pg import PlacementGroup
from .recovery import RecoveryManager

__all__ = ["OsdDaemon", "OsdConfig", "OSD_CATEGORY"]

#: Thread category for OSD worker threads (Ceph's "tp_osd_tp").
OSD_CATEGORY = "tp_osd_tp"


@dataclass(frozen=True, slots=True)
class OsdConfig:
    """OSD thread counts and CPU cost constants."""

    op_threads: int = 2
    """tp_osd_tp worker count (Ceph osd_op_num_threads_per_shard × shards)."""

    dispatch_cpu: float = 1.5e-6
    """Fast-dispatch cost in the messenger worker (enqueue only)."""

    op_cpu: float = 15.0e-6
    """Per-client-op PG processing: pg lock, object context, op checks."""

    repop_cpu: float = 8.0e-6
    """Per-replicated-op processing on a replica."""

    reply_cpu: float = 4.0e-6
    """Building and queueing the client reply."""

    heartbeat_interval: float = 1.0
    """Peer ping period in seconds."""


class _InFlightWrite:
    """Tracks one client write until commit + all replica acks."""

    __slots__ = ("acks", "failed")

    def __init__(self, replicas: list[str], env: Any) -> None:
        #: replica address -> the event its reply triggers
        self.acks: dict[str, Event] = {addr: env.event() for addr in replicas}
        #: a replica reported it could not persist the sub-op: the op
        #: must fail to the client (acking a write that some replica
        #: does not hold silently breaks durability)
        self.failed = False

    def ack(self, src: str, ok: bool = True) -> None:
        """Take the reply of the replica at ``src``.  A sub-op
        retransmitted after a wire reset is applied and answered again,
        so a second reply from one replica is ignored, as is a reply
        from an OSD the sub-op was not sent to."""
        event = self.acks.get(src)
        if event is None or event.triggered:
            return
        if not ok:
            self.failed = True
        event.succeed()


class OsdDaemon:
    """One Object Storage Daemon."""

    __slots__ = (
        "osd_id",
        "name",
        "messenger",
        "store",
        "osdmap",
        "config",
        "env",
        "pgs",
        "member_pgs",
        "_op_queue",
        "_op_threads",
        "_completion_thread",
        "_op_procs",
        "_repop_tid",
        "_inflight",
        "heartbeat",
        "recovery",
        "alive",
        "incarnation",
        "_beacon_proc",
        "_beacon_cfg",
        "_hb_started",
        "_recovery_cfg",
        "_down_handled",
        "client_ops",
        "bytes_written",
        "bytes_read",
        "crashes",
        "restarts",
        "rejoins",
        "misdirected_ops",
        "objects_discarded",
        "_qos_specs",
    )

    def __init__(
        self,
        osd_id: int,
        messenger: AsyncMessenger,
        store: ObjectStore,
        osdmap: OsdMap,
        config: Optional[OsdConfig] = None,
    ) -> None:
        self.osd_id = osd_id
        self.name = f"osd.{osd_id}"
        self.messenger = messenger
        self.store = store
        self.osdmap = osdmap
        self.config = config or OsdConfig()
        self.env = messenger.env

        messenger.register_dispatcher(self)

        self.pgs: dict[PgId, PlacementGroup] = {}
        #: PGs whose data this OSD holds (drives recovery detection).
        self.member_pgs: set[PgId] = set()
        self._op_queue = WeightedPriorityQueue(self.env, seed=osd_id)
        cpu = messenger.stack.cpu
        self._op_threads = [
            SimThread(cpu, f"{self.name}.tp_osd_tp-{i}", OSD_CATEGORY)
            for i in range(self.config.op_threads)
        ]
        self._completion_thread = SimThread(
            cpu, f"{self.name}.tp_osd_tp-complete", OSD_CATEGORY
        )
        self._op_procs = self._start_op_loops()

        self._repop_tid = 0
        self._inflight: dict[int, _InFlightWrite] = {}
        self.heartbeat: Optional[HeartbeatAgent] = None
        self.recovery: Optional[RecoveryManager] = None

        # lifecycle: crash() flips alive and bumps incarnation so that
        # completions spawned before the crash cannot speak for the
        # restarted daemon
        self.alive = True
        self.incarnation = 0
        self._beacon_proc: Optional[Any] = None
        self._beacon_cfg: Optional[tuple[str, float]] = None
        self._hb_started = False
        self._recovery_cfg: Optional[tuple[list[str], float]] = None
        #: set once the daemon has resynced after being marked down, so
        #: a partition-rejoin (no crash) also discards its stale copies
        self._down_handled = True
        #: tenant -> QosSpec, survives crash/restart (config, not state)
        self._qos_specs: dict[str, QosSpec] = {}

        # statistics
        self.client_ops = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.crashes = 0
        self.restarts = 0
        self.rejoins = 0
        self.misdirected_ops = 0
        self.objects_discarded = 0

    # ---------------------------------------------------------------- lifecycle
    def activate_pgs(self, pool_name: str) -> Generator[Any, Any, None]:
        """Create local state (and backing collections) for every PG this
        OSD participates in.  Run at cluster bring-up."""
        txn = Transaction()
        for pgid in self.osdmap.all_pgs(pool_name):
            acting = self.osdmap.pg_to_osds(pgid)
            if self.osd_id in acting:
                pg = PlacementGroup(pgid, acting, self.osd_id)
                self.pgs[pgid] = pg
                self.member_pgs.add(pgid)
                self.osdmap.record_pg_holder(pgid, self.osd_id, full=True)
                txn.create_collection(pg.collection)
        if txn.num_ops:
            yield from self.store.queue_transaction(txn, self._op_threads[0])

    def start_heartbeats(self) -> None:
        """Begin pinging peer OSDs.

        The agent recomputes its peer set from the shared OSDMap each
        interval: peers marked down stop being pinged, and
        unreachable-but-up peers are reported in beacons.
        """
        self._hb_started = True
        self.heartbeat = HeartbeatAgent(
            self.messenger, self.osdmap, self.osd_id,
            interval=self.config.heartbeat_interval,
        )

    def start_mon_beacon(self, mon_addr: str, interval: float = 1.0) -> None:
        """Begin sending liveness beacons to the monitor."""
        self._beacon_cfg = (mon_addr, interval)
        self._beacon_proc = self.env.process(
            self._beacon_loop(mon_addr, interval), name=f"{self.name}.beacon"
        )

    def _beacon_loop(
        self, mon_addr: str, interval: float
    ) -> Generator[Any, Any, None]:
        tid = 0
        try:
            while True:
                up = self.osdmap.is_up(self.osd_id)
                if up:
                    self._down_handled = False
                elif not self._down_handled:
                    # marked down while still running (partition, false
                    # positive): other OSDs may have taken over our PGs,
                    # so discard stale copies before rejoining — exactly
                    # what a restart does, minus the process teardown
                    self._down_handled = True
                    self.rejoins += 1
                    yield from self._resync_store()
                failed: tuple[int, ...] = ()
                if self.heartbeat is not None:
                    failed = tuple(
                        self.heartbeat.failed_peer_ids(self.env.now)
                    )
                tid += 1
                self.messenger.send_message(
                    MOSDBeacon(tid=tid, osd_id=self.osd_id,
                               map_epoch=self.osdmap.epoch,
                               failed_peers=failed),
                    mon_addr,
                )
                yield self.env.timeout(interval)
        except Interrupt:
            return

    def enable_recovery(self, pool_names: list[str],
                        tick: float = 1.0) -> None:
        """Start the background recovery manager."""
        self._recovery_cfg = (list(pool_names), tick)
        self.recovery = RecoveryManager(self, pool_names, tick=tick)

    def set_qos(self, tenant: str, spec: QosSpec) -> None:
        """Install the mClock share for ``tenant`` on this OSD's queue
        (persisted across crash/restart — it is configuration)."""
        self._qos_specs[tenant] = spec
        self._op_queue.set_tenant(tenant, spec)

    def qos_stats(self) -> dict[str, int]:
        """mClock scheduler counters (this incarnation's queue)."""
        q = self._op_queue
        return {
            "tagged_enqueued": q.tagged_enqueued,
            "reservation_served": q.reservation_served,
            "weight_served": q.weight_served,
            "limit_deferrals": q.limit_deferrals,
        }

    # ---------------------------------------------------------------- crash
    def crash(self) -> None:
        """Kill the daemon: all sim processes stop, in-flight ops and
        connections drop, un-acked state is forgotten.  The ObjectStore
        survives (it is the disk).  Idempotent while down."""
        if not self.alive:
            return
        self.alive = False
        self.crashes += 1
        self.incarnation += 1
        self.messenger.shutdown()
        for proc in self._op_procs:
            if proc.is_alive:
                proc.interrupt("osd crash")
        self._op_procs = []
        if self._beacon_proc is not None and self._beacon_proc.is_alive:
            self._beacon_proc.interrupt("osd crash")
        self._beacon_proc = None
        if self.heartbeat is not None:
            self.heartbeat.stop()
            self.heartbeat = None
        if self.recovery is not None:
            self.recovery.stop()
            self.recovery = None
        # anything queued dies with the daemon; the old queue may hold
        # stale waiters from the interrupted loops, so replace it
        self._inflight.clear()
        self.pgs.clear()
        self._op_queue = WeightedPriorityQueue(
            self.env, seed=self.osd_id + (self.incarnation << 16)
        )
        for tenant, spec in self._qos_specs.items():
            self._op_queue.set_tenant(tenant, spec)

    def restart(self) -> Generator[Any, Any, None]:
        """Boot the daemon again on its surviving ObjectStore.

        Stale PG copies (PGs that now have other up members) are
        discarded *before* the messenger comes back, so no traffic can
        interleave with the resync; recovery then re-pulls them and the
        next beacon re-registers us with the monitor."""
        if self.alive:
            return
        self.restarts += 1
        yield from self._resync_store()
        # Rebuild in-memory PG state for the copies the resync kept
        # (crash() cleared ``pgs``; a survivor-free or equal-generation
        # copy stays a member and must serve again without a re-pull).
        for pgid in sorted(self.member_pgs,
                           key=lambda p: (p.pool, p.seed)):
            self.refresh_pg(pgid)
        self._down_handled = True
        self._op_procs = self._start_op_loops()
        self.messenger.startup()
        self.alive = True
        if self._hb_started:
            self.start_heartbeats()
        if self._recovery_cfg is not None:
            self.enable_recovery(*self._recovery_cfg)
        if self._beacon_cfg is not None:
            self.start_mon_beacon(*self._beacon_cfg)

    def _resync_store(self) -> Generator[Any, Any, None]:
        """Discard local copies of PGs another *full* holder now serves.

        Our copy may miss writes acked while we were gone; a surviving
        full holder's copy is authoritative, and recovery will re-pull
        the PG from it.  A survivor only qualifies if its content
        generation is *strictly above* ours: any write acked during our
        absence necessarily bumped the generation (we were a registered
        full holder outside the acting set), so equal generations prove
        our copy missed nothing and discarding it would only force a
        pointless full re-stream.  A survivor *below* ours means our
        copy holds acked writes the survivor never received (we took
        them while it was down), and discarding against it would
        destroy their last copy.  If no up OSD qualifies — the others
        are down too, at or behind our generation, or only interim
        (partial) holders accepted writes while everyone was out — we
        keep our data and our membership: recovery merges the divergent
        copies instead."""
        thread = self._completion_thread
        for pgid in sorted(self.member_pgs,
                           key=lambda p: (p.pool, p.seed)):
            acting = self.osdmap.pg_to_osds(pgid)
            if not any(o != self.osd_id for o in acting):
                continue
            my_gen = self.osdmap.holder_gen(pgid, self.osd_id)
            survivors = [
                o for o in self.osdmap.full_holders_of(pgid)
                if o != self.osd_id and self.osdmap.is_up(o)
                and self.osdmap.holder_gen(pgid, o) > my_gen
            ]
            if not survivors:
                continue
            coll = str(pgid)
            try:
                names = yield from self.store.list_objects(coll, thread)
            except StoreError:
                names = []
            if names:
                txn = Transaction()
                for name in names:
                    txn.remove(coll, name)
                try:
                    yield from self.store.queue_transaction(txn, thread)
                except StoreError:
                    pass
                self.objects_discarded += len(names)
            self.member_pgs.discard(pgid)
            self.pgs.pop(pgid, None)
            self.osdmap.drop_pg_holder(pgid, self.osd_id)
            if self.recovery is not None:
                self.recovery.forget_pg(pgid)

    def refresh_pg(self, pgid: PgId) -> PlacementGroup:
        """Re-read the acting set from the (possibly newer) OSDMap."""
        acting = self.osdmap.pg_to_osds(pgid)
        pg = self.pgs.get(pgid)
        if pg is None or pg.acting != acting:
            clean = pg.clean if pg is not None else True
            pg = PlacementGroup(pgid, acting, self.osd_id, clean=clean)
            self.pgs[pgid] = pg
        return pg

    # ---------------------------------------------------------------- dispatch
    def ms_dispatch(
        self, msg: Message, conn: Connection
    ) -> Generator[Any, Any, None]:
        """Fast dispatch, runs in the messenger worker (keep it light)."""
        if isinstance(msg, MOSDOp):
            ctx = getattr(msg, "span_ctx", None)
            if ctx is not None:
                span = ctx.start_span(
                    "osd.op", self.env.now,
                    cpu=self.messenger.stack.cpu.name,
                    category=OSD_CATEGORY,
                    thread_name=f"{self.name}.tp_osd_tp",
                    nbytes=msg.length,
                )
                span.tag("osd", self.osd_id)
                span.tag("op", msg.op.name)
                if msg.tenant:
                    span.tag("tenant", msg.tenant)
                msg.op_span = span  # type: ignore[attr-defined]
            _mark(msg, self.env.now, "queued_for_pg")
            self._op_queue.enqueue(msg, CLIENT_OP,
                                   tenant=msg.tenant or None)
        elif isinstance(msg, MOSDRepOp):
            self._op_queue.enqueue(msg, SUB_OP)
        elif isinstance(msg, (MOSDPGPull, MOSDPGPush)):
            self._op_queue.enqueue(msg, RECOVERY_OP)
        elif isinstance(msg, MOSDPGPushReply):
            if self.recovery is not None:
                self.recovery.handle_push_reply(msg)
            _release(msg)
        elif isinstance(msg, MOSDRepOpReply):
            inflight = self._inflight.get(msg.tid)
            if inflight is not None:
                inflight.ack(msg.src, ok=msg.result == 0)
            _release(msg)
        elif isinstance(msg, MOSDPing):
            if self.heartbeat is not None:
                reply = self.heartbeat.handle_ping(msg)
                if reply is not None:
                    self.messenger.send_message(reply, msg.src)
            elif not msg.is_reply:
                self.messenger.send_message(
                    MOSDPing(tid=msg.tid, is_reply=True, stamp=msg.stamp),
                    msg.src,
                )
            _release(msg)
        else:
            _release(msg)
        if False:  # keep the generator form the messenger expects
            yield

    def _start_op_loops(self) -> list[Any]:
        return [
            self.env.process(
                self._op_loop(t), name=f"{self.name}.tp_osd_tp-{i}"
            )
            for i, t in enumerate(self._op_threads)
        ]

    def _op_loop(self, thread: SimThread) -> Generator[Any, Any, None]:
        """One ``tp_osd_tp`` worker: pop an op, pay the context switch,
        dispatch by message type.  Ends when :meth:`crash` interrupts
        it, whichever park it is at."""
        try:
            while True:
                msg = yield self._op_queue.dequeue()
                yield from thread.ctx_switch()
                if isinstance(msg, MOSDOp):
                    if msg.op == OpType.WRITE:
                        yield from self._handle_client_write(msg, thread)
                    elif msg.op == OpType.READ:
                        yield from self._handle_client_read(msg, thread)
                    elif msg.op == OpType.STAT:
                        yield from self._handle_client_stat(msg, thread)
                elif isinstance(msg, MOSDRepOp):
                    yield from self._handle_repop(msg, thread)
                elif isinstance(msg, MOSDPGPull):
                    if self.recovery is not None:
                        self.recovery.handle_pull(msg)
                    _release(msg)
                elif isinstance(msg, MOSDPGPush):
                    if self.recovery is not None:
                        self.env.process(
                            self.recovery.handle_push(msg),
                            name=f"{self.name}.recv-push",
                        )
                    else:
                        _release(msg)
        except Interrupt:
            return

    def _misdirected(self, msg: MOSDOp, pgid: PgId) -> bool:
        """Drop a client op we are not the current primary for.

        A daemon the monitor has marked down may still be processing
        queued ops against a map that excludes it; replicating to
        ``acting[1:]`` of *that* map and acking would lose the write
        when this daemon later resyncs.  Dropping without a reply lets
        the client's timeout resend to the real primary (Ceph's
        misdirected-op discard)."""
        acting = self.osdmap.pg_to_osds(pgid)
        if not self.alive or not acting or acting[0] != self.osd_id:
            self.misdirected_ops += 1
            span = getattr(msg, "op_span", None)
            if span is not None:
                span.error(self.env.now, "misdirected")
            _release(msg)
            return True
        return False

    # -- client write (primary) ------------------------------------------------
    def _handle_client_write(
        self, msg: MOSDOp, thread: SimThread
    ) -> Generator[Any, Any, None]:
        yield from thread.charge(self.config.op_cpu)
        _mark(msg, self.env.now, "reached_pg")
        pgid = self.osdmap.object_to_pg(msg.pool, msg.object_name)
        if self._misdirected(msg, pgid):
            return
        pg = self.refresh_pg(pgid)
        assert msg.data is not None, "WRITE op without payload"

        txn = Transaction()
        # Writes some registered full holder will miss bump the PG's
        # content generation: copies without them are stale and must
        # not serve as discard survivors or settle as clean.  The
        # acting set is *credited* at the new generation only on ack
        # (``gen_credit`` applied in :meth:`_commit_and_reply`):
        # registering at entry would let a concurrent recovery pull
        # capture the generation before the data is readable in the
        # store, handing the puller a "full" copy that silently lacks
        # this write.
        gen_credit: list[tuple[int, bool | None, int]] = []
        if pgid not in self.member_pgs:
            # remapped PG whose backfill hasn't started yet: create the
            # collection so fresh writes land (recovery pulls the rest),
            # and register as a partial holder so these acked writes are
            # merged back once the full holders return.  The replicas
            # persist this write too (repop below), so credit them at
            # the same generation — leaving them behind would send
            # every acting member on a pointless catch-up pull per
            # write.
            txn.create_collection(pg.collection)
            interim_gen = self.osdmap.bump_pg_gen(pgid)
            gen_credit.append((self.osd_id, False, interim_gen))
            for replica in pg.replicas:
                gen_credit.append((replica, None, interim_gen))
        else:
            full_holders = self.osdmap.full_holders_of(pgid)
            if (len(pg.acting) < self.osdmap.pools[pgid.pool].size
                    or any(o not in pg.acting for o in full_holders)):
                # degraded write: a member is down and will miss it —
                # the absent holder's copy must not later justify
                # discarding the only copies of this write.  A member
                # that is no registered holder counts too: it may
                # return and pull before this write is readable here,
                # and only a higher generation sends it back for it.
                gen = self.osdmap.bump_pg_gen(pgid)
                gen_credit.append((self.osd_id, None, gen))
                for replica in pg.replicas:
                    gen_credit.append((replica, None, gen))
        txn.write(
            pg.collection, msg.object_name, msg.offset, msg.length, msg.data
        )
        op_span = getattr(msg, "op_span", None)
        if op_span is not None:
            txn.span_ctx = op_span.context
        inflight = _InFlightWrite(
            [self.osdmap.address_of(r) for r in pg.replicas], self.env
        )
        self._repop_tid += 1
        repop_tid = self._repop_tid
        if pg.replicas:
            self._inflight[repop_tid] = inflight
        for replica in pg.replicas:
            rep = MOSDRepOp(
                tid=repop_tid,
                pool=msg.pool,
                pg_seed=pgid.seed,
                object_name=msg.object_name,
                length=msg.length,
                offset=msg.offset,
                data=msg.data,
                map_epoch=self.osdmap.epoch,
            )
            if op_span is not None:
                rep.span_ctx = op_span.context  # type: ignore[attr-defined]
            self.messenger.send_message(
                rep, self.osdmap.address_of(replica)
            )
        if pg.replicas:
            _mark(msg, self.env.now, "sub_op_sent")

        pg.record_write(msg.length)
        self.client_ops += 1
        self.bytes_written += msg.length
        self.env.process(
            self._commit_and_reply(msg, txn, inflight, repop_tid,
                                   pgid, gen_credit),
            name=f"{self.name}.commit.{msg.tid}",
        )

    def _commit_and_reply(
        self,
        msg: MOSDOp,
        txn: Transaction,
        inflight: _InFlightWrite,
        repop_tid: int,
        pgid: PgId,
        gen_credit: list[tuple[int, bool | None, int]],
    ) -> Generator[Any, Any, None]:
        inc = self.incarnation
        _mark(msg, self.env.now, "queued_transaction")
        local = self.env.process(
            self.store.queue_transaction(txn, self._completion_thread),
            name=f"{self.name}.txn.{msg.tid}",
        )
        result = 0
        try:
            yield AllOf(self.env, [local, *inflight.acks.values()])
        except StoreError:
            result = -22  # -EINVAL
        if inflight.failed:
            result = -22  # a replica could not persist: fail, never ack

        def commit() -> None:
            _mark(msg, self.env.now, "commit_received")
            self._inflight.pop(repop_tid, None)
            if result == 0:
                # the write is durable everywhere it was sent: only now
                # may the acting set's content generations reflect it (a
                # pull capturing the gen earlier would miss the
                # not-yet-readable data and still count as complete)
                for holder, full, gen in gen_credit:
                    self.osdmap.record_pg_holder(pgid, holder, full=full,
                                                 gen=gen)

        yield from self._reply(msg, inc, MOSDOpReply(tid=msg.tid,
                                                     result=result), commit)

    def _reply(
        self,
        msg: MOSDOp,
        inc: int,
        reply: MOSDOpReply,
        commit: Optional[Callable[[], None]] = None,
    ) -> Generator[Any, Any, None]:
        """Send a client op's reply from its completion process.

        A daemon that crashed since incarnation ``inc`` sends nothing:
        it never answers on behalf of a later incarnation (the client
        resends).  ``commit`` is a write's: it runs once that fence has
        passed, the reply then carries the map epoch it is sent in, and
        the op's span finishes ``ok`` or ``error``."""
        op_span = msg.op_span
        if self.incarnation != inc or not self.alive:
            if op_span is not None:
                op_span.error(self.env.now, "osd-crashed")
            _release(msg)
            return
        if commit is not None:
            commit()
        yield from self._completion_thread.charge(self.config.reply_cpu)
        status = None
        if commit is not None:
            reply.version = self.osdmap.epoch
            status = "error" if reply.result != 0 else "ok"
        if op_span is not None:
            reply.span_ctx = msg.span_ctx  # type: ignore[attr-defined]
            reply.origin_span = op_span  # type: ignore[attr-defined]
        self.messenger.send_message(reply, msg.src)
        _release(msg)
        if op_span is not None:
            op_span.finish(self.env.now, status=status)

    # -- client read and stat ----------------------------------------------------
    def _handle_client_read(
        self, msg: MOSDOp, thread: SimThread
    ) -> Generator[Any, Any, None]:
        yield from thread.charge(self.config.op_cpu)
        pgid = self.osdmap.object_to_pg(msg.pool, msg.object_name)
        if self._misdirected(msg, pgid):
            return
        pg = self.refresh_pg(pgid)
        pg.record_read(msg.length)
        self.client_ops += 1
        self.bytes_read += msg.length
        self.env.process(
            self._read_and_reply(msg, pg), name=f"{self.name}.read.{msg.tid}"
        )

    def _read_and_reply(
        self, msg: MOSDOp, pg: PlacementGroup
    ) -> Generator[Any, Any, None]:
        inc = self.incarnation
        op_span = msg.op_span
        try:
            blob = yield from self.store.read(
                pg.collection, msg.object_name, msg.offset, msg.length,
                self._completion_thread,
                span_ctx=op_span.context if op_span is not None else None,
            )
            reply = MOSDOpReply(tid=msg.tid, result=0, data=blob)
        except NoSuchObject:
            reply = MOSDOpReply(tid=msg.tid, result=-2)  # -ENOENT
        except StoreError:
            # Backend failure that isn't fail-stop (e.g. a proxied
            # store's RPC timing out): error the op, don't kill the OSD.
            reply = MOSDOpReply(tid=msg.tid, result=-5)  # -EIO
        yield from self._reply(msg, inc, reply)

    def _handle_client_stat(
        self, msg: MOSDOp, thread: SimThread
    ) -> Generator[Any, Any, None]:
        yield from thread.charge(self.config.op_cpu)
        pgid = self.osdmap.object_to_pg(msg.pool, msg.object_name)
        if self._misdirected(msg, pgid):
            return
        pg = self.refresh_pg(pgid)
        self.env.process(self._stat_and_reply(msg, pg, self.incarnation),
                         name=f"{self.name}.stat.{msg.tid}")

    def _stat_and_reply(
        self, msg: MOSDOp, pg: PlacementGroup, inc: int
    ) -> Generator[Any, Any, None]:
        try:
            st = yield from self.store.stat(
                pg.collection, msg.object_name, self._completion_thread
            )
            reply = MOSDOpReply(tid=msg.tid, result=0, version=st.version,
                                attachment=st)
        except NoSuchObject:
            reply = MOSDOpReply(tid=msg.tid, result=-2)
        except StoreError:
            reply = MOSDOpReply(tid=msg.tid, result=-5)  # -EIO
        yield from self._reply(msg, inc, reply)

    # -- replica side -----------------------------------------------------------------
    def _handle_repop(
        self, msg: MOSDRepOp, thread: SimThread
    ) -> Generator[Any, Any, None]:
        yield from thread.charge(self.config.repop_cpu)
        pgid = PgId(self.osdmap.pool_by_name(msg.pool).id, msg.pg_seed)
        pg = self.refresh_pg(pgid)
        ctx = getattr(msg, "span_ctx", None)
        if ctx is not None:
            repop_span = ctx.start_span(
                "osd.repop", self.env.now, thread=thread,
                nbytes=msg.length,
            )
            repop_span.tag("osd", self.osd_id)
            msg.repop_span = repop_span  # type: ignore[attr-defined]
        txn = Transaction()
        if pgid not in self.member_pgs:
            txn.create_collection(pg.collection)
            self.osdmap.record_pg_holder(
                pgid, self.osd_id, full=False,
                gen=self.osdmap.bump_pg_gen(pgid),
            )
        txn.write(
            pg.collection, msg.object_name, msg.offset, msg.length, msg.data
        )
        if ctx is not None:
            txn.span_ctx = msg.repop_span.context  # type: ignore[attr-defined]
        self.env.process(
            self._apply_repop(msg, txn), name=f"{self.name}.repop.{msg.tid}"
        )

    def _apply_repop(
        self, msg: MOSDRepOp, txn: Transaction
    ) -> Generator[Any, Any, None]:
        thread = self._completion_thread
        inc = self.incarnation
        result = 0
        repop_span = getattr(msg, "repop_span", None)
        try:
            yield from self.store.queue_transaction(txn, thread)
        except StoreError:
            result = -22  # -EINVAL
        if self.incarnation != inc or not self.alive:
            # committed to disk pre-crash, but the daemon that promised
            # the ack is gone; the primary stalls and the client resends
            if repop_span is not None:
                repop_span.error(self.env.now, "osd-crashed")
            _release(msg)
            return
        reply = MOSDRepOpReply(tid=msg.tid, result=result)
        if repop_span is not None:
            reply.span_ctx = getattr(msg, "span_ctx", None)  # type: ignore[attr-defined]
            reply.origin_span = repop_span  # type: ignore[attr-defined]
        self.messenger.send_message(reply, msg.src)
        _release(msg)
        if repop_span is not None:
            repop_span.finish(
                self.env.now, status="error" if result != 0 else "ok"
            )

    def __repr__(self) -> str:
        return f"<OsdDaemon {self.name} pgs={len(self.pgs)}>"


def _release(msg: Message) -> None:
    """Release the dispatch-throttle reservation attached to a message."""
    release = getattr(msg, "throttle_release", None)
    if release is not None:
        release()


def _mark(msg: Message, now: float, stage: str) -> None:
    """Record a stage transition as an event of the op's span (no-op
    untraced): the ``osd.op`` span is the one per-op stage record."""
    span = msg.op_span
    if span is not None:
        span.event(now, stage)
