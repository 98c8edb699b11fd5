"""PG recovery: re-replication after membership changes.

When the OSDMap remaps a PG onto an OSD that lacks its data (an OSD
died and was marked out, or a new OSD joined), the new acting-set
member *pulls* the PG from the peers that have it: each peer streams
its objects over the messenger as
:class:`~repro.msgr.message.MOSDPGPush` messages at recovery priority,
windowed so background recovery cannot swamp client I/O.

Who has the data comes from the OSDMap's holder registry
(:meth:`~repro.rados.osdmap.OsdMap.holders_of`), not from the acting
set: an acting member that never recovered the PG holds nothing and
must not be treated as a source — nor may it declare itself a member
just because it is currently the only one mapped (that is how acked
writes used to vanish: an empty interim primary became authoritative
and the returning real holders discarded their copies against it).
A puller drains the *union* of every reachable holder and only counts
itself a full member once at least one drained source held a full
copy; until then the PG stays unclean and client-acked interim writes
are merged back when the full holders return.

Merging is *symmetric* and driven by content generations.  Writes that
miss a registered full holder bump the PG's generation (see
:meth:`~repro.rados.osdmap.OsdMap.bump_pg_gen`), so a member whose
generation trails any holder's knows it is missing acked writes and
pulls the union again; and a puller that holds objects a source's
stream did not include pushes them back to that source when the stream
ends.  Either direction alone loses data to a race: a one-way pull
folds interim writes into the puller's copy while the old full holder
— still registered full — never hears of them, and a later resync
discards the merged copy's "redundant" twin against it.  The two
mechanisms together make every recovery episode converge all reachable
copies to the union of acked writes.

Divergent copies are merged object-by-object as unions (pushes never
clobber an existing local object).  That is sound while the workload
creates distinct object names — concurrent conflicting writes to the
*same* name on partitioned holders would need version comparison this
model does not attempt (BlueStore onode versions are local counters).

This is the "recovery and rebalancing" traffic §1 of the paper counts
among the messenger's responsibilities — and under DoCeph it burns DPU
cycles instead of host cycles, which the recovery extension benchmark
demonstrates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, TYPE_CHECKING

from ..msgr.message import MOSDPGPull, MOSDPGPush, MOSDPGPushReply
from ..objectstore.api import StoreError, Transaction
from ..rados.types import PgId
from ..sim import Event
from ..sim.exceptions import Interrupt

if TYPE_CHECKING:
    from .daemon import OsdDaemon

__all__ = ["RecoveryManager"]

#: Pushes one recovery stream keeps in flight before it waits for acks.
_MAX_PUSH_INFLIGHT = 2


@dataclass(slots=True)
class _PushWindow:
    """Flow control for one outgoing recovery stream."""

    inflight: int = 0
    waiters: list[Event] = field(default_factory=list)


class RecoveryManager:
    """Per-OSD recovery logic (both puller and pusher roles)."""

    __slots__ = (
        "osd",
        "env",
        "pool_names",
        "tick",
        "pull_timeout",
        "_pulling",
        "_pull_progress",
        "_pull_attempts",
        "_pull_pending",
        "_persists",
        "_deferred_last",
        "_pulled_from",
        "_pulled_full",
        "_recv_names",
        "_tid",
        "_windows",
        "pulls_sent",
        "pulls_retried",
        "pushes_sent",
        "objects_recovered",
        "bytes_recovered",
        "pgs_recovered",
        "_proc",
    )

    def __init__(
        self,
        osd: OsdDaemon,
        pool_names: list[str],
        tick: float = 1.0,
    ) -> None:
        self.osd = osd
        self.env = osd.env
        self.pool_names = pool_names
        self.tick = tick
        #: re-issue a pull whose stream stalls this long (pusher died or
        #: a partition ate the pull/push messages)
        self.pull_timeout = max(5.0, 5.0 * tick)

        self._pulling: dict[PgId, float] = {}  # pgid -> pull start time
        #: pgid -> time the episode last made progress (a push arrived);
        #: a long healthy stream is not "stalled" — only silence is
        self._pull_progress: dict[PgId, float] = {}
        self._pull_attempts: dict[PgId, int] = {}
        #: pgid -> {source address: (source osd, holds full copy,
        #: source's content gen at pull start)} still owing a 'last'
        #: push this episode
        self._pull_pending: dict[PgId, dict[str, tuple[int, bool, int]]] = {}
        #: pgid -> {source: gen drained at} this recovery episode (so a
        #: wait for a missing full holder does not re-pull unchanged
        #: sources every tick; a source that takes new writes bumps its
        #: gen and is pulled again)
        self._pulled_from: dict[PgId, dict[int, int]] = {}
        #: pgid -> a drained source held a full copy
        self._pulled_full: dict[PgId, bool] = {}
        #: pgid -> {source address: object names its stream delivered}
        #: — at episode end, local objects a source never sent are
        #: pushed back to it (the symmetric half of the merge)
        self._recv_names: dict[PgId, dict[str, set]] = {}
        #: pgid -> data pushes whose local persist is still in flight;
        #: a stream's 'last' must not credit the episode while one of
        #: its objects has not durably landed in the (possibly proxied)
        #: store
        self._persists: dict[PgId, int] = {}
        #: pgid -> 'last' markers waiting for in-flight persists to
        #: drain before completing their source
        self._deferred_last: dict[PgId, list[tuple[str, tuple, tuple]]] = {}
        self._tid = 0
        self._windows: dict[int, _PushWindow] = {}  # push tid -> window

        # statistics
        self.pulls_sent = 0
        self.pulls_retried = 0
        self.pushes_sent = 0
        self.objects_recovered = 0
        self.bytes_recovered = 0
        self.pgs_recovered = 0

        self._proc = self.env.process(
            self._tick_loop(), name=f"{osd.name}.recovery"
        )

    def stop(self) -> None:
        """Halt the detection loop (daemon crash/shutdown)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("recovery stop")
        self._proc = None

    # ---------------------------------------------------------------- detection
    def _tick_loop(self) -> Generator[Any, Any, None]:
        try:
            while True:
                yield self.env.timeout(self.tick)
                for pool in self.pool_names:
                    for pgid in self.osd.osdmap.all_pgs(pool):
                        self._check_pg(pool, pgid)
        except Interrupt:
            return

    def forget_pg(self, pgid: PgId) -> None:
        """Reset recovery bookkeeping for a PG (its local copy was
        discarded by a resync, so any episode in flight is void)."""
        self._pulling.pop(pgid, None)
        self._pull_progress.pop(pgid, None)
        self._pull_attempts.pop(pgid, None)
        self._pull_pending.pop(pgid, None)
        self._pulled_from.pop(pgid, None)
        self._pulled_full.pop(pgid, None)
        self._recv_names.pop(pgid, None)
        self._deferred_last.pop(pgid, None)

    def _check_pg(self, pool: str, pgid: PgId) -> None:
        osd = self.osd
        osdmap = osd.osdmap
        acting = osdmap.pg_to_osds(pgid)
        if osd.osd_id not in acting:
            return
        member = pgid in osd.member_pgs
        drained = self._pulled_from.get(pgid, {})
        my_gen = osdmap.holder_gen(pgid, osd.osd_id)
        if member:
            # Merge-back: a holder with a higher content generation has
            # acked writes this copy misses (interim writes taken while
            # the full holders were down, or a merge that folded such
            # writes in); pull the union from every such holder.
            sources = [
                o for o in osdmap.holders_of(pgid)
                if o != osd.osd_id and osdmap.is_up(o)
                and osdmap.holder_gen(pgid, o) > my_gen
            ]
            if not sources and pgid not in self._pulling:
                return
        else:
            holders = osdmap.holders_of(pgid)
            if not holders:
                # Brand-new PG nobody has ever held: sole-create it.
                osd.member_pgs.add(pgid)
                osdmap.record_pg_holder(
                    pgid, osd.osd_id, full=True, gen=osdmap.pg_gen(pgid)
                )
                osd.refresh_pg(pgid)
                self.forget_pg(pgid)
                return
            # Never claim an existing PG without data: if no holder is
            # up, the PG is unavailable until one returns — an empty
            # acting member declaring itself authoritative is how acked
            # writes die.  A source drained earlier this episode is
            # skipped unless it has since taken writes (its gen moved).
            sources = [
                o for o in holders
                if o != osd.osd_id and osdmap.is_up(o)
                and (o not in drained
                     or osdmap.holder_gen(pgid, o) > drained[o])
            ]
        started = self._pulling.get(pgid)
        if started is not None:
            last_alive = max(started, self._pull_progress.get(pgid, started))
            if self.env.now - last_alive < self.pull_timeout:
                return
            # stalled: no push arrived for a full timeout — the pusher
            # died or a partition ate the stream.  (A merely *long*
            # stream keeps refreshing its progress stamp and is never
            # restarted: re-issuing a live stream piles concurrent
            # full streams onto the same peers and collapses recovery.)
            self._pulling.pop(pgid, None)
            self._pull_progress.pop(pgid, None)
            self._pull_pending.pop(pgid, None)
            self._deferred_last.pop(pgid, None)
            self.pulls_retried += 1
        if not sources:
            return  # wait for a data-bearing peer to come up
        full_set = set(osdmap.full_holders_of(pgid))
        sources_info = [
            (o, o in full_set, osdmap.holder_gen(pgid, o)) for o in sources
        ]
        self._pull_attempts[pgid] = self._pull_attempts.get(pgid, 0) + 1
        self._pulling[pgid] = self.env.now
        self.env.process(
            self._start_pull(pool, pgid, sources_info),
            name=f"{self.osd.name}.pull.{pgid.seed:x}",
        )

    def _start_pull(
        self, pool: str, pgid: PgId,
        sources_info: list[tuple[int, bool, int]],
    ) -> Generator[Any, Any, None]:
        """Create the local collection, then ask every source to push.

        Pulling the *union* of all reachable holders matters: after an
        availability gap the full copy and the interim acked writes may
        live on different OSDs, and both must land here (pushes never
        clobber an existing local object, so arrival order is
        immaterial for distinct names).  Each source's content gen is
        captured *now*: a write landing on it mid-stream may miss the
        stream, so completion only credits the gen the pull asked for —
        the next tick sees the newer gen and pulls again.

        The pull advertises the local object inventory (``have``) so
        each source streams only the delta: a member catching up a
        content generation misses a handful of interim writes, and
        re-streaming the whole PG for them is what used to push
        episodes past the stall timeout."""
        osd = self.osd
        pg = osd.refresh_pg(pgid)
        pg.clean = False
        txn = Transaction().create_collection(pg.collection)
        try:
            yield from osd.store.queue_transaction(
                txn, osd._completion_thread
            )
            local = yield from osd.store.list_objects(
                pg.collection, osd._completion_thread
            )
        except StoreError:
            # backend unreachable (a proxied store's RPC timed out):
            # abort this episode, the next tick retries
            self._pulling.pop(pgid, None)
            self.pulls_retried += 1
            return
        have = tuple(sorted(local))
        pending = {
            osd.osdmap.address_of(source): (source, full, gen)
            for source, full, gen in sources_info
        }
        self._pull_pending[pgid] = pending
        for addr in sorted(pending):
            self._tid += 1
            self.pulls_sent += 1
            osd.messenger.send_message(
                MOSDPGPull(tid=self._tid, pool=pool, pg_seed=pgid.seed,
                           map_epoch=osd.osdmap.epoch, have=have),
                addr,
            )

    # ---------------------------------------------------------------- pusher
    def handle_pull(self, msg: MOSDPGPull) -> None:
        """A peer asked for this PG's objects (we have them)."""
        self.env.process(
            self._push_pg(msg), name=f"{self.osd.name}.push.{msg.pg_seed:x}"
        )

    def _push_pg(self, msg: MOSDPGPull) -> Generator[Any, Any, None]:
        osd = self.osd
        pool = osd.osdmap.pool_by_name(msg.pool)
        pgid = PgId(pool.id, msg.pg_seed)
        pg = osd.pgs.get(pgid)
        coll = str(pgid)
        thread = osd._completion_thread
        try:
            names = yield from osd.store.list_objects(coll, thread)
        except StoreError:
            # cannot enumerate the local copy (a proxied store's RPC
            # failed): stay silent rather than send an empty stream with
            # a clean 'last' marker — the puller would credit itself a
            # full copy it never received and an acked write becomes
            # unreachable through the new primary.  The puller's stall
            # timer retries the episode.
            return
        puller_has = set(msg.have)
        to_send = [n for n in names if n not in puller_has]
        skipped = tuple(sorted(n for n in names if n in puller_has))
        window = _PushWindow()
        incomplete = False
        sent_names: list[str] = []
        for name in to_send:
            try:
                blob = yield from osd.store.read(coll, name, 0, 1 << 62,
                                                 thread)
            except StoreError:
                # this object never made it onto the wire: the stream
                # is incomplete, so it must not carry a 'last' marker
                incomplete = True
                continue
            while window.inflight >= _MAX_PUSH_INFLIGHT:
                ev = self.env.event()
                window.waiters.append(ev)
                yield ev
            window.inflight += 1
            self._tid += 1
            self._windows[self._tid] = window
            self.pushes_sent += 1
            sent_names.append(name)
            osd.messenger.send_message(
                MOSDPGPush(
                    tid=self._tid, pool=msg.pool, pg_seed=msg.pg_seed,
                    object_name=name, length=blob.length, data=blob,
                ),
                msg.src,
            )
        if incomplete:
            return  # puller's stall timer re-pulls the missing delta
        # dedicated 'last' marker (no payload) after the data pushes: it
        # carries the skipped names so the puller knows the source's
        # full inventory when computing what to push back, and the
        # manifest of streamed names so the puller can detect a data
        # push the wire layer consumed (session drop, partition) and
        # refuse to credit a holed episode
        self._tid += 1
        osd.messenger.send_message(
            MOSDPGPush(tid=self._tid, pool=msg.pool,
                       pg_seed=msg.pg_seed, last=True, skipped=skipped,
                       pushed=tuple(sent_names)),
            msg.src,
        )

    def handle_push_reply(self, msg: MOSDPGPushReply) -> None:
        window = self._windows.pop(msg.tid, None)
        if window is None:
            return
        window.inflight -= 1
        if window.waiters:
            window.waiters.pop(0).succeed()

    # ---------------------------------------------------------------- puller
    def handle_push(self, msg: MOSDPGPush) -> Generator[Any, Any, None]:
        """An object arrived; persist it and ack (runs as a process)."""
        osd = self.osd
        pool = osd.osdmap.pool_by_name(msg.pool)
        pgid = PgId(pool.id, msg.pg_seed)
        coll = str(pgid)
        thread = osd._completion_thread
        if msg.src in self._pull_pending.get(pgid, {}):
            # the stream is alive: refresh the stall stamp so a long
            # (but progressing) episode is not restarted from scratch
            self._pull_progress[pgid] = self.env.now
        if msg.data is not None:
            if msg.src in self._pull_pending.get(pgid, {}):
                # remember what this source's stream delivered: local
                # objects it never sent get pushed back at episode end
                self._recv_names.setdefault(pgid, {}).setdefault(
                    msg.src, set()
                ).add(msg.object_name)
            # a client write that landed here after the pull started is
            # newer than the pushed copy — never clobber it
            applied = False
            self._persists[pgid] = self._persists.get(pgid, 0) + 1
            try:
                try:
                    have = yield from osd.store.exists(
                        coll, msg.object_name, thread
                    )
                except StoreError:
                    have = False
                else:
                    if not have:
                        txn = Transaction().write(
                            coll, msg.object_name, 0, msg.length, msg.data
                        )
                        try:
                            yield from osd.store.queue_transaction(
                                txn, thread
                            )
                        except StoreError:
                            pass
                        else:
                            applied = True
                            self.objects_recovered += 1
                            self.bytes_recovered += msg.length
                    else:
                        applied = True
                if not applied and pgid in self._pull_pending:
                    # the object reached us but the local (possibly
                    # proxied) store could not persist it: the episode
                    # can no longer complete honestly — abort it so the
                    # next tick re-pulls.  Completing anyway would
                    # register a "full" copy that silently lacks this
                    # object (its stream 'last' is now ignored as
                    # stray).
                    self._pull_pending.pop(pgid, None)
                    self._pulling.pop(pgid, None)
                    self._pull_progress.pop(pgid, None)
                    self._recv_names.pop(pgid, None)
                    self._deferred_last.pop(pgid, None)
                    self.pulls_retried += 1
            finally:
                # persist done (or aborted): when the last in-flight
                # persist for this PG drains, fire any 'last' markers
                # that were held back waiting for it
                left = self._persists.get(pgid, 1) - 1
                if left > 0:
                    self._persists[pgid] = left
                else:
                    self._persists.pop(pgid, None)
                    for src, skipped, pushed in self._deferred_last.pop(
                        pgid, []
                    ):
                        self._complete_source(pgid, src, skipped, pushed)
        osd.messenger.send_message(
            MOSDPGPushReply(tid=msg.tid, pg_seed=msg.pg_seed), msg.src
        )
        if msg.last:
            if (
                self._persists.get(pgid)
                and msg.src in self._pull_pending.get(pgid, {})
            ):
                # pushes run as concurrent processes: a data push from
                # this stream may still be persisting (slow/faulted
                # proxied store).  Crediting the episode now would
                # register a copy whose store never saw that object —
                # hold the marker until the persists drain.
                self._deferred_last.setdefault(pgid, []).append(
                    (msg.src, msg.skipped, msg.pushed)
                )
            else:
                self._complete_source(pgid, msg.src, msg.skipped,
                                      msg.pushed)
        release = getattr(msg, "throttle_release", None)
        if release is not None:
            release()

    def _complete_source(
        self, pgid: PgId, addr: str, skipped: tuple = (),
        pushed: tuple = (),
    ) -> None:
        """A source finished its stream; finish the episode when all
        requested sources have delivered."""
        pending = self._pull_pending.get(pgid)
        if pending is None:
            return  # stray 'last' from a superseded episode
        if addr in pending and pushed:
            # The 'last' marker's manifest names every object its
            # stream sent.  A name we never saw means a data push was
            # consumed at the wire layer (session reset dropped the
            # pending frame, or a partition tombstoned it) while the
            # marker itself survived — crediting this episode would
            # register a "full" copy with a hole where an acked write
            # should be.  Abort; the stall timer / next tick re-pulls.
            got = self._recv_names.get(pgid, {}).get(addr, set())
            if any(name not in got for name in pushed):
                self._pull_pending.pop(pgid, None)
                self._pulling.pop(pgid, None)
                self._pull_progress.pop(pgid, None)
                self._recv_names.pop(pgid, None)
                self._deferred_last.pop(pgid, None)
                self.pulls_retried += 1
                return
        entry = pending.pop(addr, None)
        if entry is not None:
            source, full, gen = entry
            self._pulled_from.setdefault(pgid, {})[source] = gen
            if full:
                self._pulled_full[pgid] = True
            if skipped:
                # names the source holds but did not stream (we declared
                # them in ``have``): the source knows these, so they are
                # excluded from the push-back backlog below
                self._recv_names.setdefault(pgid, {}).setdefault(
                    addr, set()
                ).update(skipped)
        if pending:
            return
        del self._pull_pending[pgid]
        self._pulling.pop(pgid, None)
        self._pull_progress.pop(pgid, None)
        self._deferred_last.pop(pgid, None)
        osd = self.osd
        osdmap = osd.osdmap
        was_member = pgid in osd.member_pgs
        drained = self._pulled_from.get(pgid, {})
        # The local copy is the union of what it was and every drained
        # stream: it reflects at least the highest gen it asked for.
        new_gen = max(
            [osdmap.holder_gen(pgid, osd.osd_id), *drained.values()]
        )
        recv = self._recv_names.pop(pgid, {})
        if was_member or self._pulled_full.get(pgid, False):
            # The local copy now unions a full copy with every drained
            # interim holder: it is authoritative.
            osd.member_pgs.add(pgid)
            osdmap.record_pg_holder(
                pgid, osd.osd_id, full=True, gen=new_gen
            )
            pg = osd.pgs.get(pgid)
            if pg is not None:
                pg.clean = True
            self._pull_attempts.pop(pgid, None)
            if not was_member:
                self.pgs_recovered += 1
            self._pulled_from.pop(pgid, None)
            self._pulled_full.pop(pgid, None)
        else:
            # Only partial holders were reachable: we hold their union
            # but not a full copy.  Stay unclean and wait for a full
            # holder; ``_pulled_from`` remembers the drained sources so
            # they are not re-pulled every tick.
            osdmap.record_pg_holder(
                pgid, osd.osd_id, full=False, gen=new_gen
            )
        # Symmetric half of the merge: anything we hold that a source's
        # stream did not include (interim writes we took, or objects
        # another source contributed) is unknown to that source — push
        # it back so its copy converges on the union too.
        targets = {}
        for source in drained:
            if osdmap.is_up(source):
                source_addr = osdmap.address_of(source)
                targets[source_addr] = recv.get(source_addr, set())
        self.env.process(
            self._push_back(pgid, targets),
            name=f"{osd.name}.pushback.{pgid.seed:x}",
        )

    def _push_back(
        self, pgid: PgId, targets: dict[str, set]
    ) -> Generator[Any, Any, None]:
        """Send each drained source the local objects its stream lacked.

        Receivers treat these like any recovery push — persist if the
        name is absent, ack — and ``last`` is never set, so a source
        concurrently pulling from us cannot mistake this stream for the
        completion of its own episode."""
        osd = self.osd
        coll = str(pgid)
        pool_name = osd.osdmap.pools[pgid.pool].name
        thread = osd._completion_thread
        try:
            local = yield from osd.store.list_objects(coll, thread)
        except StoreError:
            return
        for addr in sorted(targets):
            backlog = sorted(set(local) - targets[addr])
            if not backlog:
                continue
            window = _PushWindow()
            for name in backlog:
                try:
                    blob = yield from osd.store.read(coll, name, 0, 1 << 62,
                                                     thread)
                except StoreError:
                    continue
                while window.inflight >= _MAX_PUSH_INFLIGHT:
                    ev = self.env.event()
                    window.waiters.append(ev)
                    yield ev
                window.inflight += 1
                self._tid += 1
                self._windows[self._tid] = window
                self.pushes_sent += 1
                osd.messenger.send_message(
                    MOSDPGPush(
                        tid=self._tid, pool=pool_name, pg_seed=pgid.seed,
                        object_name=name, length=blob.length, data=blob,
                        last=False,
                    ),
                    addr,
                )

    def __repr__(self) -> str:
        return (
            f"<RecoveryManager {self.osd.name} recovered="
            f"{self.objects_recovered} objs/{self.bytes_recovered} B>"
        )
