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
from typing import Any, Generator, Optional, TYPE_CHECKING

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


@dataclass(slots=True)
class _Pull:
    """The pull in flight for one PG."""

    #: when its pulls went out (the stall clock's start); None once the
    #: issue that sent them is abandoned while its streams still answer
    started: Optional[float] = None
    #: when a push of its streams last arrived: a long healthy stream is
    #: not "stalled" — only silence is
    alive: float = float("-inf")
    #: source address -> (source osd, holds full copy, source's content
    #: gen at pull start) still owing a 'last' push; empty until the
    #: local collection exists and the pulls are sent
    pending: dict[str, tuple[int, bool, int]] = field(default_factory=dict)
    #: 'last' markers waiting for in-flight persists to drain before
    #: completing their source
    deferred: list[tuple[str, tuple, tuple]] = field(default_factory=list)


@dataclass(slots=True)
class _PgRecovery:
    """One PG's recovery state on this OSD."""

    pull: Optional[_Pull] = None
    #: source -> gen drained at, this recovery episode (so a wait for a
    #: missing full holder does not re-pull unchanged sources every
    #: tick; a source that takes new writes bumps its gen and is pulled
    #: again)
    drained: dict[int, int] = field(default_factory=dict)
    #: a drained source held a full copy
    full: bool = False
    #: source address -> object names its stream delivered: at episode
    #: end, local objects a source never sent are pushed back to it (the
    #: symmetric half of the merge)
    recv: dict[str, set] = field(default_factory=dict)
    #: data pushes whose local persist is still in flight; a stream's
    #: 'last' must not credit the episode while one of its objects has
    #: not durably landed in the (possibly proxied) store
    persists: int = 0
    #: a tick's issue is still making the local collection: no second
    #: issue, and no stall clock, until its pulls go out
    issuing: bool = False


class RecoveryManager:
    """Per-OSD recovery logic (both puller and pusher roles)."""

    __slots__ = (
        "osd",
        "env",
        "pool_names",
        "tick",
        "pull_timeout",
        "_pgs",
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

        self._pgs: dict[PgId, _PgRecovery] = {}
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
        """Drop a PG's recovery record (its local copy was discarded by
        a resync, so any episode in flight is void)."""
        rec = self._pgs.pop(pgid, None)
        if rec is not None:
            rec.pull = None  # persists still draining complete nothing

    def _abort(self, pgid: PgId, streams: bool = True) -> None:
        """Abandon the pull in flight for ``pgid``; the next tick re-pulls.

        The episode's drained sources and the names their streams
        delivered stay.  With ``streams`` false only the tick loop's
        issue is dropped, and streams already answering keep the pull."""
        rec = self._pgs.get(pgid)
        pull = rec.pull if rec is not None else None
        if not streams and rec is not None:
            rec.issuing = False
        if pull is not None:
            pull.started = None
            if streams or not pull.pending:
                rec.pull = None
        self.pulls_retried += 1

    def _pull_of(self, pgid: PgId) -> Optional[_Pull]:
        """The pull in flight for ``pgid`` once its pulls are sent."""
        rec = self._pgs.get(pgid)
        if rec is None or rec.pull is None or not rec.pull.pending:
            return None
        return rec.pull

    def _check_pg(self, pool: str, pgid: PgId) -> None:
        osd = self.osd
        osdmap = osd.osdmap
        acting = osdmap.pg_to_osds(pgid)
        if osd.osd_id not in acting:
            return
        rec = self._pgs.get(pgid)
        pull = rec.pull if rec is not None else None
        issued = pull is not None and pull.started is not None
        my_gen = osdmap.holder_gen(pgid, osd.osd_id)
        if pgid in osd.member_pgs:
            # Merge-back: a holder with a higher content generation has
            # acked writes this copy misses (interim writes taken while
            # the full holders were down, or a merge that folded such
            # writes in); pull the union from every such holder.
            sources = [
                o for o in osdmap.holders_of(pgid)
                if o != osd.osd_id and osdmap.is_up(o)
                and osdmap.holder_gen(pgid, o) > my_gen
            ]
            if not sources and not issued:
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
            drained = rec.drained if rec is not None else {}
            sources = [
                o for o in holders
                if o != osd.osd_id and osdmap.is_up(o)
                and (o not in drained
                     or osdmap.holder_gen(pgid, o) > drained[o])
            ]
        if rec is not None and rec.issuing:
            return  # one issue per PG: the last one's pulls are not out
        if issued:
            last_alive = max(pull.started, pull.alive)
            if self.env.now - last_alive < self.pull_timeout:
                return
            # stalled: no push arrived for a full timeout — the pusher
            # died or a partition ate the stream.  (A merely *long*
            # stream keeps refreshing its progress stamp and is never
            # restarted: re-issuing a live stream piles concurrent
            # full streams onto the same peers and collapses recovery.)
            self._abort(pgid)
        if not sources:
            return  # wait for a data-bearing peer to come up
        full_set = set(osdmap.full_holders_of(pgid))
        sources_info = [
            (o, o in full_set, osdmap.holder_gen(pgid, o)) for o in sources
        ]
        rec = self._pgs.setdefault(pgid, _PgRecovery())
        rec.issuing = True
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
            # the next tick retries.  This issue sent nothing, so the
            # streams an earlier issue started keep answering.
            self._abort(pgid, streams=False)
            return
        # The stall clock starts now: the time spent making the
        # collection is no stream's silence.
        rec = self._pgs.setdefault(pgid, _PgRecovery())
        rec.issuing = False
        if rec.pull is None:
            rec.pull = _Pull()
        rec.pull.started = self.env.now
        have = tuple(sorted(local))
        pending = rec.pull.pending = {
            osd.osdmap.address_of(source): (source, full, gen)
            for source, full, gen in sources_info
        }
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
        coll = str(PgId(pool.id, msg.pg_seed))
        try:
            names = yield from osd.store.list_objects(
                coll, osd._completion_thread
            )
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
        sent = yield from self._stream(coll, to_send, msg.pool, msg.pg_seed,
                                       msg.src)
        if len(sent) < len(to_send):
            # an object never made it onto the wire: the stream is
            # incomplete, so it must not carry a 'last' marker — the
            # puller's stall timer re-pulls the missing delta
            return
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
                       pushed=tuple(sent)),
            msg.src,
        )

    def _stream(
        self, coll: str, names: list[str], pool: str, pg_seed: int,
        addr: str,
    ) -> Generator[Any, Any, list[str]]:
        """Push the objects ``names`` of ``coll`` to ``addr`` as one
        stream, at most ``_MAX_PUSH_INFLIGHT`` un-acked at a time.

        Returns the names sent: an object the local store cannot read
        is left out."""
        osd = self.osd
        window = _PushWindow()
        sent: list[str] = []
        for name in names:
            try:
                blob = yield from osd.store.read(coll, name, 0, 1 << 62,
                                                 osd._completion_thread)
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
            sent.append(name)
            osd.messenger.send_message(
                MOSDPGPush(
                    tid=self._tid, pool=pool, pg_seed=pg_seed,
                    object_name=name, length=blob.length, data=blob,
                ),
                addr,
            )
        return sent

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
        rec = self._pgs.setdefault(pgid, _PgRecovery())
        pull = rec.pull
        if pull is not None and msg.src in pull.pending:
            # the stream is alive: refresh the stall stamp so a long
            # (but progressing) episode is not restarted from scratch
            pull.alive = self.env.now
            if msg.data is not None:
                # remember what this source's stream delivered: local
                # objects it never sent get pushed back at episode end
                rec.recv.setdefault(msg.src, set()).add(msg.object_name)
        if msg.data is not None:
            rec.persists += 1
            try:
                # a client write that landed here after the pull started
                # is newer than the pushed copy — never clobber it
                if not (yield from osd.store.exists(coll, msg.object_name,
                                                    thread)):
                    txn = Transaction().write(
                        coll, msg.object_name, 0, msg.length, msg.data
                    )
                    yield from osd.store.queue_transaction(txn, thread)
                    self.objects_recovered += 1
                    self.bytes_recovered += msg.length
            except StoreError:
                if self._pull_of(pgid) is not None:
                    # the object reached us but the local (possibly
                    # proxied) store could not persist it: the episode
                    # can no longer complete honestly — abort it so the
                    # next tick re-pulls.  Completing anyway would
                    # register a "full" copy that silently lacks this
                    # object (its stream 'last' is now ignored as
                    # stray).
                    self._abort(pgid)
            finally:
                # persist done (or aborted): when the last in-flight
                # persist for this PG drains, fire any 'last' markers
                # that were held back waiting for it
                rec.persists -= 1
                if not rec.persists and rec.pull is not None:
                    deferred, rec.pull.deferred = rec.pull.deferred, []
                    for src, skipped, pushed in deferred:
                        self._complete_source(pgid, src, skipped, pushed)
        osd.messenger.send_message(
            MOSDPGPushReply(tid=msg.tid, pg_seed=msg.pg_seed), msg.src
        )
        if msg.last:
            pull = rec.pull
            if rec.persists and pull is not None and msg.src in pull.pending:
                # pushes run as concurrent processes: a data push from
                # this stream may still be persisting (slow/faulted
                # proxied store).  Crediting the episode now would
                # register a copy whose store never saw that object —
                # hold the marker until the persists drain.
                pull.deferred.append((msg.src, msg.skipped, msg.pushed))
            else:
                self._complete_source(pgid, msg.src, msg.skipped,
                                      msg.pushed)
        if msg.throttle_release is not None:
            msg.throttle_release()

    def _complete_source(
        self, pgid: PgId, addr: str, skipped: tuple = (),
        pushed: tuple = (),
    ) -> None:
        """A source finished its stream; finish the episode when all
        requested sources have delivered."""
        pull = self._pull_of(pgid)
        if pull is None:
            return  # stray 'last' from a superseded episode
        rec = self._pgs[pgid]
        pending = pull.pending
        if addr in pending and pushed:
            # The 'last' marker's manifest names every object its
            # stream sent.  A name we never saw means a data push was
            # consumed at the wire layer (session reset dropped the
            # pending frame, or a partition tombstoned it) while the
            # marker itself survived — crediting this episode would
            # register a "full" copy with a hole where an acked write
            # should be.  Abort; the stall timer / next tick re-pulls.
            got = rec.recv.get(addr, set())
            if any(name not in got for name in pushed):
                self._abort(pgid)
                return
        entry = pending.pop(addr, None)
        if entry is not None:
            source, full, gen = entry
            rec.drained[source] = gen
            if full:
                rec.full = True
            if skipped:
                # names the source holds but did not stream (we declared
                # them in ``have``): the source knows these, so they are
                # excluded from the push-back backlog below
                rec.recv.setdefault(addr, set()).update(skipped)
        if pending:
            return
        rec.pull = None
        osd = self.osd
        osdmap = osd.osdmap
        was_member = pgid in osd.member_pgs
        drained = rec.drained
        # The local copy is the union of what it was and every drained
        # stream: it reflects at least the highest gen it asked for.
        new_gen = max(
            [osdmap.holder_gen(pgid, osd.osd_id), *drained.values()]
        )
        recv, rec.recv = rec.recv, {}
        if was_member or rec.full:
            # The local copy now unions a full copy with every drained
            # interim holder: it is authoritative.
            osd.member_pgs.add(pgid)
            osdmap.record_pg_holder(
                pgid, osd.osd_id, full=True, gen=new_gen
            )
            pg = osd.pgs.get(pgid)
            if pg is not None:
                pg.clean = True
            if not was_member:
                self.pgs_recovered += 1
            rec.drained, rec.full = {}, False
        else:
            # Only partial holders were reachable: we hold their union
            # but not a full copy.  Stay unclean and wait for a full
            # holder; ``drained`` remembers the drained sources so they
            # are not re-pulled every tick.
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
        try:
            local = yield from osd.store.list_objects(
                coll, osd._completion_thread
            )
        except StoreError:
            return
        for addr in sorted(targets):
            backlog = sorted(set(local) - targets[addr])
            if backlog:
                yield from self._stream(coll, backlog, pool_name, pgid.seed,
                                        addr)

    def __repr__(self) -> str:
        return (
            f"<RecoveryManager {self.osd.name} recovered="
            f"{self.objects_recovered} objs/{self.bytes_recovered} B>"
        )
