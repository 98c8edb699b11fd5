"""librados-style client.

A :class:`RadosClient` owns its own messenger (on the client node's
stack), fetches the OSDMap from the monitor at boot, computes object
placement locally (CRUSH runs client-side in RADOS — there is no
metadata server on the data path), and issues ops directly to primary
OSDs.  Replies are matched to callers by transaction id.

Robustness (``op_timeout`` set): each attempt races its reply against a
timeout; on expiry the client re-fetches the OSDMap, recomputes the
primary from the (possibly remapped) PG, and resends the *same*
operation — writes resend the same payload blob, so resends are
idempotent.  After ``max_attempts`` the op fails with ``-ETIMEDOUT``
(-110) instead of hanging.  With ``op_timeout=None`` (default) the
original wait-forever behavior — and its exact event sequence — is
preserved for in-flight replies; an op that finds *no acting set* (every
serving OSD down) backs off and waits for the map to heal in both modes,
bounded only by ``max_attempts``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..msgr.message import (
    Message,
    MMonGetMap,
    MMonMapReply,
    MOSDOp,
    MOSDOpReply,
    OpType,
)
from ..msgr.messenger import AsyncMessenger, Connection
from ..sim import AnyOf, Event
from ..util.bufferlist import DataBlob
from .osdmap import OsdMap

__all__ = ["RadosClient", "RadosError", "OpResult"]


class RadosError(Exception):
    """An operation failed (non-zero result code from the OSD)."""

    def __init__(self, result: int, what: str) -> None:
        super().__init__(f"{what}: result={result}")
        self.result = result


@dataclass(frozen=True)
class OpResult:
    """Outcome of one client operation."""

    tid: int
    result: int
    latency: float
    data: Optional[DataBlob] = None
    version: int = 0
    attachment: Any = None


class RadosClient:
    """One client endpoint (the RADOS bench tool spawns many I/O
    contexts on top of a single client)."""

    def __init__(
        self,
        messenger: AsyncMessenger,
        mon_addr: str,
        op_timeout: Optional[float] = None,
        max_attempts: int = 5,
        retry_backoff: float = 0.5,
    ) -> None:
        self.messenger = messenger
        self.mon_addr = mon_addr
        self.env = messenger.env
        self.osdmap: Optional[OsdMap] = None
        self.op_timeout = op_timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self._pending: dict[int, Event] = {}
        self._sent_at: dict[int, float] = {}
        #: tid -> peer address, so a connect fault on one peer can fail
        #: exactly the replies pending on it
        self._target: dict[int, str] = {}
        self._tid = 0
        #: Optional :class:`repro.trace.Tracer`; when set, every op
        #: mints a root span and each attempt a child span that rides
        #: the ``MOSDOp`` through the stack.  ``None`` (default) keeps
        #: the client entirely untraced.
        self.tracer: Any = None
        #: Optional :class:`repro.qos.AdmissionController`; when set,
        #: tenant-tagged ops that exceed the tenant's in-flight window
        #: are shed with ``-EAGAIN`` before touching the wire.
        self.admission: Any = None
        messenger.register_dispatcher(self)

        # statistics
        self.ops_completed = 0
        self.bytes_written = 0
        self.bytes_read = 0
        self.resends = 0
        self.timeouts = 0
        self.map_refetches = 0
        self.ops_failed = 0
        self.ops_shed = 0

    # ---------------------------------------------------------------- boot
    def boot(self) -> Generator[Any, Any, None]:
        """Fetch the cluster map from the monitor."""
        attempt = 0
        while True:
            attempt += 1
            tid = self._next_tid()
            ev = self.env.event()
            self._pending[tid] = ev
            self._sent_at[tid] = self.env.now
            self._target[tid] = self.mon_addr
            self.messenger.send_message(MMonGetMap(tid=tid), self.mon_addr)
            reply = yield from self._await_reply(tid, ev)
            if reply is not None:
                break
            self.timeouts += 1
            if attempt >= self.max_attempts:
                raise RadosError(-110, "monitor map fetch timed out")
            yield self.env.timeout(self.retry_backoff * attempt)
        self.osdmap = reply.attachment
        if self.osdmap is None:
            raise RadosError(-5, "monitor returned no map")

    def _await_reply(
        self, tid: int, ev: Event
    ) -> Generator[Any, Any, Optional[Message]]:
        """Wait for ``ev`` (the reply), bounded by ``op_timeout`` when
        set.  Returns ``None`` on timeout (pending state cleaned up)."""
        if self.op_timeout is None:
            reply = yield ev
            return reply
        timeout_ev = self.env.timeout(self.op_timeout)
        yield AnyOf(self.env, [ev, timeout_ev])
        if ev.triggered:
            if not timeout_ev.processed:
                timeout_ev.cancel()
            return ev.value
        self._pending.pop(tid, None)
        self._sent_at.pop(tid, None)
        self._target.pop(tid, None)
        return None

    # ---------------------------------------------------------------- ops
    def write_object(
        self,
        pool: str,
        oid: str,
        size: int,
        offset: int = 0,
        data: Optional[DataBlob] = None,
        tenant: str = "",
    ) -> Generator[Any, Any, OpResult]:
        """Write ``size`` bytes; resumes when the cluster acks durability.

        Pass ``data`` to control the payload blob's identity (the chaos
        harness records it to verify content after heal)."""
        res = yield from self._do_op(
            pool, oid, OpType.WRITE, size, offset,
            data if data is not None else DataBlob(size),
            tenant=tenant,
        )
        self.bytes_written += size
        return res

    def read_object(
        self, pool: str, oid: str, size: int, offset: int = 0,
        tenant: str = "",
    ) -> Generator[Any, Any, OpResult]:
        """Read ``size`` bytes from an object."""
        res = yield from self._do_op(pool, oid, OpType.READ, size, offset,
                                     None, tenant=tenant)
        self.bytes_read += res.data.length if res.data else 0
        return res

    def stat_object(
        self, pool: str, oid: str
    ) -> Generator[Any, Any, OpResult]:
        """Object metadata (size/version via the reply attachment)."""
        return (yield from self._do_op(pool, oid, OpType.STAT, 0, 0, None))

    def _do_op(
        self,
        pool: str,
        oid: str,
        op: OpType,
        size: int,
        offset: int,
        data: Optional[DataBlob],
        tenant: str = "",
    ) -> Generator[Any, Any, OpResult]:
        if self.osdmap is None:
            raise RadosError(-107, "client not booted")
        if tenant and self.admission is not None:
            # Admission gate runs before any simulated work: a shed op
            # costs nothing and perturbs nothing (-EAGAIN, counted).
            if not self.admission.try_acquire(tenant):
                self.ops_shed += 1
                raise RadosError(
                    -11, f"{op.name} {pool}/{oid}: tenant {tenant} window full"
                )
        try:
            result = yield from self._do_op_inner(
                pool, oid, op, size, offset, data, tenant
            )
        finally:
            if tenant and self.admission is not None:
                self.admission.release(tenant)
        return result

    def _do_op_inner(
        self,
        pool: str,
        oid: str,
        op: OpType,
        size: int,
        offset: int,
        data: Optional[DataBlob],
        tenant: str = "",
    ) -> Generator[Any, Any, OpResult]:
        t0 = self.env.now
        attempt = 0
        client_cpu = self.messenger.stack.cpu.name
        root_span = None
        attempt_span = None
        if self.tracer is not None:
            root_span = self.tracer.start_span(
                f"client.{op.name}", t0, cpu=client_cpu,
                category="client", thread_name=self.messenger.name,
                nbytes=size,
            )
            root_span.tag("pool", pool)
            root_span.tag("oid", oid)
            if tenant:
                root_span.tag("tenant", tenant)
        while True:
            attempt += 1
            pgid = self.osdmap.object_to_pg(pool, oid)
            try:
                primary = self.osdmap.pg_primary(pgid)
            except ValueError:
                # No up OSD serves this PG right now; wait for the map
                # to heal and retry.  This holds for the timeout-less
                # client too (its contract is to wait, not to error) —
                # the only bound either way is max_attempts.
                if attempt >= self.max_attempts:
                    self.ops_failed += 1
                    if root_span is not None:
                        root_span.error(self.env.now, "no-acting-set")
                    raise RadosError(
                        -110, f"{op.name} {pool}/{oid}: no acting set"
                    ) from None
                if root_span is not None:
                    root_span.event(self.env.now, "no-acting-set")
                yield self.env.timeout(self.retry_backoff * attempt)
                yield from self._refetch_map()
                continue
            tid = self._next_tid()
            ev = self.env.event()
            self._pending[tid] = ev
            self._sent_at[tid] = self.env.now
            self._target[tid] = self.osdmap.address_of(primary)
            if attempt > 1:
                self.resends += 1
            if root_span is not None:
                prev_attempt = attempt_span
                attempt_span = root_span.child(
                    "client.attempt", self.env.now, cpu=client_cpu,
                    category="client", thread_name=self.messenger.name,
                    nbytes=size,
                )
                attempt_span.tag("attempt", attempt)
                attempt_span.tag("tid", tid)
                attempt_span.tag("osd", primary)
                if prev_attempt is not None:
                    attempt_span.link(prev_attempt, "retry")
            msg = MOSDOp(
                tid=tid, pool=pool, object_name=oid, op=op,
                length=size, offset=offset, data=data,
                map_epoch=self.osdmap.epoch, tenant=tenant,
            )
            if attempt_span is not None:
                msg.span_ctx = attempt_span  # type: ignore[attr-defined]
            self.messenger.send_message(
                msg, self.osdmap.address_of(primary)
            )
            reply = yield from self._await_reply(tid, ev)
            if reply is not None:
                break
            self.timeouts += 1
            if attempt_span is not None:
                attempt_span.abandon(self.env.now, "timeout")
            if attempt >= self.max_attempts:
                self.ops_failed += 1
                if root_span is not None:
                    root_span.error(self.env.now, "timeout")
                raise RadosError(
                    -110,
                    f"{op.name} {pool}/{oid}: timed out after "
                    f"{attempt} attempts",
                )
            yield from self._refetch_map()
            yield self.env.timeout(self.retry_backoff * attempt)
        latency = self.env.now - t0
        self.ops_completed += 1
        if attempt_span is not None:
            attempt_span.finish(self.env.now)
        # -ENOENT on stat/read is an answer, not a failure; everything
        # else non-zero raises.
        benign = reply.result == -2 and op in (OpType.STAT, OpType.READ)
        if reply.result != 0 and not benign:
            if root_span is not None:
                root_span.error(self.env.now, f"result={reply.result}")
            raise RadosError(reply.result, f"{op.name} {pool}/{oid}")
        if root_span is not None:
            root_span.tag("result", reply.result)
            root_span.finish(self.env.now)
        return OpResult(
            tid=tid, result=reply.result, latency=latency,
            data=reply.data, version=reply.version,
            attachment=reply.attachment,
        )

    def _refetch_map(self) -> Generator[Any, Any, bool]:
        """Best-effort OSDMap refresh before a resend (epoch staleness).

        Single bounded attempt; on timeout the op retry proceeds with
        the map it has (map contents propagate by shared reference, so
        the fetch mostly exercises the wire + monitor liveness)."""
        tid = self._next_tid()
        ev = self.env.event()
        self._pending[tid] = ev
        self._sent_at[tid] = self.env.now
        self._target[tid] = self.mon_addr
        self.messenger.send_message(MMonGetMap(
            tid=tid,
            have_epoch=self.osdmap.epoch if self.osdmap else 0,
        ), self.mon_addr)
        reply = yield from self._await_reply(tid, ev)
        if reply is None:
            return False
        self.map_refetches += 1
        if reply.attachment is not None:
            self.osdmap = reply.attachment
        return True

    def _next_tid(self) -> int:
        self._tid += 1
        return self._tid

    # ---------------------------------------------------------------- dispatch
    def ms_handle_connect_fault(self, peer_addr: str) -> None:
        """The messenger could not deliver to ``peer_addr`` (a partition
        ate the frame, or the peer's session reset dropped the queue).
        Fail the replies pending on that peer with a ``None`` reply so
        the op-level retry loop takes over — bounding even the
        ``op_timeout=None`` client to ``max_attempts`` instead of
        waiting forever on a reply that can no longer arrive."""
        stalled = [
            tid for tid, addr in self._target.items() if addr == peer_addr
        ]
        for tid in stalled:
            ev = self._pending.pop(tid, None)
            self._sent_at.pop(tid, None)
            self._target.pop(tid, None)
            if ev is not None and not ev.triggered:
                ev.succeed(None)

    def ms_dispatch(
        self, msg: Message, conn: Connection
    ) -> Generator[Any, Any, None]:
        if isinstance(msg, (MOSDOpReply, MMonMapReply)):
            ev = self._pending.pop(msg.tid, None)
            self._sent_at.pop(msg.tid, None)
            self._target.pop(msg.tid, None)
            if ev is not None:
                ev.succeed(msg)
        release = getattr(msg, "throttle_release", None)
        if release is not None:
            release()
        if False:  # generator form
            yield

    def __repr__(self) -> str:
        return f"<RadosClient @{self.messenger.address}>"
