"""The lightweight DPU↔host RPC channel (control plane + fallback path).

Implements §4's control-plane transport: a persistent socket between the
ProxyObjectStore (DPU) and the host-side server, initialized once at OSD
start.  Each RPC carries a header — operation name, unique request id,
payload length — plus a serialized bufferlist payload.

The same channel doubles as the **fallback bulk path**: when DMA is in
cooldown, request data travels here instead, paying kernel-socket CPU on
*both* ends — which is exactly why the fallback visibly raises host CPU
in the ablation benchmarks.

Reliability semantics
---------------------
A lost request or reply must never hang the simulation: every call
carries a **timeout**; on expiry the caller retries with exponential
backoff (attempt *k* waits ``rpc_timeout_seconds × rpc_backoff_factor^k``)
up to ``rpc_max_retries`` retries, then fails with :class:`RpcError`.
Delivery is therefore at-least-once, but the server **deduplicates by
request id**: a retry of a request whose handler already ran gets the
recorded outcome replayed instead of a second execution (handlers —
BlueStore commits, write-buffer releases — are not idempotent), and a
retry that lands while the original is still executing just re-points
the eventual reply at the newest attempt.  A recorded outcome lives
exactly as long as a duplicate of its request can still be dequeued:
the caller drops it on receiving the reply (the server queue is FIFO
and attempts are sequential, so every attempt was dequeued before the
reply was sent); a caller that gives up or is interrupted leaves it to
its last queued attempt, or to the end of a still-running handler.  No
bound evicts a record a retry may still need.  The retried *transport*
still pays socket CPU on both ends — which is why fallback traffic
under faults costs extra CPU.  Request/reply loss and delay are injected
through the unified :mod:`repro.faults` plan (``rpc:request_loss``,
``rpc:reply_loss``, ``rpc:delay``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Callable, Generator, Mapping, Optional

from ..hw.cpu import SimThread
from ..hw.net import BandwidthPipe
from ..hw.node import ClusterNode
from ..sim import Event, Store
from ..util import wire
from ..util.bufferlist import BufferList

if TYPE_CHECKING:
    from ..cluster.config import HardwareProfile

__all__ = [
    "RpcChannel", "RpcRequest", "RpcError", "RPC_ARGS", "DEFERRED",
    "PROXY_CATEGORY",
]

_OBJECT: wire.Schema = (("coll", wire.STR), ("oid", wire.STR))
#: The argument payload of each op, in wire order: the caller encodes
#: with ``RPC_ARGS[op].encode(*args)``, the handler gets the tuple back
#: from ``.decode(request.payload)``.  (``queue_txn`` carries an encoded
#: :class:`~repro.objectstore.api.Transaction` instead.)
RPC_ARGS: Mapping[str, wire.Plan] = MappingProxyType({
    op: wire.compile_schema(schema, name=f"rpc.{op}")
    for op, schema in {
        "list": _OBJECT[:1],
        "stat": _OBJECT,
        "exists": _OBJECT,
        "read": _OBJECT + (("offset", wire.U64), ("length", wire.U64)),
        "bulk": (("tag", wire.STR), ("nbytes", wire.U64)),
    }.items()
})

#: Sentinel a handler assigns to ``request.reply`` to take ownership of
#: responding (for handlers that must wait on I/O without blocking the
#: listener loop).  The handler later calls :meth:`RpcChannel.respond`.
DEFERRED = object()

#: Host-side thread category for proxy work (counted in host CPU, like
#: the paper's 5.5 %).
PROXY_CATEGORY = "proxy"


class RpcError(Exception):
    """The host handler failed the request."""


@dataclass(slots=True)
class RpcRequest:
    """One attempt of one in-flight RPC (retries are new attempts)."""

    req_id: int
    op: str
    payload: BufferList
    bulk_bytes: int = 0
    response: Optional[Event] = None
    #: Handler-filled reply payload.
    reply: Any = None
    error: Optional[str] = None
    submitted_at: float = 0.0
    #: 0 for the first send, 1.. for retries of the same req_id.
    attempt: int = 0
    #: Wire size of the reply, recorded when the host sends it, so the
    #: caller charges the exact receive cost.
    reply_wire_bytes: int = 0
    #: This attempt's :class:`repro.trace.Span`; host handlers parent
    #: their work (BlueStore commit, read pipeline) under it.  ``None``
    #: when the caller is untraced.
    span_ctx: Any = None


class RpcChannel:
    """Persistent DPU↔host socket with request/response matching.

    The DPU side issues :meth:`call`; the host side registers handlers
    (generators executed on the host proxy thread).  Transport costs:

    * latency: one PCIe hop each way;
    * bandwidth: a shared :class:`~repro.hw.net.BandwidthPipe` per
      direction (matters only for fallback bulk traffic);
    * CPU: kernel socket send/recv on the owning complex of each side.
    """

    def __init__(self, node: ClusterNode, profile: HardwareProfile) -> None:
        if node.dpu_cpu is None:
            raise ValueError("RPC channel requires a DPU-mode node")
        if not profile.rpc_timeout_seconds > 0:
            raise ValueError(
                "rpc_timeout_seconds must be positive, got "
                f"{profile.rpc_timeout_seconds!r}"
            )
        self.node = node
        self.env = node.env
        self.profile = profile
        self._req_ids = itertools.count(1)
        self._server_queue: Store = Store(self.env)
        self._handlers: dict[str, Callable[..., Generator]] = {}
        # server-side retry dedup: req_id -> executing attempt / outcome
        self._inflight: dict[int, RpcRequest] = {}
        self._done: dict[int, tuple[Any, Optional[str]]] = {}
        # req_id -> attempts put on the server queue and not yet looked up
        self._queued: dict[int, int] = {}
        # req_ids whose caller stopped waiting before the last attempt was
        # looked up or the handler finished
        self._abandoned: set[int] = set()

        bw = profile.rpc_socket_bandwidth
        self._to_host = BandwidthPipe(self.env, f"{node.name}.rpc.tx", bw * 8)
        self._to_dpu = BandwidthPipe(self.env, f"{node.name}.rpc.rx", bw * 8)

        self._server_thread = SimThread(
            node.host_cpu, f"{node.name}.proxy-rpc", PROXY_CATEGORY
        )
        self.env.process(self._server_loop(), name=f"{node.name}.proxy-rpc")

        # reliability knobs (see module docstring)
        self.timeout_seconds = profile.rpc_timeout_seconds
        self.max_retries = profile.rpc_max_retries
        self.backoff_factor = profile.rpc_backoff_factor

        #: Optional :class:`~repro.faults.LayerInjector` (layer "rpc")
        #: injecting request/reply loss and delivery delay.
        self.fault_injector: Optional[Any] = None

        # statistics
        self.calls = 0
        self.bulk_bytes = 0
        self.errors = 0
        self.timeouts = 0
        self.retries = 0
        self.request_losses = 0
        self.reply_losses = 0
        self.delays = 0
        #: Retries the server answered without re-running the handler.
        self.duplicates_suppressed = 0

    def register_handler(
        self, op: str, handler: Callable[..., Generator]
    ) -> None:
        """Host side: handle requests named ``op``.

        ``handler(request, thread)`` runs on the host proxy thread and
        may set ``request.reply``; raising :class:`RpcError` (or any
        StoreError) marks the request failed.
        """
        self._handlers[op] = handler

    # ---------------------------------------------------------------- DPU side
    def call(
        self,
        op: str,
        payload: BufferList,
        thread: SimThread,
        bulk_bytes: int = 0,
        span_ctx: Any = None,
    ) -> Generator[Any, Any, RpcRequest]:
        """Issue one RPC from the DPU; resumes when the reply arrives.

        ``bulk_bytes`` models request data shipped through the socket
        (the fallback path); it rides the pipe and is charged like any
        socket payload on both CPUs.

        Each attempt waits ``timeout_seconds × backoff_factor^attempt``
        for the reply; a timed-out attempt is retried (up to
        ``max_retries`` times) before the call fails with
        :class:`RpcError`.  Attempts are distinct :class:`RpcRequest`
        objects sharing one ``req_id``, so a late reply to a superseded
        attempt triggers only that attempt's stale event.
        """
        req_id = next(self._req_ids)
        wire = payload.real_length + bulk_bytes + 32  # header
        tcp = self.profile.tcp
        send_cpu, _, send_ctx, _ = tcp.costs(wire)
        attempts = 1 + max(0, self.max_retries)
        prev_span = None
        replied = False
        try:
            for attempt in range(attempts):
                span = None
                if span_ctx is not None:
                    span = span_ctx.child(
                        f"rpc.{op}", self.env.now, thread=thread, nbytes=wire,
                    )
                    span.tag("req_id", req_id)
                    span.tag("attempt", attempt)
                    if prev_span is not None:
                        span.link(prev_span, "retry")
                    prev_span = span
                req = RpcRequest(
                    req_id=req_id,
                    op=op,
                    payload=payload,
                    bulk_bytes=bulk_bytes,
                    response=self.env.event(),
                    submitted_at=self.env.now,
                    attempt=attempt,
                    span_ctx=span,
                )
                yield from thread.charge(send_cpu)
                yield from thread.ctx_switch(send_ctx)
                yield from self._to_host.transmit(wire)
                latency = self.node.pcie_rpc_latency
                lost = False
                if self.fault_injector is not None:
                    spec = self.fault_injector.fire(
                        self.env.now, kind="delay", size=wire
                    )
                    if spec is not None:
                        latency += spec.delay
                        self.delays += 1
                    if self.fault_injector.fire(
                        self.env.now, kind="request_loss", size=wire
                    ):
                        lost = True
                        self.request_losses += 1
                        if span is not None:
                            span.tag("dropped", "request-loss")
                yield self.env.timeout(latency)
                if not lost:
                    self._queued[req_id] = self._queued.get(req_id, 0) + 1
                    yield self._server_queue.put(req)

                assert req.response is not None
                deadline = self.timeout_seconds * (
                    self.backoff_factor ** attempt
                )
                watchdog = self.env.timeout(deadline)
                yield self.env.any_of([req.response, watchdog])

                if req.response.triggered:
                    if not watchdog.processed:
                        watchdog.cancel()
                    # Every attempt was dequeued before this reply was
                    # sent (FIFO queue, sequential attempts), so no
                    # duplicate can ask for the outcome again.
                    self._done.pop(req_id, None)
                    replied = True
                    # Receiving the reply is a kernel socket read on the
                    # caller's complex — charge it, or fallback bulk reads
                    # undercount DPU CPU.
                    reply_wire = req.reply_wire_bytes or 64
                    _, recv_cpu, _, recv_ctx = tcp.costs(reply_wire)
                    yield from thread.charge(recv_cpu)
                    yield from thread.ctx_switch(recv_ctx)
                    self.calls += 1
                    self.bulk_bytes += bulk_bytes
                    if req.error is not None:
                        self.errors += 1
                        if span is not None:
                            span.error(self.env.now, "handler-error")
                        raise RpcError(req.error)
                    if span is not None:
                        span.finish(self.env.now)
                    return req

                self.timeouts += 1
                if span is not None:
                    span.error(self.env.now, "timeout")
                if attempt < attempts - 1:
                    self.retries += 1
            self.errors += 1
            raise RpcError(
                f"{op}: no reply for req {req_id} after {attempts} attempts"
                f" (timeout)"
            )
        finally:
            if not replied:
                self._abandon(req_id)

    def _abandon(self, req_id: int) -> None:
        """The caller of ``req_id`` stopped waiting without a reply (it
        gave up, or its process was interrupted): keep the outcome only
        while a queued attempt can still ask for it or the handler is
        still running."""
        if req_id in self._queued or req_id in self._inflight:
            self._abandoned.add(req_id)
        else:
            self._done.pop(req_id, None)

    # ---------------------------------------------------------------- host side
    def _server_loop(self) -> Generator[Any, Any, None]:
        """Event-driven listener on the host (§4: 'persistent socket
        listener … effectively acting as an event-driven loop')."""
        tcp = self.profile.tcp
        thread = self._server_thread
        while True:
            req: RpcRequest = yield self._server_queue.get()
            yield from thread.ctx_switch()
            wire = req.payload.real_length + req.bulk_bytes + 32
            yield from thread.charge(tcp.costs(wire)[1])
            rid = req.req_id
            left = self._queued.pop(rid) - 1
            if left:
                self._queued[rid] = left
            if rid in self._done:
                # retry of a completed request: replay the recorded
                # outcome — handlers must not run twice (commits and
                # write-buffer releases are not idempotent)
                if left or rid not in self._abandoned:
                    req.reply, req.error = self._done[rid]
                else:  # an abandoned call's last duplicate
                    self._abandoned.remove(rid)
                    req.reply, req.error = self._done.pop(rid)
                self.duplicates_suppressed += 1
                yield from self._send_reply(req, thread)
                continue
            if rid in self._inflight:
                # retry while the original is still executing: answer
                # the newest attempt when that execution completes
                self._inflight[rid] = req
                self.duplicates_suppressed += 1
                continue
            self._inflight[rid] = req
            handler = self._handlers.get(req.op)
            if handler is None:
                req.error = f"no handler for op {req.op!r}"
            else:
                try:
                    yield from handler(req, thread)
                except Exception as exc:  # noqa: BLE001 - reported to caller
                    req.error = f"{type(exc).__name__}: {exc}"
            if req.reply is DEFERRED:
                continue  # the handler owns responding
            req = self._finalize(req)
            yield from self._send_reply(req, thread)

    def _finalize(self, req: RpcRequest) -> RpcRequest:
        """Record ``req``'s outcome for dedup and return the newest
        attempt (a retry may have superseded ``req`` mid-execution).
        An abandoned call with no attempt left to look it up records
        nothing."""
        rid = req.req_id
        latest = self._inflight.pop(rid, req)
        if rid in self._abandoned and rid not in self._queued:
            self._abandoned.remove(rid)
        else:
            self._done[rid] = (req.reply, req.error)
        if latest is not req:
            latest.reply, latest.error = req.reply, req.error
        return latest

    def respond(self, req: RpcRequest) -> None:
        """Complete a DEFERRED request (called by async handlers)."""
        self.env.process(
            self._deferred_reply(req), name=f"rpc-respond-{req.req_id}"
        )

    def _deferred_reply(self, req: RpcRequest) -> Generator[Any, Any, None]:
        req = self._finalize(req)
        yield from self._send_reply(req, self._server_thread)

    def _send_reply(
        self, req: RpcRequest, thread: SimThread
    ) -> Generator[Any, Any, None]:
        # response path (small unless a read returns bulk data)
        reply_bytes = 64 + getattr(req.reply, "length", 0)
        yield from thread.charge(self.profile.tcp.costs(reply_bytes)[0])
        if self.fault_injector is not None and self.fault_injector.fire(
            self.env.now, kind="reply_loss", size=reply_bytes
        ):
            # The host did the send work, but the reply vanishes on the
            # wire; the caller's timeout + retry machinery recovers.
            self.reply_losses += 1
            return
        yield from self._to_dpu.transmit(reply_bytes)
        yield self.env.timeout(self.node.pcie_rpc_latency)
        req.reply_wire_bytes = reply_bytes
        assert req.response is not None
        req.response.succeed()

    def __repr__(self) -> str:
        return f"<RpcChannel {self.node.name} calls={self.calls}>"
