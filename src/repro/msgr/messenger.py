"""The async messenger: Ceph's communication layer, reimplemented.

This is the component the paper offloads.  Architecture mirrors Ceph's
AsyncMessenger (§2.3, Figure 2):

* a pool of ``msgr-worker-N`` threads, each running an epoll-style event
  loop over the connections assigned to it (round-robin assignment, as
  in Ceph);
* the **send path** (worker context): encode the message (fixed cost +
  checksum at ``crc_bandwidth``), traverse the kernel TCP send path
  (CPU + context switches from the :class:`~repro.hw.tcp.TcpStackModel`),
  then hand the bytes to the connection's wire pump — a per-connection
  process that streams them through the NIC pipes in order, modelling
  the kernel socket buffer draining asynchronously;
* the **receive path** (worker context): epoll wakeup (context switch),
  kernel TCP receive costs, wire-integrity checks (frame CRC, epoch,
  sequence), decode, then dispatch to the registered dispatcher (the
  OSD pushes into its op queue there);
* an optional dispatch throttle bounding in-flight receive bytes.

Wire integrity (msgr-v2 style, hardened against
:mod:`repro.msgr.adversary`): every frame carries a per-connection
monotonic sequence number, a connection epoch, and — whenever a wire
adversary is armed on the sender — a crc32c over the encoded
bufferlist.  The *cost* of that checksum is the ``crc_bandwidth`` term
the cost model has always charged on both encode and decode; arming
verification only adds the (event-free) comparison.  Receivers suppress
duplicates (``seq <= last delivered``), buffer bounded reorder gaps and
nack the missing frames back along the connection's reverse control
channel (modelling TCP's ack/SACK stream, whose wire footprint rides in
``WIRE_OVERHEAD``), and treat an epoch bump as a connection reset:
sequence state restarts and the sender re-numbers + resends its
in-flight window.  Exhausted retransmit budgets and reorder-buffer
overflows escalate to a reset, so corruption or sequence gaps always
trigger recovery instead of silent acceptance.

Every byte of CPU cost lands on the CPU complex of the messenger's
:class:`~repro.hw.node.NetStack` — which is precisely how DoCeph moves
messenger load off the host: construct the messenger on the DPU stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Generator, Optional, Protocol

from ..hw.node import NetStack
from ..hw.cpu import SimThread
from ..sim import Container, Environment, Store
from ..sim.exceptions import Interrupt
from ..sim.machine import Machine
from ..util.bufferlist import BufferList, EncodeError
from .message import WIRE_OVERHEAD, Message, decode_message

__all__ = [
    "AsyncMessenger",
    "Connection",
    "Dispatcher",
    "MessengerCostModel",
    "MsgrDirectory",
    "WireFrame",
    "MSGR_CATEGORY",
]

#: Thread category for messenger workers (Ceph's "msgr-worker-" prefix).
MSGR_CATEGORY = "msgr-worker"

#: In-flight frames a connection keeps for retransmission.
_RESEND_DEPTH = 64
#: Retransmit attempts per frame before escalating to a reset.
_MAX_RETRANSMIT = 4
#: Receiver reorder-buffer bound (frames and gap span) before a reset.
_REORDER_LIMIT = 32
#: Flush timeout for a reorder-held frame with no follow-up traffic.
_REORDER_FLUSH = 0.005


@dataclass(frozen=True, slots=True)
class MessengerCostModel:
    """CPU costs of messenger-internal work (beyond the TCP stack)."""

    encode_fixed: float = 1.5e-6
    """Per-message encode cost: header assembly, bufferlist builder."""

    decode_fixed: float = 2.0e-6
    """Per-message decode cost: header parse, message construction."""

    crc_bandwidth: float = 6.0e9
    """Payload checksum throughput, bytes/s (crc32c over data)."""

    dispatch_fixed: float = 1.0e-6
    """Cost of fast-dispatching a decoded message to the dispatcher."""

    def encode_cpu(self, wire_bytes: int) -> float:
        return self.encode_fixed + wire_bytes / self.crc_bandwidth

    def decode_cpu(self, wire_bytes: int) -> float:
        return self.decode_fixed + wire_bytes / self.crc_bandwidth


class Dispatcher(Protocol):
    """Anything able to receive messages from a messenger."""

    def ms_dispatch(
        self, msg: Message, conn: "Connection"
    ) -> Generator[Any, Any, None]:
        """Handle ``msg`` (runs in the messenger worker's context; must
        be quick — heavy work belongs on the receiver's own threads)."""
        ...


class MsgrDirectory:
    """Address → messenger registry for one simulated fabric."""

    __slots__ = ("_endpoints",)

    def __init__(self) -> None:
        self._endpoints: dict[str, "AsyncMessenger"] = {}

    def register(self, address: str, messenger: "AsyncMessenger") -> None:
        if address in self._endpoints:
            raise ValueError(f"messenger address in use: {address}")
        self._endpoints[address] = messenger

    def lookup(self, address: str) -> "AsyncMessenger":
        try:
            return self._endpoints[address]
        except KeyError:
            raise ValueError(f"no messenger at address: {address}") from None


class WireFrame:
    """One encoded message on the wire, with its integrity metadata.

    ``seq``/``epoch``/``crc`` ride conceptually inside the existing
    33-byte ``WIRE_OVERHEAD`` (banner/header/trailer), so frame sizes
    and CPU charges are unchanged.  ``crc`` is ``None`` when no
    adversary is armed on the sender — the comparison would be
    tautological, so neither side computes it.
    """

    __slots__ = (
        "seq",
        "epoch",
        "crc",
        "bl",
        "attachment",
        "wire",
        "span",
        "span_open",
        "attempts",
        "retx",
    )

    def __init__(
        self,
        seq: int,
        epoch: int,
        crc: Optional[int],
        bl: BufferList,
        attachment: Any,
        wire: int,
        span: Any,
    ) -> None:
        self.seq = seq
        self.epoch = epoch
        self.crc = crc
        self.bl = bl
        self.attachment = attachment
        self.wire = wire
        self.span = span
        self.span_open = span is not None
        self.attempts = 0
        #: delivered again after a nack or reset: the originating spans
        #: are closed by now, so the late copy is dispatched traceless
        self.retx = False

    def __repr__(self) -> str:
        return f"<WireFrame seq={self.seq} epoch={self.epoch} wire={self.wire}>"


class _RxState:
    """Receive-side stream state for one peer (socket-level, so it dies
    with the daemon on shutdown, unlike the Connection object map)."""

    __slots__ = ("epoch", "seq", "reorder")

    def __init__(self) -> None:
        self.epoch = 0
        self.seq = 0
        #: out-of-order frames parked until the gap fills:
        #: seq -> (frame, bl-as-delivered, recv_span)
        self.reorder: dict[int, tuple] = {}


class Connection:
    """One ordered, bidirectional peer link (as seen from one side)."""

    __slots__ = (
        "messenger",
        "peer_addr",
        "worker",
        "_wire_queue",
        "_pump",
        "messages_sent",
        "bytes_sent",
        "send_seq",
        "epoch",
        "peer_acked",
        "_resend",
        "_dropped",
        "_held",
    )

    def __init__(
        self,
        messenger: "AsyncMessenger",
        peer_addr: str,
        worker: "_Worker",
    ) -> None:
        self.messenger = messenger
        self.peer_addr = peer_addr
        self.worker = worker
        self._wire_queue: Store = Store(messenger.env)
        self._pump = _WirePump(self)
        self.messages_sent = 0
        self.bytes_sent = 0
        # wire-integrity state
        self.send_seq = 0
        self.epoch = messenger._next_epoch()
        #: highest in-order seq the peer has reported back via nack
        self.peer_acked = 0
        #: bounded in-flight window kept for retransmission: seq -> frame
        self._resend: dict[int, WireFrame] = {}
        #: seqs the wire consumed (partition drops): nacks for these are
        #: answered with a hole-skip, not a replay of stale history
        self._dropped: set[int] = set()
        #: frame held back by the reorder adversary, if any
        self._held: Optional[WireFrame] = None

    def send(self, msg: Message) -> None:
        """Queue ``msg`` for transmission (returns immediately; the
        worker and wire pump do the rest in order)."""
        self.worker.enqueue(("send", self, msg))

    def _queue_frame(
        self, bl: BufferList, msg: Message, wire: int, send_span: Any
    ) -> None:
        """Stamp integrity metadata and hand the frame to the pump
        (worker send context; pure computation, no events)."""
        self.send_seq += 1
        crc = bl.crc32() if self.messenger.adversary is not None else None
        frame = WireFrame(
            self.send_seq, self.epoch, crc, bl, msg.attachment, wire,
            send_span,
        )
        self._resend[frame.seq] = frame
        if len(self._resend) > _RESEND_DEPTH:
            del self._resend[next(iter(self._resend))]
        self._wire_queue.put(frame)

    def _finish_delivery(
        self, frame: WireFrame, bl: Optional[BufferList] = None
    ) -> None:
        """Land ``frame`` in the peer's kernel receive buffer.  ``bl``
        overrides the delivered bytes (adversary mutation) without
        touching the pristine copy in the resend window."""
        msgr = self.messenger
        if msgr.down or msgr._connections.get(self.peer_addr) is not self:
            # the daemon died (or reconnected) while this frame was in
            # flight on a detached jitter/flush process
            return
        if frame.span is not None and frame.span_open:
            frame.span.finish(msgr.env.now)
            frame.span_open = False
        peer = msgr.directory.lookup(self.peer_addr)
        peer._enqueue_incoming(
            msgr.address, frame, bl if bl is not None else frame.bl
        )
        self.messages_sent += 1
        self.bytes_sent += frame.wire

    def _release_held(self) -> None:
        if self._held is not None:
            held, self._held = self._held, None
            self._finish_delivery(held)

    def _flush_held(
        self, frame: WireFrame, delay: float
    ) -> Generator[Any, Any, None]:
        yield self.messenger.env.timeout(delay)
        if self._held is frame:
            self._held = None
            self._finish_delivery(frame)

    def _deliver_late(
        self, frame: WireFrame, delay: float
    ) -> Generator[Any, Any, None]:
        yield self.messenger.env.timeout(delay)
        self._finish_delivery(frame)

    # -- reverse control channel (called by the receiving messenger) ------

    def handle_nack(self, missing_seq: int, acked_seq: int) -> None:
        """Peer reports ``missing_seq`` absent with everything through
        ``acked_seq`` delivered: retransmit from the in-flight window,
        or reset the connection when the budget/window is exhausted."""
        msgr = self.messenger
        if msgr.down:
            return
        if acked_seq > self.peer_acked:
            self.peer_acked = acked_seq
            self._dropped = {s for s in self._dropped if s > acked_seq}
        frame = self._resend.get(missing_seq)
        if frame is None:
            if missing_seq in self._dropped:
                # the wire consumed this frame; tell the peer to give up
                # on the hole instead of replaying stale history
                self._dropped.discard(missing_seq)
                try:
                    peer = msgr.directory.lookup(self.peer_addr)
                except ValueError:
                    return
                peer._skip_seq(msgr.address, missing_seq)
                return
            # evicted from the window: the peer is too far behind
            self.reset()
            return
        if frame.attempts >= _MAX_RETRANSMIT:
            self.reset()
            return
        frame.attempts += 1
        frame.retx = True
        msgr._wire_count("retransmit")
        self._wire_queue.put(frame)

    def reset(self, resend: bool = True) -> None:
        """msgr-v2 style connection reset: bump the epoch, renumber the
        unacked in-flight window from 1, and resend it.  The peer adopts
        the new epoch on first contact and restarts its sequence state;
        message-level idempotency (tids, incarnation fencing) absorbs
        any re-delivery of frames it had already dispatched.

        With ``resend=False`` this is a *session* reset instead: the
        peer lost all connection state (daemon restart), so replaying
        pre-reset history would resurrect work the rest of the system
        has already given up on.  The queued window is dropped and the
        dispatcher's connect-fault hook is poked so message-level retry
        recovers — matching Ceph's reset-on-peer-session-loss policy."""
        msgr = self.messenger
        msgr._wire_count("reset")
        self.epoch = msgr._next_epoch()
        pending = [
            frame for seq, frame in sorted(self._resend.items())
            if seq > self.peer_acked
        ]
        self._resend = {}
        self._dropped.clear()
        self.send_seq = 0
        self.peer_acked = 0
        self._held = None
        if resend:
            for frame in pending:
                self.send_seq += 1
                frame.seq = self.send_seq
                frame.epoch = self.epoch
                frame.attempts = 0
                frame.retx = True
                self._resend[frame.seq] = frame
                self._wire_queue.put(frame)
            return
        if pending:
            msgr._wire_count("session_drop")
            hook = getattr(msgr.dispatcher, "ms_handle_connect_fault", None)
            if hook is not None:
                hook(self.peer_addr)
        for frame in pending:
            if frame.span_open:
                frame.span.tag("dropped", "session-reset")
                frame.span.finish(msgr.env.now)
                frame.span_open = False

    def __repr__(self) -> str:
        return f"<Connection {self.messenger.address} -> {self.peer_addr}>"


class _WirePump(Machine):
    """Flattened wire pump: streams encoded frames through the NIC in
    FIFO order, modelling the kernel socket buffer draining.

    Replaces the ``Connection._wire_pump`` generator (the second-hottest
    process type) with a state machine.  :meth:`Network.deliver`'s tx
    loop is inlined — chunk the frame through the sender's tx pipe,
    start an rx chunk machine per chunk
    (:meth:`~repro.hw.net.BandwidthPipe.rx_chunk`), join them in order,
    hand them back, re-check partitions — with exact event parity (the
    dynamic tie-order probe and the golden digests pin this).  Adversary
    branches stay on the existing synchronous helpers and cold generator
    processes (``_flush_held`` / ``_deliver_late``).

    Interruptible (messenger shutdown): maintains the Process duck-type
    fields at every park; an interrupt releases a held tx-pipe slot
    first, matching ``BandwidthPipe.transmit``'s ``finally`` unwinding,
    then completes — the generator's ``except Interrupt: return``.
    """

    __slots__ = (
        "conn",
        "_frame",
        "_tx_pipe",
        "_rx_pipe",
        "_latency",
        "_remaining",
        "_chunk",
        "_ser",
        "_req",
        "_rx_procs",
        "_rx_i",
        "_cb_frame",
        "_cb_tx_granted",
        "_cb_tx_done",
        "_cb_rx_done",
    )

    def __init__(self, conn: Connection) -> None:
        msgr = conn.messenger
        super().__init__(
            msgr.env, f"wire:{msgr.address}->{conn.peer_addr}"
        )
        self.conn = conn
        self._init_interruptible()
        self._frame: Optional[WireFrame] = None
        self._req: Any = None
        # Reused across frames (PERF303: no per-frame list allocation).
        self._rx_procs: list = []
        # Prebound state callbacks: a pump parks ~40 times per 4 MB
        # frame, and ``self._s_x`` would mint a bound method each time.
        self._cb_frame = self._s_frame
        self._cb_tx_granted = self._s_tx_granted
        self._cb_tx_done = self._s_tx_done
        self._cb_rx_done = self._s_rx_done
        self._start(self._s_kicked)

    def _s_kicked(self, event: Any) -> None:
        self._next_frame()

    def _next_frame(self) -> None:
        self._park(self.conn._wire_queue.get(), self._cb_frame)

    def _s_frame(self, event: Any) -> None:
        frame = event._value
        self._frame = frame
        conn = self.conn
        msgr = conn.messenger
        net = msgr.stack.network
        src = msgr.stack.address
        dst = conn.peer_addr
        # -- net.deliver(src, dst, frame.wire), flattened --
        if src == dst:
            self._s_delivered(True)
            return
        if net._severed(src, dst, frame.wire):
            self._s_delivered(False)
            return
        self._tx_pipe = net.nic(src).tx
        self._rx_pipe = net.nic(dst).rx
        self._latency = net.latency_s
        self._remaining = frame.wire
        self._rx_i = 0  # _rx_procs is empty: rx_release took the last frame's
        self._tx_next()

    def _tx_next(self) -> None:
        remaining = self._remaining
        if remaining <= 0:
            self._wait_rx()
            return
        tx = self._tx_pipe
        chunk_bytes = tx.chunk_bytes
        chunk = chunk_bytes if remaining > chunk_bytes else remaining
        ser = chunk * 8.0 / tx.bandwidth_bps
        injector = tx.fault_injector
        if injector is not None:
            spec = injector.fire(self.env.now, size=chunk)
            if spec is not None:
                ser *= spec.factor
                tx.degraded_chunks += 1
        self._chunk = chunk
        self._ser = ser
        req = tx._res.request()
        self._req = req
        self._park(req, self._cb_tx_granted)

    def _s_tx_granted(self, event: Any) -> None:
        # ``event`` is the granted request: it times its own hold.
        self._park(event.hold(self._ser), self._cb_tx_done)

    def _s_tx_done(self, event: Any) -> None:
        tx = self._tx_pipe
        tx._res.finish(self._req)
        self._req = None
        chunk = self._chunk
        tx.bytes_transferred += chunk
        tx.busy_time += self._ser
        # chunks are spawned in order and the kernel breaks timer ties
        # FIFO, so per-connection ordering is preserved
        self._rx_procs.append(self._rx_pipe.rx_chunk(chunk, self._latency))
        self._remaining = self._remaining - chunk
        self._tx_next()

    def _wait_rx(self) -> None:
        procs = self._rx_procs
        i = self._rx_i
        n = len(procs)
        while i < n:
            proc = procs[i]
            i += 1
            if proc.callbacks is not None:
                self._rx_i = i
                self._park(proc, self._cb_rx_done)
                return
        self._rx_pipe.rx_release(procs)
        conn = self.conn
        msgr = conn.messenger
        frame = self._frame
        severed = msgr.stack.network._severed(
            msgr.stack.address, conn.peer_addr, frame.wire
        )
        self._s_delivered(not severed)

    def _s_rx_done(self, event: Any) -> None:
        self._wait_rx()

    def _s_delivered(self, delivered: bool) -> None:
        conn = self.conn
        frame = self._frame
        self._frame = None
        msgr = conn.messenger
        if delivered is False:
            # a network partition ate the bytes on the wire; the frame
            # is gone for good (message-level retry is the recovery
            # path), so take it out of the resend window and remember
            # the hole for nack handling
            conn._resend.pop(frame.seq, None)
            conn._dropped.add(frame.seq)
            msgr.messages_dropped += 1
            if frame.span is not None and frame.span_open:
                frame.span.tag("dropped", "partition")
                frame.span.error(msgr.env.now, "partition")
                frame.span_open = False
            # tell the dispatcher its peer is unreachable, so retry
            # loops fail fast instead of waiting out a reply the
            # partition already ate
            hook = getattr(msgr.dispatcher, "ms_handle_connect_fault", None)
            if hook is not None:
                msgr._wire_count("connect_fault")
                hook(conn.peer_addr)
            self._next_frame()
            return
        adversary = msgr.adversary
        spec = None
        if adversary is not None:
            spec = adversary.action(msgr.env.now, frame.wire)
        if spec is None:
            conn._finish_delivery(frame)
            conn._release_held()
            self._next_frame()
            return
        kind = spec.kind
        if kind == "dup":
            conn._finish_delivery(frame)
            conn._finish_delivery(frame)
            conn._release_held()
        elif kind == "reorder" and conn._held is None:
            # held until the next frame passes it (or the flush timer
            # fires) — a reorder window of one frame
            conn._held = frame
            msgr.env.process(
                conn._flush_held(frame, spec.delay or _REORDER_FLUSH),
                name=f"wire-flush:{msgr.stack.address}->{conn.peer_addr}",
            )
        elif kind == "jitter":
            msgr.env.process(
                conn._deliver_late(frame, spec.delay),
                name=f"wire-jitter:{msgr.stack.address}->{conn.peer_addr}",
            )
        elif kind == "corrupt":
            conn._finish_delivery(frame, adversary.corrupted(frame.bl))
            conn._release_held()
        elif kind == "truncate":
            conn._finish_delivery(frame, adversary.truncated(frame.bl))
            conn._release_held()
        else:  # a second reorder while one frame is already held
            conn._finish_delivery(frame)
            conn._release_held()
        self._next_frame()

    def _on_interrupt(self, exc: Interrupt) -> None:
        # messenger shutdown: socket buffer discarded with the daemon.
        # Release a held tx-pipe slot first — parity with the transmit
        # generator's `finally` unwinding as the Interrupt propagated.
        req = self._req
        if req is not None:
            self._req = None
            self._tx_pipe._res.finish(req)
        self._cb_frame = self._cb_tx_granted = None
        self._cb_tx_done = self._cb_rx_done = None
        self._finish(None)


class _Worker:
    """One msgr-worker thread: serial event loop over its connections."""

    __slots__ = ("messenger", "index", "thread", "queue", "proc")

    def __init__(self, messenger: "AsyncMessenger", index: int) -> None:
        self.messenger = messenger
        self.index = index
        self.thread = SimThread(
            messenger.stack.cpu,
            f"{messenger.name}.msgr-worker-{index}",
            MSGR_CATEGORY,
        )
        self.queue: Store = Store(messenger.env)
        self.proc = messenger.env.process(
            self._loop(), name=f"{messenger.name}.msgr-worker-{index}"
        )

    def enqueue(self, item: tuple) -> None:
        # Store.put on an unbounded store succeeds synchronously; the
        # returned event is consumed by the loop's get.
        self.queue.put(item)

    def _loop(self) -> Generator[Any, Any, None]:
        msgr = self.messenger
        tcp = msgr.stack.tcp
        cost = msgr.cost
        thread = self.thread
        while True:
            item = yield self.queue.get()
            if msgr.down:
                # daemon is dead: every queued or newly arriving item is
                # dropped on the floor, like a closed socket
                msgr.messages_dropped += 1
                if item[0] == "recv" and item[2].span is not None:
                    item[2].span.tag("dropped", "daemon-down")
                continue
            kind = item[0]
            if kind == "send":
                _, conn, msg = item
                parent = msg.span_ctx
                bl = msg.encode()
                wire = len(bl) + WIRE_OVERHEAD
                send_span = None
                if parent is not None:
                    send_span = parent.child(
                        "msgr.send", msgr.env.now, thread=thread,
                        nbytes=wire,
                    )
                    send_span.tag("msg", type(msg).__name__)
                    send_span.tag("peer", conn.peer_addr)
                    # replies carry the span of the work that produced
                    # them (osd.op / osd.repop); the link lets the
                    # critical-path walk cross from the reply wire back
                    # into that processing span
                    origin = msg.origin_span
                    if origin is not None:
                        send_span.link(origin, "follows")
                send_cpu, _, send_ctx, _ = tcp.costs(wire)
                yield from thread.charge(cost.encode_cpu(wire))
                yield from thread.charge(send_cpu)
                yield from thread.ctx_switch(send_ctx)
                conn._queue_frame(bl, msg, wire, send_span)
                msgr.messages_sent += 1
                msgr.bytes_sent += wire
            elif kind == "recv":
                _, src_addr, frame, bl = item
                sender_span = None if frame.retx else frame.span
                recv_span = None
                if sender_span is not None and sender_span.parent is not None:
                    recv_span = sender_span.parent.child(
                        "msgr.recv", msgr.env.now, thread=thread,
                        nbytes=frame.wire,
                    )
                    recv_span.link(sender_span, "follows")
                # epoll wakeup + kernel receive path
                _, recv_cpu, _, recv_ctx = tcp.costs(frame.wire)
                yield from thread.ctx_switch(recv_ctx)
                yield from thread.charge(recv_cpu)
                yield from thread.charge(cost.decode_cpu(frame.wire))
                # -- wire integrity: pure computation, so the in-order
                # uncorrupted path adds zero events over the old code --
                rx = msgr._rx_state(src_addr)
                if frame.epoch != rx.epoch:
                    if frame.epoch < rx.epoch:
                        # pre-reset straggler from a dead stream
                        msgr._wire_count("stale_drop")
                        if recv_span is not None:
                            recv_span.tag("dropped", "stale-epoch")
                            recv_span.finish(msgr.env.now)
                        continue
                    # peer reset (or first contact): fresh stream state
                    if rx.epoch:
                        msgr._wire_count("reset_seen")
                    rx.epoch = frame.epoch
                    rx.seq = 0
                    rx.reorder.clear()
                if frame.seq <= rx.seq:
                    # duplicate / replay of an already-delivered frame
                    msgr._wire_count("dup_suppressed")
                    if recv_span is not None:
                        recv_span.tag("dropped", "duplicate")
                        recv_span.finish(msgr.env.now)
                    continue
                if (
                    frame.crc is not None
                    and msgr.verify_frames
                    and frame.crc != bl.crc32()
                ):
                    msgr._wire_count("crc_rejected")
                    if recv_span is not None:
                        recv_span.tag("dropped", "crc-mismatch")
                        recv_span.error(msgr.env.now, "crc-mismatch")
                    msgr._request_retransmit(src_addr, rx, frame.seq)
                    continue
                if frame.seq > rx.seq + 1:
                    # sequence gap: park the frame, nack the holes
                    gap = frame.seq - rx.seq - 1
                    if gap > _REORDER_LIMIT or len(rx.reorder) >= _REORDER_LIMIT:
                        msgr._wire_count("reset_requested")
                        rx.reorder.clear()
                        if recv_span is not None:
                            recv_span.tag("dropped", "reorder-overflow")
                            recv_span.error(msgr.env.now, "reorder-overflow")
                        msgr._request_reset(src_addr, rx)
                        continue
                    msgr._wire_count("gap")
                    if frame.seq not in rx.reorder:
                        rx.reorder[frame.seq] = (frame, bl, recv_span)
                    elif recv_span is not None:
                        recv_span.tag("dropped", "duplicate")
                        recv_span.finish(msgr.env.now)
                    for missing in range(rx.seq + 1, frame.seq):
                        if missing not in rx.reorder:
                            msgr._request_retransmit(src_addr, rx, missing)
                    # partition-consumed holes are skipped synchronously
                    # via the control channel; drain whatever that just
                    # made contiguous
                    while (rx.seq + 1) in rx.reorder:
                        rx.seq += 1
                        nxt, nbl, nspan = rx.reorder.pop(rx.seq)
                        if nspan is not None:
                            nspan.tag("reordered", "buffered")
                        yield from self._deliver(src_addr, nxt, nbl, nspan)
                    continue
                # in-order: dispatch, then drain any parked successors
                rx.seq = frame.seq
                yield from self._deliver(src_addr, frame, bl, recv_span)
                while (rx.seq + 1) in rx.reorder:
                    rx.seq += 1
                    nxt, nbl, nspan = rx.reorder.pop(rx.seq)
                    if nspan is not None:
                        nspan.tag("reordered", "buffered")
                    yield from self._deliver(src_addr, nxt, nbl, nspan)
            else:  # pragma: no cover - defensive
                raise RuntimeError(f"unknown worker item: {item!r}")

    def _deliver(
        self, src_addr: str, frame: WireFrame, bl: BufferList, recv_span: Any
    ) -> Generator[Any, Any, None]:
        """Decode + dispatch one integrity-checked frame (the receive
        charges were paid when its bytes arrived)."""
        msgr = self.messenger
        cost = msgr.cost
        thread = self.thread
        try:
            msg = decode_message(bl, frame.attachment)
        except EncodeError:
            # truncated frame reached decode (verification disabled or a
            # mangled header slipping past the blob-tagged CRC)
            msgr._wire_count("decode_error")
            if recv_span is not None:
                recv_span.tag("dropped", "decode-error")
                recv_span.error(msgr.env.now, "decode-error")
            return
        if recv_span is not None:
            recv_span.tag("msg", type(msg).__name__)
            msg.span_ctx = frame.span.parent  # type: ignore[attr-defined]
        msgr.messages_received += 1
        msgr.bytes_received += frame.wire
        if msgr.throttle is not None:
            yield msgr.throttle.get(max(1, frame.wire))
            msg.throttle_release = _release_once(msgr.throttle, max(1, frame.wire))  # type: ignore[attr-defined]
        yield from thread.charge(cost.dispatch_fixed)
        conn = msgr.connect(src_addr)
        dispatcher = msgr.dispatcher
        if dispatcher is not None:
            yield from dispatcher.ms_dispatch(msg, conn)
        if recv_span is not None:
            recv_span.finish(msgr.env.now)


def _release_once(throttle: Container, amount: int) -> Callable[[], None]:
    released = [False]

    def release() -> None:
        if not released[0]:
            released[0] = True
            throttle.put(amount)

    return release


class AsyncMessenger:
    """Messenger instance bound to one :class:`NetStack`.

    Parameters
    ----------
    stack:
        Where this messenger lives (host stack for Baseline, DPU stack
        for DoCeph — this single argument is the paper's architectural
        change).
    name:
        Instance name, e.g. ``"osd.0"``.
    directory:
        Shared address registry for the fabric.
    workers:
        msgr-worker thread count (Ceph default 3).
    throttle_bytes:
        Dispatch throttle capacity; ``None`` disables throttling.
    """

    __slots__ = (
        "stack",
        "name",
        "directory",
        "cost",
        "dispatcher",
        "_workers",
        "_connections",
        "_conn_counter",
        "throttle",
        "down",
        "messages_sent",
        "messages_received",
        "bytes_sent",
        "bytes_received",
        "messages_dropped",
        "adversary",
        "_rx",
        "_epoch_counter",
        "wire_stats",
    )

    #: Test-only escape hatch: class-level flag disabling frame CRC
    #: verification, proving the *defense* (not the adversary's absence)
    #: is what holds the durability invariant.
    verify_frames = True

    def __init__(
        self,
        stack: NetStack,
        name: str,
        directory: MsgrDirectory,
        workers: int = 3,
        cost: MessengerCostModel | None = None,
        throttle_bytes: Optional[int] = 256 * 1024 * 1024,
    ) -> None:
        if workers < 1:
            raise ValueError("need at least one messenger worker")
        self.stack = stack
        self.name = name
        self.directory = directory
        self.cost = cost or MessengerCostModel()
        self.dispatcher: Optional[Dispatcher] = None
        directory.register(stack.address, self)

        self._workers = [_Worker(self, i) for i in range(workers)]
        self._connections: dict[str, Connection] = {}
        self._conn_counter = 0

        self.throttle: Optional[Container] = None
        if throttle_bytes is not None:
            self.throttle = Container(
                stack.env, capacity=throttle_bytes, init=throttle_bytes
            )

        #: ``True`` while the owning daemon is down; set by
        #: :meth:`shutdown` / cleared by :meth:`startup`.
        self.down = False

        #: Wire adversary armed by :meth:`FaultPlan.attach_msgr`
        #: (``None`` keeps the whole integrity layer event-free).
        self.adversary: Optional[Any] = None
        #: per-source receive stream state (socket-level; dies with the
        #: daemon, unlike the lazily rebuilt Connection map)
        self._rx: dict[str, _RxState] = {}
        self._epoch_counter = 0
        #: wire-integrity incident counters (crc_rejected,
        #: dup_suppressed, gap, retransmit, reset, ...)
        self.wire_stats: dict[str, int] = {}

        # statistics
        self.messages_sent = 0
        self.messages_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.messages_dropped = 0

    @property
    def env(self) -> Environment:
        return self.stack.env

    @property
    def address(self) -> str:
        return self.stack.address

    def register_dispatcher(self, dispatcher: Dispatcher) -> None:
        """Set the entity that receives inbound messages."""
        self.dispatcher = dispatcher

    def shutdown(self) -> None:
        """Tear down every connection, as when the owning daemon dies.

        Outbound bytes still in wire pumps are lost; queued worker items
        are drained and dropped; inbound messages are refused until
        :meth:`startup`.  Idempotent.
        """
        if self.down:
            return
        self.down = True
        for conn in self._connections.values():
            if conn._pump.is_alive:
                conn._pump.interrupt("messenger shutdown")
        # old connections (and their wire queues, which may hold stale
        # waiters) are abandoned; startup() recreates them lazily
        self._connections.clear()
        # kernel socket state dies with the daemon; survivors' streams
        # re-handshake via the epoch-adoption path on first contact
        self._rx.clear()

    def startup(self) -> None:
        """Accept traffic again after :meth:`shutdown` (fresh
        connections are created lazily on first use)."""
        self.down = False

    def connect(self, peer_addr: str) -> Connection:
        """Get (or lazily create) the ordered connection to a peer.

        New connections are assigned to workers round-robin, as in
        Ceph's AsyncMessenger.
        """
        conn = self._connections.get(peer_addr)
        if conn is None:
            worker = self._workers[self._conn_counter % len(self._workers)]
            self._conn_counter += 1
            conn = Connection(self, peer_addr, worker)
            self._connections[peer_addr] = conn
        return conn

    def send_message(self, msg: Message, peer_addr: str) -> None:
        """Send ``msg`` to the messenger at ``peer_addr``."""
        if self.down:
            self.messages_dropped += 1
            return
        msg.src = self.address
        self.connect(peer_addr).send(msg)

    def _enqueue_incoming(
        self,
        src_addr: str,
        frame: WireFrame,
        bl: BufferList,
    ) -> None:
        """Called by the sender's wire pump when bytes land in our
        kernel receive buffer: wake the owning worker."""
        if self.down:
            # nobody is listening on the socket
            self.messages_dropped += 1
            if frame.span is not None:
                frame.span.tag("dropped", "peer-down")
            return
        conn = self.connect(src_addr)
        conn.worker.enqueue(("recv", src_addr, frame, bl))

    # -- wire-integrity plumbing ------------------------------------------

    def _next_epoch(self) -> int:
        self._epoch_counter += 1
        return self._epoch_counter

    def _rx_state(self, src_addr: str) -> _RxState:
        rx = self._rx.get(src_addr)
        if rx is None:
            rx = self._rx[src_addr] = _RxState()
        return rx

    def _wire_count(self, key: str) -> None:
        self.wire_stats[key] = self.wire_stats.get(key, 0) + 1

    def _peer_conn(self, src_addr: str, rx: _RxState) -> Optional[Connection]:
        """The sender-side connection behind ``rx``'s stream, for the
        reverse control channel (models TCP's ack/SACK path riding the
        same established connection — hence no separate wire charge)."""
        try:
            sender = self.directory.lookup(src_addr)
        except ValueError:
            return None
        if sender.down:
            return None
        conn = sender._connections.get(self.address)
        if conn is None or conn.epoch != rx.epoch:
            return None
        return conn

    def _request_retransmit(
        self, src_addr: str, rx: _RxState, seq: int
    ) -> None:
        conn = self._peer_conn(src_addr, rx)
        if conn is not None:
            conn.handle_nack(seq, rx.seq)

    def _request_reset(self, src_addr: str, rx: _RxState) -> None:
        conn = self._peer_conn(src_addr, rx)
        if conn is not None:
            # rx.seq == 0 means we have no delivered history in this
            # epoch: the sender kept counting while we lost state (we
            # restarted) — a session reset, not an in-flight recovery
            conn.reset(resend=rx.seq > 0)

    def _skip_seq(self, src_addr: str, seq: int) -> None:
        """The sender declares ``seq`` gone for good (the wire consumed
        it): advance past the hole so parked successors can drain."""
        rx = self._rx.get(src_addr)
        if rx is not None and rx.epoch and rx.seq == seq - 1:
            rx.seq = seq
            self._wire_count("skip")

    def __repr__(self) -> str:
        return (
            f"<AsyncMessenger {self.name}@{self.address} "
            f"workers={len(self._workers)}>"
        )
