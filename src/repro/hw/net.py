"""Network fabric: bandwidth pipes, NICs, and a star-topology network.

The model is store-and-forward with chunked transmission:

* Each NIC has independent ``tx`` and ``rx`` :class:`BandwidthPipe`\\ s.
* A message first streams through the sender's tx pipe, then incurs the
  link propagation latency, then streams through the receiver's rx pipe.
* Pipes transmit in ``chunk_bytes`` chunks so long messages do not
  head-of-line-block heartbeats; concurrent flows share pipe bandwidth
  approximately fairly (round-robin at chunk granularity).

Saturated throughput equals pipe bandwidth exactly; per-message latency
for an uncontended large message is ≈ ``2·size/bw + latency`` (the extra
``size/bw`` versus cut-through is negligible at the timescales the
experiments resolve, and is documented in DESIGN.md).
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..sim import Environment, Resource
from ..sim.exceptions import SimulationError
from ..sim.machine import Machine, _Timer

__all__ = ["BandwidthPipe", "Nic", "Network", "Partition"]


#: Bound of a pipe's free list of chunk machines.  A connection has at
#: most one frame's chunks in flight (17 for a 4 MB object), so this
#: covers the few peers a NIC hears from at once; chunks beyond it are
#: dropped and constructed again.
_RX_FREE_MAX = 64


class _RxChunk(Machine):
    """Flattened receive-side chunk: propagation latency, then the
    receiver's rx pipe.

    This is the single hottest process type in the repo (~25% of all
    event resumptions on the fallback scenario), so the generator
    closure in :meth:`Network.deliver` is replaced with a state machine.
    Event parity with ``env.process(rx_chunk(chunk), name="rx-chunk")``:
    kick (= ``Initialize``), latency timeout, one request + one hold per
    rx-pipe chunk with the pipe released *before* the byte accounting
    (matching ``BandwidthPipe.transmit``'s ``finally``), completion
    event on return.  Never interrupted: abandoning a delivery detaches
    the waiter from this machine's completion event, exactly as it
    detached from the rx-chunk ``Process``.

    Chunk machines are recycled: :meth:`BandwidthPipe.rx_chunk` starts
    one off the pipe's free list and :meth:`BandwidthPipe.rx_release`
    takes a joined frame's chunks back, each with its kick, its latency
    timer and its prebound state callbacks, so a steady-state frame
    constructs no event object (DESIGN.md §13, "Who owns an event
    object").
    """

    __slots__ = (
        "_pipe",
        "_remaining",
        "_chunk",
        "_ser",
        "_kick",
        "_timer",
        "_cb_kicked",
        "_cb_next_chunk",
        "_cb_granted",
        "_cb_chunk_done",
    )

    def __init__(
        self, env: Environment, pipe: BandwidthPipe, nbytes: int, latency_s: float
    ) -> None:
        super().__init__(env, "rx-chunk")
        self._pipe = pipe
        self._remaining = nbytes
        self._chunk = 0
        # _ser carries the duration of the next wait; the first (made
        # when the kick fires, matching the generator's first resume) is
        # the propagation latency.
        self._ser = latency_s
        # Prebound state callbacks: each park appends one of these, and
        # minting a fresh bound method per park is an allocation on the
        # hottest path in the repo (PERF303).
        self._cb_kicked = self._s_kicked
        self._cb_next_chunk = self._next_chunk
        self._cb_granted = self._s_granted
        self._cb_chunk_done = self._s_chunk_done
        # The latency is the one wait in the tree that holds nothing, so
        # it has a timer of its own; every other wait is a Request.hold.
        self._timer = _Timer(env)
        self._kick = self._start(self._cb_kicked)

    def _unbind(self) -> None:
        """Drop the state callbacks of a chunk that will not run again
        (each is a cycle through ``self`` that only the collector, which
        run() suspends, could free)."""
        self._cb_kicked = self._cb_next_chunk = None
        self._cb_granted = self._cb_chunk_done = None

    # Parks append the state callback directly instead of via _park:
    # nothing ever interrupts an rx chunk, so the Process duck-type
    # fields (_target/_bound_resume) need not be maintained.
    def _s_kicked(self, event: Any) -> None:
        self._timer.arm(self._ser, self._cb_next_chunk)

    def _next_chunk(self, event: Any = None) -> None:
        # Also the state the latency timer fires: the wire has been
        # crossed, the first rx-pipe chunk is next.
        remaining = self._remaining
        if remaining <= 0:
            self._finish(None)
            return
        pipe = self._pipe
        chunk_bytes = pipe.chunk_bytes
        chunk = chunk_bytes if remaining > chunk_bytes else remaining
        ser = chunk * 8.0 / pipe.bandwidth_bps
        injector = pipe.fault_injector
        if injector is not None:
            spec = injector.fire(self.env.now, size=chunk)
            if spec is not None:
                ser *= spec.factor
                pipe.degraded_chunks += 1
        self._chunk = chunk
        self._ser = ser
        pipe._res.request().callbacks.append(self._cb_granted)

    # ``event`` is the request in both states: granted, it times its own
    # hold, so the machine need not remember it in between.
    def _s_granted(self, event: Any) -> None:
        event.hold(self._ser).callbacks.append(self._cb_chunk_done)

    def _s_chunk_done(self, event: Any) -> None:
        pipe = self._pipe
        pipe._res.finish(event)
        chunk = self._chunk
        pipe.bytes_transferred += chunk
        pipe.busy_time += self._ser
        self._remaining -= chunk
        self._next_chunk()


class BandwidthPipe:
    """A FIFO serialization pipe of fixed bandwidth.

    Transfers are chopped into chunks; each chunk seizes the pipe for
    ``chunk_bytes * 8 / bandwidth_bps`` seconds.  Statistics track total
    bytes and busy time so tests can verify conservation.
    """

    __slots__ = (
        "env",
        "name",
        "bandwidth_bps",
        "chunk_bytes",
        "_res",
        "_rx_free",
        "fault_injector",
        "bytes_transferred",
        "busy_time",
        "degraded_chunks",
    )

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float,
        chunk_bytes: int = 262_144,
    ) -> None:
        if bandwidth_bps <= 0:
            raise SimulationError("bandwidth must be positive")
        if chunk_bytes <= 0:
            raise SimulationError("chunk size must be positive")
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.chunk_bytes = chunk_bytes
        self._res = Resource(env, capacity=1, recycle_requests=True)
        #: Idle :class:`_RxChunk` machines of this (receiving) pipe, at
        #: most :data:`_RX_FREE_MAX`.
        self._rx_free: list[_RxChunk] = []
        #: Optional :class:`~repro.faults.LayerInjector` (layer "net");
        #: a hit stretches that chunk's serialization by the spec's
        #: ``factor`` (link degradation: retransmits, PFC pauses, FEC).
        self.fault_injector: Optional[Any] = None
        self.bytes_transferred = 0
        self.busy_time = 0.0
        self.degraded_chunks = 0

    def transmit(self, nbytes: int) -> Generator[Any, Any, None]:
        """Stream ``nbytes`` through the pipe (chunked, FIFO-fair)."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        # Hot loop: attribute lookups hoisted; the injector is wired at
        # build time, so fetching the guard once per transfer is
        # equivalent to checking it per chunk.
        env = self.env
        res = self._res
        chunk_bytes = self.chunk_bytes
        bandwidth = self.bandwidth_bps
        injector = self.fault_injector
        remaining = nbytes
        while remaining > 0:
            chunk = chunk_bytes if remaining > chunk_bytes else remaining
            ser = chunk * 8.0 / bandwidth
            if injector is not None:
                spec = injector.fire(env.now, size=chunk)
                if spec is not None:
                    ser *= spec.factor
                    self.degraded_chunks += 1
            req = res.request()
            try:
                yield req
                yield req.hold(ser)
            finally:
                res.finish(req)
            self.bytes_transferred += chunk
            self.busy_time += ser
            remaining -= chunk

    def rx_chunk(self, nbytes: int, latency_s: float) -> _RxChunk:
        """Start the receive side of one wire chunk: ``nbytes`` enter
        this pipe ``latency_s`` from now.  Returns the running machine,
        to be joined and then handed back with :meth:`rx_release`."""
        free = self._rx_free
        if not free:
            return _RxChunk(self.env, self, nbytes, latency_s)
        chunk = free.pop()
        chunk._remaining = nbytes
        chunk._ser = latency_s
        chunk._restart(chunk._kick, chunk._cb_kicked)
        return chunk

    def rx_release(self, chunks: list[_RxChunk]) -> None:
        """Take back (and empty) ``chunks``, the :meth:`rx_chunk`
        machines of one frame, once every one of them has been joined:
        completed, and its completion dispatched."""
        free = self._rx_free
        free.extend(chunks)
        chunks.clear()
        while len(free) > _RX_FREE_MAX:
            free.pop()._unbind()

    def __repr__(self) -> str:
        return f"<BandwidthPipe {self.name} {self.bandwidth_bps/1e9:.1f} Gbps>"


class Nic:
    """A network interface: tx + rx pipes and an address on the fabric."""

    __slots__ = ("env", "name", "bandwidth_bps", "tx", "rx")

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth_bps: float,
        chunk_bytes: int = 262_144,
    ) -> None:
        self.env = env
        self.name = name
        self.bandwidth_bps = bandwidth_bps
        self.tx = BandwidthPipe(env, f"{name}.tx", bandwidth_bps, chunk_bytes)
        self.rx = BandwidthPipe(env, f"{name}.rx", bandwidth_bps, chunk_bytes)

    def __repr__(self) -> str:
        return f"<Nic {self.name} {self.bandwidth_bps/1e9:.1f} Gbps>"


class Partition:
    """A sustained link-down window isolating ``nodes`` from the rest.

    While ``start <= now < end``, any delivery crossing the partition
    boundary (exactly one endpoint inside ``nodes``) is dropped.
    """

    __slots__ = ("nodes", "start", "end", "on_drop")

    def __init__(
        self,
        nodes: frozenset[str],
        start: float,
        end: float,
        on_drop: Optional[Callable[[int], None]] = None,
    ) -> None:
        if end < start:
            raise SimulationError("partition must end after it starts")
        self.nodes = frozenset(nodes)
        self.start = start
        self.end = end
        self.on_drop = on_drop

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def severs(self, src: str, dst: str, now: float) -> bool:
        return self.active(now) and (src in self.nodes) != (dst in self.nodes)

    def __repr__(self) -> str:
        group = ",".join(sorted(self.nodes))
        return f"<Partition {{{group}}} [{self.start:.3f}, {self.end:.3f})>"


class Network:
    """Star-topology fabric: every NIC connects through a non-blocking
    switch with uniform propagation latency.

    A 2–3 node 100 GbE testbed behind one switch has no core contention,
    so only the endpoint NICs model bandwidth; that is exactly the
    paper's setup (Table 1).
    """

    __slots__ = (
        "env",
        "latency_s",
        "_nics",
        "_partitions",
        "partition_drops",
        "partition_dropped_bytes",
    )

    def __init__(self, env: Environment, latency_s: float = 20e-6) -> None:
        if latency_s < 0:
            raise SimulationError("latency must be >= 0")
        self.env = env
        self.latency_s = latency_s
        self._nics: dict[str, Nic] = {}
        self._partitions: list[Partition] = []
        self.partition_drops = 0
        self.partition_dropped_bytes = 0

    def attach(self, address: str, nic: Nic) -> None:
        """Register a NIC under ``address`` (e.g. ``"node0"``)."""
        if address in self._nics:
            raise SimulationError(f"address already attached: {address}")
        self._nics[address] = nic

    def nic(self, address: str) -> Nic:
        try:
            return self._nics[address]
        except KeyError:
            raise SimulationError(f"unknown address: {address}") from None

    def partition(
        self,
        nodes: frozenset[str] | set[str] | list[str] | tuple[str, ...],
        start: float,
        end: float,
        on_drop: Optional[Callable[[int], None]] = None,
    ) -> Partition:
        """Isolate ``nodes`` from everything else during ``[start, end)``."""
        part = Partition(frozenset(nodes), start, end, on_drop)
        self._partitions.append(part)
        return part

    def _severed(self, src: str, dst: str, nbytes: int) -> bool:
        now = self.env.now
        for part in self._partitions:
            if part.severs(src, dst, now):
                self.partition_drops += 1
                self.partition_dropped_bytes += nbytes
                if part.on_drop is not None:
                    part.on_drop(nbytes)
                return True
        return False

    def deliver(
        self, src: str, dst: str, nbytes: int
    ) -> Generator[Any, Any, bool]:
        """Move ``nbytes`` from ``src`` to ``dst``.

        Chunk-level cut-through: each chunk enters the receiver's rx
        pipe as soon as it leaves the sender's tx pipe (plus propagation
        latency), so a message's tx and rx serialization overlap — as
        on a real switched Ethernet.  Completion is the last chunk
        clearing the rx pipe.  Loopback skips the wire.

        Returns ``True`` if the payload reached ``dst`` and ``False`` if
        a :class:`Partition` dropped it.  Drops are checked both when
        the transfer starts and when it finishes, so a message in flight
        when a partition opens is lost like a mid-flight packet."""
        if src == dst:
            return True
        if self._severed(src, dst, nbytes):
            return False
        src_nic = self.nic(src)
        dst_nic = self.nic(dst)
        latency_s = self.latency_s
        rx_pipe = dst_nic.rx

        rx_procs = []
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, src_nic.tx.chunk_bytes)
            yield from src_nic.tx.transmit(chunk)
            # chunks are spawned in order and the kernel breaks timer
            # ties FIFO, so per-connection ordering is preserved
            rx_procs.append(rx_pipe.rx_chunk(chunk, latency_s))
            remaining -= chunk
        for proc in rx_procs:
            yield proc
        rx_pipe.rx_release(rx_procs)
        if self._severed(src, dst, nbytes):
            return False
        return True

    def __repr__(self) -> str:
        return f"<Network {len(self._nics)} endpoints, {self.latency_s*1e6:.0f} µs>"
