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
from ..sim.machine import Machine

__all__ = ["BandwidthPipe", "Nic", "Network", "Partition"]


class _RxChunk(Machine):
    """Flattened receive-side chunk: propagation latency, then the
    receiver's rx pipe.

    This is the single hottest process type in the repo (~25% of all
    event resumptions on the fallback scenario), so the generator
    closure in :meth:`Network.deliver` is replaced with a state machine.
    Event parity with ``env.process(rx_chunk(chunk), name="rx-chunk")``:
    kick (= ``Initialize``), latency sleep, one request + one sleep per
    rx-pipe chunk with the pipe released *before* the byte accounting
    (matching ``BandwidthPipe.transmit``'s ``finally``), completion
    event on return.  Never interrupted: abandoning a delivery detaches
    the waiter from this machine's completion event, exactly as it
    detached from the rx-chunk ``Process``.
    """

    __slots__ = (
        "_pipe",
        "_remaining",
        "_chunk",
        "_ser",
        "_req",
        "_cb_latency_done",
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
        # _ser carries the pending sleep duration for the next park; the
        # first park (made when the kick fires, matching the generator's
        # first resume) is the propagation latency.
        self._ser = latency_s
        self._req: Any = None
        # Prebound state callbacks: each park appends one of these, and
        # minting a fresh bound method per park is an allocation on the
        # hottest path in the repo (PERF303).
        self._cb_latency_done = self._s_latency_done
        self._cb_granted = self._s_granted
        self._cb_chunk_done = self._s_chunk_done
        self._start(self._s_kicked)

    # Parks append the state callback directly instead of via _park:
    # nothing ever interrupts an rx chunk, so the Process duck-type
    # fields (_target/_bound_resume) need not be maintained.
    def _s_kicked(self, event: Any) -> None:
        self.env.sleep(self._ser).callbacks.append(self._cb_latency_done)

    def _s_latency_done(self, event: Any) -> None:
        self._next_chunk()

    def _next_chunk(self) -> None:
        remaining = self._remaining
        if remaining <= 0:
            # Last state: unbind the state callbacks (cycles through
            # self that only the suspended collector could free).
            self._cb_latency_done = self._cb_granted = None
            self._cb_chunk_done = None
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
        req = pipe._res.request()
        self._req = req
        req.callbacks.append(self._cb_granted)

    def _s_granted(self, event: Any) -> None:
        self.env.sleep(self._ser).callbacks.append(self._cb_chunk_done)

    def _s_chunk_done(self, event: Any) -> None:
        pipe = self._pipe
        pipe._res.finish(self._req)
        self._req = None
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
                yield env.sleep(ser)
            finally:
                res.finish(req)
            self.bytes_transferred += chunk
            self.busy_time += ser
            remaining -= chunk

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
    boundary (exactly one endpoint inside ``nodes``) is dropped.  ``end``
    may be shrunk later (:meth:`Network.heal_partitions`) to heal early.
    """

    __slots__ = ("nodes", "start", "end", "on_drop", "drops", "dropped_bytes")

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
        self.drops = 0
        self.dropped_bytes = 0

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

    def addresses(self) -> list[str]:
        return sorted(self._nics)

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

    def heal_partitions(self, now: Optional[float] = None) -> None:
        """Force every partition to end no later than ``now`` (default:
        the current sim time)."""
        cutoff = self.env.now if now is None else now
        for part in self._partitions:
            part.end = min(part.end, cutoff)

    def _severed(self, src: str, dst: str, nbytes: int) -> bool:
        now = self.env.now
        for part in self._partitions:
            if part.severs(src, dst, now):
                part.drops += 1
                part.dropped_bytes += nbytes
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
        env = self.env
        latency_s = self.latency_s
        rx_pipe = dst_nic.rx

        rx_procs = []
        remaining = nbytes
        while remaining > 0:
            chunk = min(remaining, src_nic.tx.chunk_bytes)
            yield from src_nic.tx.transmit(chunk)
            # chunks are spawned in order and the kernel breaks timer
            # ties FIFO, so per-connection ordering is preserved
            rx_procs.append(_RxChunk(env, rx_pipe, chunk, latency_s))
            remaining -= chunk
        for proc in rx_procs:
            yield proc
        if self._severed(src, dst, nbytes):
            return False
        return True

    def __repr__(self) -> str:
        return f"<Network {len(self._nics)} endpoints, {self.latency_s*1e6:.0f} µs>"
