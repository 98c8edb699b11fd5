"""DPU↔host DMA engine model (DOCA DMA semantics).

Models the BlueField-3 DMA path the paper builds on:

* transfers are capped at :data:`MAX_DMA_TRANSFER` (≈2 MB on BF3, the
  hardware limitation §3.3/§4 works around by segmentation);
* each transfer costs a fixed descriptor setup latency plus
  ``size / bandwidth`` on one of a small number of hardware channels;
* DMA moves bytes **without host CPU involvement** — the engine charges
  no CPU to anyone; completion is observed by a polling thread
  (modelled in ``repro.core.host_server``);
* fault injection hooks let tests and the fallback/cooldown experiments
  make individual transfers fail with :class:`DmaError`.

Statistics (bytes moved, transfer count, busy time, failures) support
both the latency-breakdown instrumentation (Table 3) and conservation
tests.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..sim import Environment, Resource
from ..sim.exceptions import SimulationError

__all__ = ["DmaEngine", "DmaError", "MAX_DMA_TRANSFER"]

#: BlueField-3 single-transfer cap (the paper's "approximately 2 MB").
MAX_DMA_TRANSFER = 2 * 1024 * 1024


class DmaError(Exception):
    """A DMA transfer failed (injected or hardware-modelled)."""


class DmaEngine:
    """The node-local DMA engine between DPU memory and host memory.

    Parameters
    ----------
    bandwidth:
        Per-channel payload bandwidth in bytes/s.
    setup_latency:
        Fixed per-transfer cost (descriptor post + doorbell + completion
        latency), in seconds.
    channels:
        Number of hardware channels that can move data concurrently.
    max_transfer:
        Hardware cap on a single transfer's size in bytes.
    """

    __slots__ = (
        "env",
        "name",
        "bandwidth",
        "setup_latency",
        "max_transfer",
        "_channels",
        "fault_hook",
        "fault_injector",
        "bytes_transferred",
        "transfers",
        "failures",
        "failed_bytes",
        "busy_time",
        "setup_time",
        "wait_time",
    )

    def __init__(
        self,
        env: Environment,
        name: str,
        bandwidth: float = 12.0e9,
        setup_latency: float = 2.0e-6,
        channels: int = 1,
        max_transfer: int = MAX_DMA_TRANSFER,
    ) -> None:
        if bandwidth <= 0 or setup_latency < 0 or channels < 1:
            raise SimulationError("invalid DMA engine parameters")
        self.env = env
        self.name = name
        self.bandwidth = bandwidth
        self.setup_latency = setup_latency
        self.max_transfer = max_transfer
        self._channels = Resource(env, capacity=channels,
                                  recycle_requests=True)

        #: Optional fault hook: called with the transfer size, returns
        #: True to make this transfer raise :class:`DmaError`.
        self.fault_hook: Optional[Callable[[int], bool]] = None
        #: Optional :class:`~repro.faults.LayerInjector` (layer "dma")
        #: consulted per transfer; checked after :attr:`fault_hook`.
        self.fault_injector: Optional[Any] = None

        # statistics
        self.bytes_transferred = 0
        self.transfers = 0
        self.failures = 0
        self.failed_bytes = 0
        self.busy_time = 0.0
        self.setup_time = 0.0
        self.wait_time = 0.0

    def transfer(
        self, nbytes: int, extra_setup: float = 0.0
    ) -> Generator[Any, Any, float]:
        """Move ``nbytes`` across PCIe on one channel.

        ``extra_setup`` extends the channel-occupying setup phase (used
        for CommChannel memory-region negotiation, which flows through
        the same serial command queue).

        Returns the queueing delay experienced (seconds spent waiting
        for a free channel) so callers can attribute DMA-wait time.
        Raises :class:`DmaError` if the fault hook trips (after the
        channel has been held for the transfer duration — the failure is
        detected at completion polling, like a real CQE error).
        """
        if nbytes <= 0:
            raise SimulationError(f"transfer size must be positive: {nbytes}")
        if nbytes > self.max_transfer:
            raise SimulationError(
                f"transfer of {nbytes} B exceeds hardware cap "
                f"{self.max_transfer} B — callers must segment"
            )
        if extra_setup < 0:
            raise SimulationError(f"negative extra setup: {extra_setup}")
        t_req = self.env.now
        channels = self._channels
        req = channels.request()
        try:
            yield req
            waited = self.env.now - t_req
            self.wait_time += waited
            setup = self.setup_latency + extra_setup
            duration = setup + nbytes / self.bandwidth
            yield req.hold(duration)
            self.busy_time += duration
            self.setup_time += setup
            if (self.fault_hook is not None and self.fault_hook(nbytes)) or (
                self.fault_injector is not None
                and self.fault_injector.fire(self.env.now, size=nbytes)
            ):
                # A failed transfer held the channel just as long as a
                # successful one; its bytes must stay on the books for
                # busy-time conservation (busy ≈ setup + bytes/bw).
                self.failures += 1
                self.failed_bytes += nbytes
                raise DmaError(
                    f"{self.name}: transfer of {nbytes} B failed (injected)"
                )
            self.transfers += 1
            self.bytes_transferred += nbytes
        finally:
            channels.finish(req)
        return waited

    def __repr__(self) -> str:
        return (
            f"<DmaEngine {self.name} {self.bandwidth/1e9:.1f} GB/s "
            f"cap={self.max_transfer // (1024*1024)} MiB>"
        )
