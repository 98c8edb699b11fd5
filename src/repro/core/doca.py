"""DOCA-style DMA wrappers: CommChannel negotiation + memory-region
cache.

Models the NVIDIA DOCA primitives DoCeph builds on (§3.2):

* :class:`MemoryRegion` — a DMA-able buffer that must be *exported*
  (negotiated over the CommChannel) before the engine may touch it;
* :class:`CommChannel` — the negotiation handshake: a fixed round-trip
  latency plus a little CPU on both sides;
* :class:`DocaDma` — transfer entry point that consults the
  memory-region cache: with the cache on (DoCeph's optimization, §3.3),
  a region negotiates once and every later transfer skips the
  handshake; with it off, every transfer pays the negotiation — the
  difference is the MR-cache ablation benchmark.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Generator

from ..hw.cpu import SimThread
from ..hw.dma import DmaEngine, DmaError
from ..hw.node import ClusterNode

__all__ = ["MemoryRegion", "CommChannel", "DocaDma"]

_region_ids = itertools.count(1)


@dataclass(slots=True)
class MemoryRegion:
    """A fixed-size DMA-able buffer on one side of the PCIe bridge."""

    size: int
    side: str = "dpu"  # "dpu" or "host"
    region_id: int = field(default_factory=lambda: next(_region_ids))


class CommChannel:
    """The DOCA CommChannel: memory-region negotiation cost."""

    #: CPU cost of a negotiation on each participating complex.
    NEGOTIATE_CPU = 8.0e-6

    def __init__(self, node: ClusterNode, negotiate_latency: float) -> None:
        self.node = node
        self.env = node.env
        self.negotiate_latency = negotiate_latency
        self.negotiations = 0


class DocaDma:
    """DMA transfers with an optional exported-region cache."""

    def __init__(
        self,
        node: ClusterNode,
        comm_channel: CommChannel,
        mr_cache_enabled: bool = True,
    ) -> None:
        if node.dma is None:
            raise ValueError(f"node {node.name} has no DMA engine")
        self.engine: DmaEngine = node.dma
        self.comm = comm_channel
        self.mr_cache_enabled = mr_cache_enabled
        self._exported: set[int] = set()

        # statistics
        self.cache_hits = 0
        self.cache_misses = 0

    def ensure_exported(
        self, region: MemoryRegion, thread: SimThread
    ) -> Generator[Any, Any, float]:
        """Prepare the region's export; returns the negotiation time the
        transfer must additionally occupy the engine's command queue
        for (0 when the MR cache already holds the region).

        The handshake's CPU cost lands on the caller here; its *latency*
        is charged inside the engine because the descriptor exchange
        serializes with data transfers on the same command queue.
        """
        if self.mr_cache_enabled and region.region_id in self._exported:
            self.cache_hits += 1
            return 0.0
        self.cache_misses += 1
        yield from thread.charge(CommChannel.NEGOTIATE_CPU)
        self.comm.negotiations += 1
        if self.mr_cache_enabled:
            self._exported.add(region.region_id)
        return self.comm.negotiate_latency

    def invalidate(self, region: MemoryRegion) -> None:
        """Drop a region from the cache (e.g. after a DMA error)."""
        self._exported.discard(region.region_id)

    def transfer(
        self, region: MemoryRegion, nbytes: int, thread: SimThread
    ) -> Generator[Any, Any, float]:
        """Move ``nbytes`` through ``region``; returns channel-queue wait.

        Raises :class:`~repro.hw.dma.DmaError` on (injected) failure —
        callers route the fallback logic.
        """
        if nbytes > region.size:
            raise ValueError(
                f"transfer of {nbytes} B exceeds region size {region.size} B"
            )
        negotiation = yield from self.ensure_exported(region, thread)
        try:
            waited = yield from self.engine.transfer(
                nbytes, extra_setup=negotiation
            )
        except DmaError:
            # a failed region may be stale — renegotiate next time
            self.invalidate(region)
            raise
        return waited
