"""Pipelined segmented DMA (§3.3, Figure 4).

The 2 MB hardware cap forces a request of size N into
``k = ceil(N / 2 MB)`` segments.  Naively each segment would be staged
(memcpy into a DMA-able buffer), transferred, and only then would the
next begin.  DoCeph's pipeline overlaps the phases: as soon as segment
*i*'s DMA is posted, segment *i+1* starts staging into the next buffer
from a small pre-exported pool — so staging and transmission proceed
concurrently and the DMA engine rarely idles.

Per-request timing is recorded the way Table 3 reports it:

* ``dma_time`` — engine service time (setup + wire) summed over segments;
* ``dma_wait`` — everything spent *waiting to move data*: free-buffer
  waits plus channel-queue waits (the serial-transfer contention the
  paper attributes DMA-wait to);
* ``stage_time`` — memcpy into staging buffers;
* ``fallback_bytes`` — data rerouted over the RPC socket by the
  fallback machinery.

The same class, pointed the other way (staging on the host), carries
read responses — the symmetric design of §3.3/§5.5.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..hw.cpu import SimThread
from ..hw.dma import DmaError
from ..sim import Environment, Store
from .doca import DocaDma, MemoryRegion
from .fallback import FallbackController, PROBE_BYTES
from .rpc import RPC_ARGS, RpcChannel

__all__ = ["DmaPipeline", "RequestTiming", "segment_sizes"]


def segment_sizes(total: int, max_segment: int) -> list[int]:
    """§4's segmentation: each segment is ``min(max transferable,
    remaining bytes)``."""
    if total < 0:
        raise ValueError(f"negative transfer size: {total}")
    if max_segment <= 0:
        raise ValueError("max_segment must be positive")
    sizes = []
    remaining = total
    while remaining > 0:
        seg = min(max_segment, remaining)
        sizes.append(seg)
        remaining -= seg
    return sizes


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of (start, end) intervals.

    Used for DMA-wait: concurrent segments of one request may wait
    simultaneously, and wall-clock waiting must not be double-counted.
    """
    if not intervals:
        return 0.0
    merged = 0.0
    cur_start, cur_end = None, None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None:
            cur_start, cur_end = start, end
        elif start <= cur_end:
            cur_end = max(cur_end, end)
        else:
            merged += cur_end - cur_start
            cur_start, cur_end = start, end
    if cur_start is not None:
        merged += cur_end - cur_start
    return merged


@dataclass(slots=True)
class RequestTiming:
    """Latency breakdown of one proxied bulk transfer (Table 3 inputs).

    ``dma_time`` and ``dma_wait`` are *disjoint wall-clock categories*
    over the request's window: an instant counts as DMA time when at
    least one of the request's segments occupies the engine, as
    DMA-wait when at least one is waiting (for a buffer or the channel)
    and none is transferring.  This matches the paper's serial
    per-request decomposition and guarantees
    ``dma_time + dma_wait <= total``.
    """

    size: int = 0
    segments: int = 0
    total: float = 0.0
    stage_time: float = 0.0
    fallback_bytes: int = 0
    wait_intervals: list[tuple[float, float]] = field(default_factory=list)
    service_intervals: list[tuple[float, float]] = field(default_factory=list)

    @property
    def dma_time(self) -> float:
        """Wall-clock time with ≥1 segment in engine service."""
        return union_length(self.service_intervals)

    @property
    def dma_wait(self) -> float:
        """Wall-clock time waiting to move data and not transferring."""
        both = union_length(self.wait_intervals + self.service_intervals)
        return both - self.dma_time


class DmaPipeline:
    """Segmented, optionally-pipelined transfers through one DMA engine.

    Parameters
    ----------
    env:
        Simulation environment.
    doca:
        The DMA entry point (engine + MR cache).
    rpc:
        Fallback transport for segments that cannot use DMA.
    fallback:
        Shared cooldown controller.
    stage_thread:
        Thread charged for staging memcpys (DPU proxy thread for writes,
        host proxy thread for read returns).
    memcpy_bandwidth:
        Achieved staging copy rate on that side, bytes/s of wall time.
    segment_bytes / n_buffers:
        Buffer geometry: ``n_buffers`` pre-allocated regions of
        ``segment_bytes`` each.
    pipelined:
        The §3.3 overlap; ``False`` reproduces the naive serial path
        (the pipelining ablation).
    completion_thread:
        Optional far-side polling thread charged a small cost per
        completed segment (§4's polling mode).
    """

    COMPLETION_POLL_CPU = 1.5e-6

    def __init__(
        self,
        env: Environment,
        doca: DocaDma,
        rpc: RpcChannel,
        fallback: FallbackController,
        stage_thread: SimThread,
        memcpy_bandwidth: float,
        segment_bytes: int,
        n_buffers: int = 4,
        pipelined: bool = True,
        completion_thread: Optional[SimThread] = None,
        region_side: str = "dpu",
        zero_copy: bool = False,
    ) -> None:
        if n_buffers < 1:
            raise ValueError("need at least one staging buffer")
        if pipelined and n_buffers < 2:
            raise ValueError("pipelining requires at least two buffers")
        self.env = env
        self.doca = doca
        self.rpc = rpc
        self.fallback = fallback
        self.stage_thread = stage_thread
        self.memcpy_bandwidth = memcpy_bandwidth
        self.segment_bytes = segment_bytes
        self.pipelined = pipelined
        self.completion_thread = completion_thread
        self.zero_copy = zero_copy

        self._buffers: Store = Store(env)
        for _ in range(n_buffers):
            self._buffers.items.append(
                MemoryRegion(segment_bytes, side=region_side)
            )

    # ---------------------------------------------------------------- public
    def push(
        self, nbytes: int, thread: SimThread, span_ctx: Any = None
    ) -> Generator[Any, Any, RequestTiming]:
        """Move ``nbytes`` across the bridge; returns the timing record.

        With ``span_ctx`` set, every segment gets a ``dma.segment``
        span (stage/transmit overlap shows as overlapping spans), DMA
        failures are error spans, and rerouted segments get a
        ``dma.fallback`` span retry-linked to the failed attempt."""
        sizes = segment_sizes(nbytes, self.segment_bytes)
        timing = RequestTiming(size=nbytes, segments=len(sizes))
        t_start = self.env.now
        inflight = []
        for i, seg in enumerate(sizes):
            now = self.env.now
            if self.fallback.probe_due(now) and self.fallback.begin_probe(now):
                yield from self._probe(thread, span_ctx)
            if not self.fallback.dma_allowed(self.env.now):
                yield from self._segment_via_rpc(
                    seg, thread, timing, span_ctx, reason="cooldown"
                )
                continue
            seg_span = self._segment_span(span_ctx, i, seg)
            t0 = self.env.now
            region: MemoryRegion = yield self._buffers.get()
            if self.env.now > t0:  # waited for a free staging buffer
                timing.wait_intervals.append((t0, self.env.now))
            yield from self._stage(region, seg, timing, seg_span)
            segment = self._dma_segment(
                region, seg, thread, timing, span_ctx, seg_span
            )
            if self.pipelined:
                # post the DMA and immediately start staging the next
                # segment (§3.3); joined below
                inflight.append(self.env.process(segment, name="dma-seg"))
            else:
                yield from segment
        for proc in inflight:
            yield proc
        timing.total = self.env.now - t_start
        return timing

    def _segment_span(self, span_ctx: Any, index: int, seg: int) -> Any:
        if span_ctx is None:
            return None
        span = span_ctx.child(
            "dma.segment", self.env.now, thread=self.stage_thread,
            nbytes=seg,
        )
        span.tag("seg", index)
        return span

    # ---------------------------------------------------------------- pieces
    def _stage(
        self,
        region: MemoryRegion,
        seg: int,
        timing: RequestTiming,
        span: Any = None,
    ) -> Generator[Any, Any, None]:
        """memcpy ``seg`` bytes into the staging buffer."""
        if self.zero_copy:
            # Palladium-style zero-copy fabric: the wire buffer is
            # already DMA-registered, so no bounce-buffer copy charge.
            if span is not None:
                span.event(self.env.now, "staged")
            return
        wall = seg / self.memcpy_bandwidth
        # charge() takes reference-CPU work; convert so the copy's wall
        # time is exactly seg / memcpy_bandwidth on this complex.
        work = wall * self.stage_thread.cpu.perf
        t0 = self.env.now
        yield from self.stage_thread.charge(work)
        timing.stage_time += self.env.now - t0
        if span is not None:
            span.event(self.env.now, "staged")

    def _dma_segment(
        self,
        region: MemoryRegion,
        seg: int,
        thread: SimThread,
        timing: RequestTiming,
        span_ctx: Any = None,
        span: Any = None,
    ) -> Generator[Any, Any, None]:
        t0 = self.env.now
        closing = False
        try:
            try:
                waited = yield from self.doca.transfer(region, seg, thread)
                if waited > 0:
                    # queueing for the serial channel precedes the service
                    timing.wait_intervals.append((t0, t0 + waited))
                timing.service_intervals.append((t0 + waited, self.env.now))
                if self.completion_thread is not None:
                    yield from self.completion_thread.charge(
                        self.COMPLETION_POLL_CPU
                    )
                if span is not None:
                    span.finish(self.env.now)
            except DmaError:
                self.fallback.record_failure(self.env.now)
                if span is not None:
                    span.error(self.env.now, "dma-error")
                # resend THIS segment over RPC; prior segments preserved
                yield from self._segment_via_rpc(
                    seg, thread, timing, span_ctx, retry_of=span,
                    reason="dma-error",
                )
        except GeneratorExit:
            # the owning process was abandoned mid-transfer: a closing
            # generator may not yield again, but the put below inserts
            # synchronously, so the buffer is still released
            closing = True
            raise
        finally:
            put_event = self._buffers.put(region)
            if not closing:
                yield put_event

    def _segment_via_rpc(
        self,
        seg: int,
        thread: SimThread,
        timing: RequestTiming,
        span_ctx: Any = None,
        retry_of: Any = None,
        reason: str = "",
    ) -> Generator[Any, Any, None]:
        self.fallback.record_fallback_segment()
        timing.fallback_bytes += seg
        fb_span = None
        if span_ctx is not None:
            fb_span = span_ctx.child(
                "dma.fallback", self.env.now, thread=thread, nbytes=seg,
            )
            if retry_of is not None:
                fb_span.link(retry_of, "retry")
            if reason:
                fb_span.tag("reason", reason)
        yield from self.rpc.call(
            "bulk", RPC_ARGS["bulk"].encode("bulk", seg), thread,
            bulk_bytes=seg,
            span_ctx=fb_span,
        )
        if fb_span is not None:
            fb_span.finish(self.env.now)

    def _probe(
        self, thread: SimThread, span_ctx: Any = None
    ) -> Generator[Any, Any, None]:
        """Small test transfer deciding whether DMA may be re-enabled."""
        probe_span = None
        if span_ctx is not None:
            probe_span = span_ctx.child(
                "dma.probe", self.env.now, thread=thread,
                nbytes=PROBE_BYTES,
            )
        region: MemoryRegion = yield self._buffers.get()
        closing = False
        try:
            yield from self.doca.transfer(region, PROBE_BYTES, thread)
            self.fallback.record_probe(True, self.env.now)
            if probe_span is not None:
                probe_span.finish(self.env.now)
        except DmaError:
            self.fallback.record_probe(False, self.env.now)
            if probe_span is not None:
                probe_span.error(self.env.now, "dma-error")
        except GeneratorExit:
            closing = True
            raise
        finally:
            put_event = self._buffers.put(region)
            if not closing:
                yield put_event

