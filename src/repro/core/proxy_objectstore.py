"""ProxyObjectStore: the DPU-side transparent ObjectStore (§3.1–§3.3).

Implements the standard :class:`~repro.objectstore.api.ObjectStore`
interface, so the unmodified OSD plugs into it exactly as it would into
BlueStore — and forwards every call to the host:

* **binary op classification** (§3.2): data-plane operations
  (``queue_transaction`` with payload, ``read``) go through DOCA DMA;
  control-plane operations (``stat``, ``exists``, ``list_objects``,
  data-less transactions) go over the lightweight RPC socket;
* write data is staged in DPU memory and pushed through the
  **pipelined, segmented DMA** path; the commit RPC is sent once the
  full request has landed in the host's write buffers, and the client
  ack only fires after host BlueStore commits — preserving Ceph's
  write-through semantics;
* per-request latency breakdowns (Table 3's Host-write / DMA /
  DMA-wait / Others) are recorded on every write, column by column
  (:class:`BreakdownLog`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from itertools import islice
from typing import TYPE_CHECKING, Any, Generator, Iterable, Iterator

from ..hw.cpu import SimThread
from ..hw.node import ClusterNode
from ..objectstore.api import (
    NoSuchObject,
    ObjectStore,
    StatResult,
    StoreError,
    Transaction,
)
from ..util.bufferlist import DataBlob
from .doca import DocaDma
from .fallback import FallbackController
from .host_server import HostProxyServer
from .pipeline import DmaPipeline, RequestTiming
from .rpc import RPC_ARGS, RpcError

if TYPE_CHECKING:
    from ..cluster.config import DocephProfile

__all__ = [
    "BreakdownLog", "BreakdownView", "ProxyObjectStore", "WriteBreakdown",
]

#: DPU-side thread category for proxy work.
DPU_PROXY_CATEGORY = "proxy"


def _store_error(exc: RpcError) -> StoreError:
    """Map a host-side failure back to the ObjectStore exception type."""
    text = str(exc)
    if "NoSuchObject" in text or "ENOENT" in text:
        return NoSuchObject(text)
    return StoreError(text)


@dataclass(slots=True)
class WriteBreakdown:
    """Table 3's per-write latency decomposition."""

    size: int
    total: float
    host_write: float
    dma: float
    dma_wait: float
    stage: float
    fallback_bytes: int = 0

    @property
    def others(self) -> float:
        """Everything not attributed: DPU OSD processing, messenger
        activity, replication coordination, serialization, ACK waits."""
        return max(0.0, self.total - self.host_write - self.dma - self.dma_wait)


#: ``WriteBreakdown``'s fields in order, and each one's array type code.
_FIELDS = tuple(f.name for f in fields(WriteBreakdown))
_CODES = tuple("q" if f.type == "int" else "d" for f in fields(WriteBreakdown))


class BreakdownLog:
    """A proxy's per-write breakdowns, one ``array`` per field.

    A slotted ``WriteBreakdown`` kept per write costs ~240 B (the
    instance and its six number objects); a row of seven 8-byte columns
    costs 56.  Iteration rebuilds the records, equal field for field to
    the appended ones and in append order.  ``clear()`` starts fresh
    columns, so a :class:`BreakdownView` taken earlier keeps its rows."""

    __slots__ = ("_columns",)

    def __init__(self) -> None:
        self.clear()

    def append(self, breakdown: WriteBreakdown) -> None:
        for column, name in zip(self._columns, _FIELDS):
            column.append(getattr(breakdown, name))

    def clear(self) -> None:
        self._columns = tuple(array(code) for code in _CODES)

    def __len__(self) -> int:
        return len(self._columns[0])

    def __iter__(self) -> Iterator[WriteBreakdown]:
        return map(WriteBreakdown, *self._columns)


class BreakdownView:
    """Several logs' breakdowns read as one sequence, without a copy.

    It holds each log's columns and the row count when it was taken, so
    rows appended later and a later ``clear()`` leave it unchanged."""

    __slots__ = ("_parts",)

    def __init__(self, logs: Iterable[BreakdownLog] = ()) -> None:
        self._parts = tuple((log._columns, len(log)) for log in logs)

    def __len__(self) -> int:
        return sum(n for _, n in self._parts)

    def __iter__(self) -> Iterator[WriteBreakdown]:
        for columns, n in self._parts:
            yield from islice(map(WriteBreakdown, *columns), n)


class ProxyObjectStore(ObjectStore):
    """The DPU's ObjectStore: a forwarder, not a store."""

    SERIALIZE_CPU = 4.0e-6
    """Cost of serializing one transaction's metadata on the DPU."""

    def __init__(
        self,
        node: ClusterNode,
        server: HostProxyServer,
        profile: DocephProfile,
    ) -> None:
        if node.dpu_cpu is None:
            raise ValueError("ProxyObjectStore requires a DPU-mode node")
        self.node = node
        self.server = server
        self.profile = profile
        self.env = node.env
        self.rpc = server.rpc

        self.doca = DocaDma(
            node, server.comm,
            mr_cache_enabled=profile.mr_cache,
        )
        self.fallback = FallbackController(profile.cooldown_seconds)

        self._stage_thread = SimThread(
            node.dpu_cpu, f"{node.name}.proxy-stage", DPU_PROXY_CATEGORY
        )
        pipelined = profile.pipelining
        self.write_pipeline = DmaPipeline(
            self.env,
            self.doca,
            self.rpc,
            self.fallback,
            stage_thread=self._stage_thread,
            memcpy_bandwidth=profile.dpu_memcpy_bandwidth,
            segment_bytes=profile.dma_max_transfer,
            n_buffers=profile.staging_buffers,
            pipelined=pipelined,
            completion_thread=server.poll_thread,
            region_side="dpu",
            zero_copy=profile.zero_copy,
        )
        # Reverse direction (read returns): staging buffers on the host
        # side, staged by host CPU at host memcpy rates (§3.3 symmetry).
        self.read_pipeline = DmaPipeline(
            self.env,
            self.doca,
            self.rpc,
            self.fallback,
            stage_thread=server.poll_thread,
            memcpy_bandwidth=12.0e9,
            segment_bytes=profile.dma_max_transfer,
            n_buffers=profile.staging_buffers,
            pipelined=pipelined,
            completion_thread=self._stage_thread,
            region_side="host",
            zero_copy=profile.zero_copy,
        )
        server.read_pipeline = self.read_pipeline

        # DMA fault injection is wired by the cluster builder through a
        # repro.faults.FaultPlan.

        #: Per-write breakdown records (cleared by the bench harness).
        self.breakdowns = BreakdownLog()

        # statistics
        self.data_ops = 0
        self.control_ops = 0

    # ---------------------------------------------------------------- data plane
    def queue_transaction(
        self, txn: Transaction, thread: SimThread
    ) -> Generator[Any, Any, None]:
        """Forward a transaction: bulk via DMA, commit via RPC."""
        data_len = txn.data_len
        payload = txn.encode()
        yield from thread.charge(self.SERIALIZE_CPU * max(1, txn.num_ops))
        span = None
        if txn.span_ctx is not None:
            span = txn.span_ctx.start_span(
                "proxy.dispatch", self.env.now, thread=self._stage_thread,
                nbytes=data_len,
            )
            span.tag("ops", txn.num_ops)
            span.tag("control", data_len == 0)
        ctx = span.context if span is not None else None

        if data_len == 0:
            # §3.2: metadata-only transactions are control plane.
            self.control_ops += 1
            try:
                yield from self.rpc.call(
                    "queue_txn", payload, thread, span_ctx=ctx
                )
            except RpcError as exc:
                if span is not None:
                    span.error(self.env.now, "rpc-error")
                raise _store_error(exc) from None
            if span is not None:
                span.finish(self.env.now)
            return

        if data_len > self.server.write_buffers.capacity:
            if span is not None:
                span.error(self.env.now, "write-buffer-overflow")
            raise StoreError(
                f"request of {data_len} B exceeds the host write-buffer "
                f"pool ({self.server.write_buffers.capacity} B)"
            )
        self.data_ops += 1
        t0 = self.env.now
        # Reserve host-side write-buffer space (Fig. 4 backpressure) …
        yield self.server.write_buffers.get(data_len)
        if span is not None:
            span.event(self.env.now, "write_buffers_reserved")
        # … stream the payload across …
        try:
            timing: RequestTiming = yield from self.write_pipeline.push(
                data_len, thread, span_ctx=ctx
            )
        except RpcError as exc:
            # Bulk transfer failed before the commit RPC was ever sent:
            # the host never saw this transaction, so it will never free
            # the reservation — release it here or the pool leaks and
            # later writes block forever.  Surface the failure as a
            # StoreError like every other backend error.
            yield self.server.write_buffers.put(data_len)
            if span is not None:
                span.error(self.env.now, "rpc-error")
            raise _store_error(exc) from None
        # … then commit on the host and wait for durability.
        try:
            resp = yield from self.rpc.call(
                "queue_txn", payload, thread, span_ctx=ctx
            )
        except RpcError as exc:
            if span is not None:
                span.error(self.env.now, "rpc-error")
            raise _store_error(exc) from None
        if span is not None:
            span.finish(self.env.now)
        host_write = (resp.reply or {}).get("host_write", 0.0)
        self.breakdowns.append(
            WriteBreakdown(
                size=data_len,
                total=self.env.now - t0,
                host_write=host_write,
                dma=timing.dma_time,
                dma_wait=timing.dma_wait,
                stage=timing.stage_time,
                fallback_bytes=timing.fallback_bytes,
            )
        )

    def read(
        self,
        coll: str,
        oid: str,
        offset: int,
        length: int,
        thread: SimThread,
        span_ctx: Any = None,
    ) -> Generator[Any, Any, DataBlob]:
        """Read via the host: request over RPC, data back via DMA."""
        span = None
        if span_ctx is not None:
            span = span_ctx.start_span(
                "proxy.read", self.env.now, thread=self._stage_thread,
                nbytes=length,
            )
        ctx = span.context if span is not None else None
        payload = RPC_ARGS["read"].encode(coll, oid, offset, length)
        self.data_ops += 1
        try:
            resp = yield from self.rpc.call("read", payload, thread,
                                            span_ctx=ctx)
        except RpcError as exc:
            if "ENOENT" in str(exc):
                if span is not None:
                    span.error(self.env.now, "enoent")
                raise NoSuchObject(f"{coll}/{oid}") from None
            if span is not None:
                span.error(self.env.now, "rpc-error")
            raise StoreError(str(exc)) from None
        reply = resp.reply or {}
        content = reply.get("content") or None
        if span is not None:
            span.nbytes = reply.get("length", 0)
            span.finish(self.env.now)
        return DataBlob(reply.get("length", 0), parent_id=content)

    # ---------------------------------------------------------------- control plane
    def stat(
        self, coll: str, oid: str, thread: SimThread
    ) -> Generator[Any, Any, StatResult]:
        reply = yield from self._control("stat", [coll, oid], thread)
        return StatResult(
            size=reply["size"], attrs=reply["attrs"], version=reply["version"],
            content_id=reply.get("content", 0),
        )

    def exists(
        self, coll: str, oid: str, thread: SimThread
    ) -> Generator[Any, Any, bool]:
        reply = yield from self._control("exists", [coll, oid], thread)
        return reply["exists"]

    def list_objects(
        self, coll: str, thread: SimThread
    ) -> Generator[Any, Any, list[str]]:
        reply = yield from self._control("list", [coll], thread)
        return reply["names"]

    def _control(
        self, op: str, args: list[str], thread: SimThread
    ) -> Generator[Any, Any, dict]:
        self.control_ops += 1
        try:
            resp = yield from self.rpc.call(
                op, RPC_ARGS[op].encode(*args), thread
            )
        except RpcError as exc:
            raise _store_error(exc) from None
        return resp.reply

    # ---------------------------------------------------------------- metrics
    def reset_breakdowns(self) -> None:
        self.breakdowns.clear()

    def __repr__(self) -> str:
        return (
            f"<ProxyObjectStore {self.node.name} data={self.data_ops}"
            f" control={self.control_ops}>"
        )
