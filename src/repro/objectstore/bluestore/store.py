"""BlueStore: the host-resident storage backend.

A behavioural model of Ceph's BlueStore with the moving parts the paper
measures:

* ``bstore_aio`` threads build transaction contexts: checksum the
  payload, allocate extents (real bitmap allocator), and issue the data
  write to the raw device — large writes go straight to their allocated
  extents (write-through), small writes are *deferred* into the WAL;
* a ``bstore_kv_sync`` thread batches transaction commits into RocksDB
  with one WAL flush per batch, then completes the waiting submitters —
  this is the durability point;
* object metadata lives in onodes, each kept as one packed int in
  ``collections`` and read through ``onode``; each onode update logs a
  fixed-size record through the WAL, which keeps only its bytes;
* all CPU burned here lands in the ``bstore`` accounting category —
  the slice of Figure 5 that *stays on the host* under DoCeph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional, Union

from ...hw.cpu import CpuComplex, SimThread
from ...hw.storage import SsdDevice
from ...sim import Environment, Event, Store
from ...util.bufferlist import DataBlob
from ...util.rng import hash_combine
from ..api import (
    NoSuchObject,
    ObjectStore,
    StatResult,
    StoreError,
    Transaction,
    TxnOpKind,
)
from .allocator import BitmapAllocator, Extent
from .kv import KVStore, WriteBatch

__all__ = ["BlueStore", "BlueStoreConfig", "BSTORE_CATEGORY"]

#: Thread category for BlueStore threads (Ceph's "bstore_" prefix).
BSTORE_CATEGORY = "bstore"


@dataclass(frozen=True)
class BlueStoreConfig:
    """Cost and policy constants for BlueStore."""

    device_capacity: int = 1 << 40
    """Usable capacity of the data device (1 TiB default)."""

    alloc_unit: int = 65536
    """Allocator block size (BlueStore's min_alloc_size for HDD/SSD)."""

    deferred_threshold: int = 65536
    """Writes at or below this size take the deferred (WAL) path."""

    csum_bandwidth: float = 5.0e9
    """crc32c throughput, bytes/s, charged per payload byte."""

    prep_cpu_per_op: float = 8.0e-6
    """Per-transaction-op CPU: txc build, onode update, encode."""

    alloc_cpu_per_extent: float = 1.5e-6
    """CPU per extent allocated/freed."""

    kv_commit_cpu: float = 12.0e-6
    """Per-transaction CPU in the kv_sync thread."""

    kv_batch_max: int = 16
    """Max transactions folded into one WAL flush."""

    onode_record_bytes: int = 512
    """Approximate KV footprint of one onode update."""

    submit_cpu: float = 3.0e-6
    """Cost on the *submitting* thread to enqueue a transaction."""

    control_cpu: float = 2.0e-6
    """Cost of a metadata lookup (stat/exists)."""

    read_cpu_per_byte: float = 1.0 / 12.0e9
    """Per-byte CPU on reads (checksum verify + copy-out)."""

    aio_threads: int = 2
    """Number of bstore_aio worker threads."""


#: An onode record is one int holding an object's whole metadata, low
#: bits first: ``size`` (48 bits), ``version`` (32), ``content_id``
#: (64), then every run, 96 bits each in allocation order.  A run packs
#: a physical extent, ``offset << _LEN_BITS | length`` (upstream's
#: ``bluestore_pextent_t`` pair); its length is never 0, so the first
#: all-zero run field ends the list.
_LEN_BITS = 48
_LEN_MASK = (1 << _LEN_BITS) - 1
_VERSION_SHIFT = _LEN_BITS
_VERSION_MASK = (1 << 32) - 1
_CONTENT_SHIFT = _VERSION_SHIFT + 32
_CONTENT_MASK = (1 << 64) - 1
_RUNS_SHIFT = _CONTENT_SHIFT + 64
_RUN_BITS = 2 * _LEN_BITS
_RUN_MASK = (1 << _RUN_BITS) - 1


@dataclass(slots=True)
class Onode:
    """Object metadata (what BlueStore persists as the onode), decoded
    from its record (see ``_LEN_BITS``) by ``BlueStore.onode``.

    ``runs`` holds the allocation as packed runs: a bare int for a
    single run, a tuple for several, ``()`` until the first write."""

    size: int = 0
    version: int = 0
    runs: Union[int, tuple[int, ...]] = ()
    content_id: int = 0
    """Virtual-payload fingerprint: the simulation carries no real bytes,
    so this stands in for "what data is stored here".  A full overwrite
    adopts the written blob's root id; partial writes fold into the
    running fingerprint.  Replicas holding byte-identical data
    hold equal (size, content_id) pairs."""

    @property
    def extents(self) -> tuple[Extent, ...]:
        """The allocation as the allocator's extents, in allocation order."""
        runs = self.runs
        if runs.__class__ is int:
            runs = (runs,)
        return tuple(Extent(r >> _LEN_BITS, r & _LEN_MASK) for r in runs)

    @property
    def allocated(self) -> int:
        """Bytes of device space held: the runs' total length."""
        runs = self.runs
        if runs.__class__ is int:
            return runs & _LEN_MASK
        return sum(r & _LEN_MASK for r in runs)

    def add_extents(self, extents: list[Extent]) -> None:
        """Append newly allocated ``extents`` as packed runs."""
        runs = self.runs
        packed = tuple(e.offset << _LEN_BITS | e.length for e in extents)
        packed = ((runs,) if runs.__class__ is int else runs) + packed
        self.runs = packed[0] if len(packed) == 1 else packed

    def pack(self) -> int:
        """This onode as its record; ``StoreError`` if a field does not
        fit its width."""
        if not 0 <= self.size <= _LEN_MASK:
            raise StoreError(f"onode size {self.size} exceeds 48 bits")
        if not 0 <= self.version <= _VERSION_MASK:
            raise StoreError(f"onode version {self.version} exceeds 32 bits")
        if not 0 <= self.content_id <= _CONTENT_MASK:
            raise StoreError(
                f"onode content id {self.content_id} exceeds 64 bits")
        runs = self.runs
        if runs.__class__ is int:
            runs = (runs,)
        record = 0
        for run in reversed(runs):
            if not (0 <= run <= _RUN_MASK and run & _LEN_MASK):
                raise StoreError(f"onode run {run:#x} is not a 48-bit offset "
                                 "and a nonzero 48-bit length")
            record = record << _RUN_BITS | run
        return (record << _RUNS_SHIFT | self.content_id << _CONTENT_SHIFT
                | self.version << _VERSION_SHIFT | self.size)

    @staticmethod
    def unpack(record: int) -> "Onode":
        """The onode a record holds (the inverse of ``pack``)."""
        rest = record >> _RUNS_SHIFT
        if rest > _RUN_MASK:
            runs = []
            while rest:
                runs.append(rest & _RUN_MASK)
                rest >>= _RUN_BITS
            rest = tuple(runs)
        return Onode(record & _LEN_MASK,
                     record >> _VERSION_SHIFT & _VERSION_MASK,
                     rest or (),
                     record >> _CONTENT_SHIFT & _CONTENT_MASK)


@dataclass(frozen=True)
class CommitInfo:
    """What a committed transaction reports back to its submitter."""

    total_time: float
    """Submission → durable commit (includes pipeline queueing)."""

    device_time: float
    """Device busy time attributable to this transaction (direct data
    write + its share of the batched WAL flush) — the paper's
    'Host write' (time taken to write data to BlueStore)."""


@dataclass
class _Txc:
    """A transaction in flight through the commit pipeline."""

    txn: Transaction
    commit_event: Event
    deferred_bytes: int = 0
    submitted_at: float = 0.0
    committed_at: float = 0.0
    device_time: float = 0.0
    #: the transaction's trace span (None untraced); the aio/kv loops
    #: record pipeline milestones on it as span events
    span: Any = None


class BlueStore(ObjectStore):
    """The real backend; always runs on the host CPU complex."""

    def __init__(
        self,
        env: Environment,
        name: str,
        cpu: CpuComplex,
        ssd: SsdDevice,
        config: Optional[BlueStoreConfig] = None,
    ) -> None:
        self.env = env
        self.name = name
        self.cpu = cpu
        self.ssd = ssd
        self.config = config or BlueStoreConfig()
        if self.config.device_capacity > _LEN_MASK:
            raise StoreError("device too large for a packed run's length")

        self.kv = KVStore()
        self.allocator = BitmapAllocator(
            self.config.device_capacity, self.config.alloc_unit
        )
        #: collection -> oid -> the object's onode record (``Onode.pack``)
        self.collections: dict[str, dict[str, int]] = {}
        #: The KV value every onode update logs; the WAL counts its bytes.
        self._onode_record = b"\0" * self.config.onode_record_bytes

        self._txc_queue: Store = Store(env)
        self._kv_queue: Store = Store(env)

        self._aio_threads = [
            SimThread(cpu, f"{name}.bstore_aio-{i}", BSTORE_CATEGORY)
            for i in range(self.config.aio_threads)
        ]
        self._kv_thread = SimThread(cpu, f"{name}.bstore_kv_sync", BSTORE_CATEGORY)
        for i, t in enumerate(self._aio_threads):
            env.process(self._aio_loop(t), name=f"{name}.bstore_aio-{i}")
        env.process(self._kv_sync_loop(), name=f"{name}.bstore_kv_sync")

        # statistics
        self.txns_committed = 0
        self.bytes_committed = 0
        self.deferred_txns = 0

    # ------------------------------------------------------------------ setup
    def mkfs(self) -> None:
        """Initialize the store (creates the meta collection)."""
        self.collections.setdefault("meta", {})

    # ---------------------------------------------------------------- data plane
    def queue_transaction(
        self, txn: Transaction, thread: SimThread
    ) -> Generator[Any, Any, "CommitInfo"]:
        """Submit a transaction; resumes at durable commit.

        Returns a :class:`CommitInfo` (total latency + attributable
        device time)."""
        yield from thread.charge(self.config.submit_cpu * max(1, txn.num_ops))
        span = None
        if txn.span_ctx is not None:
            span = txn.span_ctx.child(
                "bstore.commit", self.env.now, cpu=self.cpu.name,
                category=BSTORE_CATEGORY, thread_name=f"{self.name}.bstore",
                nbytes=txn.data_len,
            )
            span.tag("ops", txn.num_ops)
        txc = _Txc(txn, self.env.event(), submitted_at=self.env.now,
                   span=span)
        yield self._txc_queue.put(txc)
        try:
            yield txc.commit_event
        except StoreError:
            if span is not None:
                span.error(self.env.now, "store-error")
            raise
        if span is not None:
            span.finish(self.env.now)
        return CommitInfo(
            total_time=txc.committed_at - txc.submitted_at,
            device_time=txc.device_time,
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
        span = None
        if span_ctx is not None:
            span = span_ctx.child(
                "bstore.read", self.env.now, cpu=self.cpu.name,
                category=BSTORE_CATEGORY, thread_name=f"{self.name}.bstore",
                nbytes=length,
            )
        try:
            onode = self.onode(coll, oid)
        except NoSuchObject:
            if span is not None:
                span.error(self.env.now, "enoent")
            raise
        if offset >= onode.size:
            if span is not None:
                span.nbytes = 0
                span.finish(self.env.now)
            return DataBlob(0)
        n = min(length, onode.size - offset)
        yield from thread.charge(
            self.config.control_cpu + n * self.config.read_cpu_per_byte
        )
        yield from self.ssd.read(n)
        if span is not None:
            span.nbytes = n
            span.finish(self.env.now)
        # the returned blob carries the stored content's identity, so a
        # full-object read pushed to another replica reproduces the same
        # content fingerprint there (recovery preserves bytes)
        if offset == 0 and n == onode.size and onode.content_id:
            return DataBlob(n, parent_id=onode.content_id)
        return DataBlob(n)

    # ---------------------------------------------------------------- control plane
    def stat(
        self, coll: str, oid: str, thread: SimThread
    ) -> Generator[Any, Any, StatResult]:
        yield from thread.charge(self.config.control_cpu)
        onode = self.onode(coll, oid)
        return StatResult(size=onode.size, attrs=0, version=onode.version,
                          content_id=onode.content_id)

    def exists(
        self, coll: str, oid: str, thread: SimThread
    ) -> Generator[Any, Any, bool]:
        yield from thread.charge(self.config.control_cpu)
        objects = self.collections.get(coll)
        return objects is not None and oid in objects

    def list_objects(
        self, coll: str, thread: SimThread
    ) -> Generator[Any, Any, list[str]]:
        objects = self.collections.get(coll)
        if objects is None:
            raise StoreError(f"no such collection: {coll}")
        yield from thread.charge(
            self.config.control_cpu * max(1, len(objects) // 64)
        )
        return sorted(objects)

    # ---------------------------------------------------------------- pipeline
    def _aio_loop(self, thread: SimThread) -> Generator[Any, Any, None]:
        cfg = self.config
        while True:
            txc: _Txc = yield self._txc_queue.get()
            yield from thread.ctx_switch()
            if txc.span is not None:
                txc.span.event(self.env.now, "aio_start")
            data_len = txc.txn.data_len
            # txc build + payload checksum
            yield from thread.charge(
                cfg.prep_cpu_per_op * max(1, txc.txn.num_ops)
                + data_len / cfg.csum_bandwidth
            )
            try:
                new_extents = self._apply_metadata(txc, thread)
            except StoreError as exc:
                # A bad transaction fails its submitter, not the pipeline.
                txc.commit_event.fail(exc)
                continue
            yield from thread.charge(cfg.alloc_cpu_per_extent * len(new_extents))
            direct = sum(
                op.length
                for op in txc.txn.ops
                if op.kind == TxnOpKind.WRITE
                and op.length > cfg.deferred_threshold
            )
            txc.deferred_bytes = data_len - direct
            if direct:
                t_io = self.env.now
                yield from self.ssd.write(direct)
                txc.device_time += self.env.now - t_io
            if txc.deferred_bytes:
                self.deferred_txns += 1
            yield from thread.ctx_switch()  # aio completion wakeup
            if txc.span is not None:
                txc.span.event(self.env.now, "kv_queued")
            yield self._kv_queue.put(txc)

    def _kv_sync_loop(self) -> Generator[Any, Any, None]:
        cfg = self.config
        thread = self._kv_thread
        while True:
            first: _Txc = yield self._kv_queue.get()
            batch = [first]
            while self._kv_queue.items and len(batch) < cfg.kv_batch_max:
                batch.append((yield self._kv_queue.get()))
            yield from thread.ctx_switch()
            yield from thread.charge(cfg.kv_commit_cpu * len(batch))

            wal = WriteBatch()
            wal_data = 0
            for txc in batch:
                wal_data += txc.deferred_bytes
                for op in txc.txn.ops:
                    if op.kind == TxnOpKind.WRITE:
                        wal.put(self._onode_key(op.coll, op.oid),
                                self._onode_record)
                    elif op.kind == TxnOpKind.REMOVE:
                        wal.delete(self._onode_key(op.coll, op.oid))
            flush_bytes = wal.size_bytes + wal_data
            t_io = self.env.now
            yield from self.ssd.write(flush_bytes)
            flush_time = (self.env.now - t_io) / len(batch)
            self.kv.commit(wal)
            yield from thread.ctx_switch()  # flush completion wakeup

            for txc in batch:
                txc.device_time += flush_time
                txc.committed_at = self.env.now
                if txc.span is not None:
                    txc.span.event(self.env.now, "kv_commit")
                self.txns_committed += 1
                self.bytes_committed += txc.txn.data_len
                txc.commit_event.succeed()
                if txc.deferred_bytes:
                    # deferred data drains to its extents after commit
                    self.env.process(
                        self._deferred_apply(txc.deferred_bytes),
                        name=f"{self.name}.deferred",
                    )

    def _deferred_apply(self, nbytes: int) -> Generator[Any, Any, None]:
        yield from self.ssd.write(nbytes)

    # ---------------------------------------------------------------- mutations
    def _apply_metadata(self, txc: _Txc, thread: SimThread) -> list[Extent]:
        """Apply a transaction's metadata effects; returns new extents."""
        new_extents: list[Extent] = []
        for op in txc.txn.ops:
            if op.kind == TxnOpKind.CREATE_COLLECTION:
                self.collections.setdefault(op.coll, {})
                continue
            objects = self.collections.get(op.coll)
            if objects is None:
                raise StoreError(f"no such collection: {op.coll}")
            if op.kind == TxnOpKind.REMOVE:
                record = objects.pop(op.oid, None)
                if record is None:
                    raise NoSuchObject(f"{op.coll}/{op.oid}")
                onode = Onode.unpack(record)
                if onode.runs:
                    self.allocator.free(onode.extents)
                continue
            # the one op kind left is WRITE
            record = objects.get(op.oid)
            onode = Onode() if record is None else Onode.unpack(record)
            prev_size = onode.size
            end = op.offset + op.length
            allocated = onode.allocated
            extents = []
            if end > allocated:
                extents = self.allocator.allocate(end - allocated)
                onode.add_extents(extents)
            onode.size = max(onode.size, end)
            onode.version += 1
            root = op.data.root_id if op.data is not None else 0
            if op.offset == 0 and end >= prev_size:
                # full overwrite: the object *is* this blob now
                onode.content_id = root
            else:
                onode.content_id = hash_combine(
                    onode.content_id,
                    f"w:{op.offset}:{op.length}:{root}",
                )
            try:
                objects[op.oid] = onode.pack()
            except StoreError:
                # a refused record keeps the space this write took
                if extents:
                    self.allocator.free(extents)
                raise
            new_extents.extend(extents)
        return new_extents

    # ---------------------------------------------------------------- helpers
    @staticmethod
    def _onode_key(coll: str, oid: str) -> str:
        return f"O/{coll}/{oid}"

    def onode(self, coll: str, oid: str) -> Onode:
        """The onode of ``coll/oid``, decoded from its record: the one
        way to read an object's metadata.  ``NoSuchObject`` if absent."""
        objects = self.collections.get(coll)
        if objects is None or oid not in objects:
            raise NoSuchObject(f"{coll}/{oid}")
        return Onode.unpack(objects[oid])

    def __repr__(self) -> str:
        return f"<BlueStore {self.name} txns={self.txns_committed}>"
