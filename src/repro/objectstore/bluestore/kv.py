"""BlueStore's RocksDB write-ahead log, as the cost model sees it.

BlueStore persists onodes, allocator state and deferred writes through
RocksDB.  What a commit costs the simulated device is the *size* of the
batch it logs, so that is all this module keeps: a batch is its WAL
byte count, and the store is two counters.  The onode index itself is
``BlueStore.collections``, and nothing reads a logged key or value
back, so none outlives its batch.  The I/O cost of flushing batches is
charged by BlueStore itself.
"""

from __future__ import annotations

__all__ = ["KVStore", "WriteBatch"]

#: Per-entry framing a batch logs besides the key and value bytes.
ENTRY_OVERHEAD = 16


class WriteBatch:
    """An atomic batch of KV mutations, kept as its WAL footprint."""

    __slots__ = ("size_bytes",)

    def __init__(self) -> None:
        #: Bytes this batch adds to the WAL.
        self.size_bytes = 0

    def put(self, key: str, value: bytes) -> "WriteBatch":
        self.size_bytes += len(key) + len(value) + ENTRY_OVERHEAD
        return self

    def delete(self, key: str) -> "WriteBatch":
        self.size_bytes += len(key) + ENTRY_OVERHEAD
        return self


class KVStore:
    """The WAL accountant: how many batches, and how many bytes, it logged."""

    __slots__ = ("batches_committed", "bytes_logged")

    def __init__(self) -> None:
        self.batches_committed = 0
        self.bytes_logged = 0

    def commit(self, batch: WriteBatch) -> int:
        """Log a batch atomically; returns its WAL byte footprint."""
        self.batches_committed += 1
        self.bytes_logged += batch.size_bytes
        return batch.size_bytes
