"""The ObjectStore interface and Transaction type.

Ceph's OSD talks to its backend exclusively through the pluggable
``ObjectStore`` interface; BlueStore and FileStore are implementations.
DoCeph exploits exactly this seam: on the DPU it substitutes a
``ProxyObjectStore`` that forwards these calls to the host (§3.1).

A :class:`Transaction` is an ordered list of mutations applied
atomically.  Transactions encode to/decode from bufferlists because the
proxy serializes them for the RPC/DMA channels (§4: "the arguments are
serialized (e.g., collection ID, object handles, transaction data) into
a bufferlist").

All interface methods are generators: callers ``yield from`` them and
resume when the operation reaches its completion point (commit for
transactions, data availability for reads).  Each takes the calling
:class:`~repro.hw.cpu.SimThread` so CPU is billed to whoever executes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, Generator, Optional

from ..hw.cpu import SimThread
from ..util import wire
from ..util.bufferlist import BufferList, DataBlob

__all__ = [
    "TxnOpKind",
    "TxnOp",
    "Transaction",
    "ObjectStore",
    "StatResult",
    "StoreError",
    "NoSuchObject",
]


class StoreError(Exception):
    """Backend failure (bad transaction, missing collection, …)."""


class NoSuchObject(StoreError):
    """Stat/read of an object that does not exist."""


class TxnOpKind(IntEnum):
    """Mutation types a transaction may carry."""

    WRITE = 2
    REMOVE = 4
    CREATE_COLLECTION = 7


@dataclass
class TxnOp:
    """One mutation inside a transaction."""

    kind: TxnOpKind
    coll: str = ""
    oid: str = ""
    offset: int = 0
    length: int = 0
    data: Optional[DataBlob] = None
    key: str = ""
    value: bytes = b""


#: One op on the wire (:mod:`repro.util.wire`); a transaction is a u32
#: count and this many of them.  No op kind sets ``key`` or ``value``
#: any more, but they stay on the wire: dropping them would change the
#: byte count of every proxied transaction, and every golden with it.
_OP_PLAN = wire.compile_schema(
    (
        ("kind", wire.enum(wire.U8, TxnOpKind)), ("coll", wire.STR),
        ("oid", wire.STR), ("offset", wire.U64), ("length", wire.U64),
        ("key", wire.STR), ("value", wire.BYTES), ("data", wire.OPT_BLOB),
    ),
    TxnOp,
)


@dataclass
class Transaction:
    """An atomic batch of mutations (BlueStore commits all-or-nothing)."""

    ops: list[TxnOp] = field(default_factory=list)

    #: Optional parent :class:`repro.trace.Span` set by the submitting
    #: layer; backends start their commit spans under it.  Not part of
    #: the wire encoding — the host proxy server re-attaches the span
    #: carried by the RPC request after decode.
    span_ctx: Any = field(default=None, compare=False, repr=False)

    # -- builders ----------------------------------------------------------
    def write(
        self, coll: str, oid: str, offset: int, length: int, data: DataBlob
    ) -> "Transaction":
        if length != data.length:
            raise StoreError(
                f"write length {length} != blob length {data.length}"
            )
        self.ops.append(
            TxnOp(TxnOpKind.WRITE, coll, oid, offset=offset, length=length,
                  data=data)
        )
        return self

    def remove(self, coll: str, oid: str) -> "Transaction":
        self.ops.append(TxnOp(TxnOpKind.REMOVE, coll, oid))
        return self

    def create_collection(self, coll: str) -> "Transaction":
        self.ops.append(TxnOp(TxnOpKind.CREATE_COLLECTION, coll))
        return self

    # -- introspection ------------------------------------------------------
    @property
    def data_len(self) -> int:
        """Total bulk payload bytes carried by WRITE ops."""
        return sum(op.length for op in self.ops if op.kind == TxnOpKind.WRITE)

    @property
    def num_ops(self) -> int:
        return len(self.ops)

    # -- serialization (for the proxy channels) ------------------------------
    def encode(self) -> BufferList:
        return _OP_PLAN.encode_list(self.ops)

    @classmethod
    def decode(cls, bl: BufferList) -> "Transaction":
        return cls(_OP_PLAN.decode_list(bl))


@dataclass(frozen=True)
class StatResult:
    """Result of a stat call."""

    size: int
    attrs: int  # number of xattrs: always 0, objects carry none
    version: int
    content_id: int = 0  # virtual-payload fingerprint (see bluestore.Onode)


class ObjectStore:
    """Abstract backend interface (the seam DoCeph proxies across).

    Implementations: :class:`~repro.objectstore.bluestore.BlueStore`
    (real backend, host) and
    :class:`~repro.core.proxy_objectstore.ProxyObjectStore` (DPU-side
    forwarder).
    """

    # -- data plane -------------------------------------------------------------
    def queue_transaction(
        self, txn: Transaction, thread: SimThread
    ) -> Generator[Any, Any, None]:
        """Apply ``txn``; resumes the caller at durable commit."""
        raise NotImplementedError

    def read(
        self,
        coll: str,
        oid: str,
        offset: int,
        length: int,
        thread: SimThread,
        span_ctx: Any = None,
    ) -> Generator[Any, Any, DataBlob]:
        """Read ``length`` bytes at ``offset``; returns a data blob.

        ``span_ctx`` optionally parents the backend's read span."""
        raise NotImplementedError

    # -- control plane ---------------------------------------------------------
    def stat(
        self, coll: str, oid: str, thread: SimThread
    ) -> Generator[Any, Any, StatResult]:
        """Object metadata; raises :class:`NoSuchObject` if missing."""
        raise NotImplementedError

    def exists(
        self, coll: str, oid: str, thread: SimThread
    ) -> Generator[Any, Any, bool]:
        """Does the object exist?"""
        raise NotImplementedError

    def list_objects(
        self, coll: str, thread: SimThread
    ) -> Generator[Any, Any, list[str]]:
        """All object names in a collection."""
        raise NotImplementedError
