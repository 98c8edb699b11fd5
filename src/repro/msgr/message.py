"""Wire messages: Ceph-style typed messages with real encode/decode.

Every message renders to a :class:`~repro.util.bufferlist.BufferList`
(fixed header, type-specific front section, optional bulk-data blob) and
decodes back.  The messenger encodes on send and decodes on receive, so
sizes on the wire — and the CPU charged per byte — come from the actual
serialization, not estimates.  Bulk payloads ride as virtual
:class:`~repro.util.bufferlist.DataBlob` extents.

Each type declares its front section once, as a ``SCHEMA`` of
``(field, kind)`` pairs; :mod:`repro.util.wire` compiles header + schema
into the codec both directions use, so there is no encode/decode pair to
keep in step.

``attachment`` is the one model-level escape hatch: cluster-map
distribution attaches the live OSDMap object by reference (serializing a
whole map faithfully is out of scope and irrelevant to the phenomena
under study; its wire *size* is still modelled via ``map_bytes``).
"""
# repro-lint: disable-file=PERF301 — the Message hierarchy is deliberately
# unslotted: the ClassVar span/throttle annotations (span_ctx, op_span, ...)
# are class-level None defaults that tracing and throttling overwrite
# per-instance on the few messages they touch, which requires __dict__.
# Slotting would force the five fields onto every message instead.

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Any, ClassVar, Optional, Type

from ..util import wire
from ..util.bufferlist import BufferList, DataBlob, EncodeError
from ..util.wire import (
    BLOB, BOOL, F64, OPT_BLOB, S64, STR, STR_LIST, U16, U32, U32_LIST, U64,
)

__all__ = [
    "MessageType",
    "Message",
    "MOSDOp",
    "MOSDOpReply",
    "MOSDRepOp",
    "MOSDRepOpReply",
    "MOSDPing",
    "MOSDBeacon",
    "MOSDPGPull",
    "MOSDPGPush",
    "MOSDPGPushReply",
    "MMonGetMap",
    "MMonMapReply",
    "OpType",
    "decode_message",
    "WIRE_OVERHEAD",
]

#: Per-message on-wire overhead outside the bufferlist: banner/crc
#: trailers etc. (bytes).
WIRE_OVERHEAD = 33


class MessageType(IntEnum):
    """Message type tags (values mirror the spirit of Ceph's MSG_*)."""

    PING = 2
    MON_GET_MAP = 5
    MON_MAP_REPLY = 6
    OSD_BEACON = 24
    OSD_OP = 42
    OSD_OP_REPLY = 43
    OSD_REPOP = 112
    OSD_REPOP_REPLY = 113
    PG_PULL = 105
    PG_PUSH = 106
    PG_PUSH_REPLY = 107


class OpType(IntEnum):
    """Client operation codes carried by MOSDOp."""

    WRITE = 1
    READ = 2
    STAT = 3


_REGISTRY: dict[int, Type["Message"]] = {}

#: What every message starts with.  ``TYPE`` is read off the class and
#: dropped on decode (the tag already selected the class).
_HEADER: wire.Schema = (("TYPE", U16), ("tid", U64), ("src", STR))


def _register(cls: Type["Message"]) -> Type["Message"]:
    cls._PLAN = wire.compile_schema(_HEADER + cls.SCHEMA, cls)
    _REGISTRY[int(cls.TYPE)] = cls
    return cls


@dataclass
class Message:
    """Base message: header fields common to every type."""

    TYPE: ClassVar[MessageType]
    #: The front section, in wire order (see :mod:`repro.util.wire`).
    SCHEMA: ClassVar[wire.Schema]
    _PLAN: ClassVar[wire.Plan]

    #: Tracing/throttle annotations attached per-hop by the messenger
    #: and OSD layers.  Class-level ``None`` defaults (ClassVar, so not
    #: dataclass fields) let hot paths read them with a plain attribute
    #: load instead of a ``getattr(..., None)`` default walk.
    span_ctx: ClassVar[Any] = None
    origin_span: ClassVar[Any] = None
    op_span: ClassVar[Any] = None
    repop_span: ClassVar[Any] = None
    throttle_release: ClassVar[Any] = None

    src: str = ""
    tid: int = 0
    #: Model-level object reference riding alongside the wire bytes
    #: (used only for cluster-map distribution).
    attachment: Any = field(default=None, compare=False, repr=False)

    def encode(self) -> BufferList:
        """Full wire form: header + front in one real extent, then the
        data blob if the type carries one."""
        return self._PLAN.encode(self)

    @property
    def data_len(self) -> int:
        """Bulk payload bytes (0 for control messages)."""
        return 0


def decode_message(bl: BufferList, attachment: Any = None) -> Message:
    """Decode a wire bufferlist back into a typed message."""
    mtype, front, nxt = wire.tagged_front(bl)
    cls = _REGISTRY.get(mtype)
    if cls is None:
        raise EncodeError(f"unknown message type {mtype}")
    msg = cls._PLAN.decode_front(front, nxt)
    msg.attachment = attachment
    return msg


def _pack_op_tenant(op: int, tenant: str) -> bytes:
    if tenant:
        return bytes((op | 0x80,)) + wire.pack_str(tenant)
    return bytes((op,))


def _unpack_op_tenant(buf: bytes, pos: int) -> tuple[tuple[OpType, str], int]:
    raw = buf[pos]
    if not raw & 0x80:
        return (OpType(raw), ""), pos + 1
    tenant, end = wire.unpack_str(buf, pos + 1)
    if not tenant:
        raise EncodeError("tenant bit set on an empty tenant tag")
    return (OpType(raw & 0x7F), tenant), end


#: MOSDOp's op byte: the 0x80 bit announces a tenant string right after
#: it, so untagged ops keep their exact pre-QoS wire bytes (golden
#: digests depend on them).
_OP_TENANT = wire.Custom(_pack_op_tenant, _unpack_op_tenant)


@_register
@dataclass
class MOSDOp(Message):
    """A client operation on an object (the paper's workload unit)."""

    TYPE: ClassVar[MessageType] = MessageType.OSD_OP
    SCHEMA = (
        ("pool", STR), ("object_name", STR), (("op", "tenant"), _OP_TENANT),
        ("length", U64), ("offset", U64), ("map_epoch", U32),
        ("data", OPT_BLOB),
    )

    pool: str = ""
    object_name: str = ""
    op: OpType = OpType.WRITE
    length: int = 0
    offset: int = 0
    data: Optional[DataBlob] = None
    map_epoch: int = 0
    #: QoS tenant tag ("" = untagged).
    tenant: str = ""

    @property
    def data_len(self) -> int:
        return self.data.length if self.data is not None else 0


@_register
@dataclass
class MOSDOpReply(Message):
    """Reply to a client op; carries read data for READ ops."""

    TYPE: ClassVar[MessageType] = MessageType.OSD_OP_REPLY
    SCHEMA = (("result", S64), ("version", U64), ("data", OPT_BLOB))

    result: int = 0
    version: int = 0
    data: Optional[DataBlob] = None

    @property
    def data_len(self) -> int:
        return self.data.length if self.data is not None else 0


@_register
@dataclass
class MOSDRepOp(Message):
    """Primary → replica: apply this write transaction."""

    TYPE: ClassVar[MessageType] = MessageType.OSD_REPOP
    SCHEMA = (
        ("pool", STR), ("pg_seed", U32), ("object_name", STR),
        ("length", U64), ("offset", U64), ("map_epoch", U32),
        ("data", OPT_BLOB),
    )

    pool: str = ""
    pg_seed: int = 0
    object_name: str = ""
    length: int = 0
    offset: int = 0
    data: Optional[DataBlob] = None
    map_epoch: int = 0

    @property
    def data_len(self) -> int:
        return self.data.length if self.data is not None else 0


@_register
@dataclass
class MOSDRepOpReply(Message):
    """Replica → primary: transaction committed."""

    TYPE: ClassVar[MessageType] = MessageType.OSD_REPOP_REPLY
    SCHEMA = (("result", S64),)

    result: int = 0


@_register
@dataclass
class MOSDPing(Message):
    """OSD↔OSD heartbeat."""

    TYPE: ClassVar[MessageType] = MessageType.PING
    SCHEMA = (("is_reply", BOOL), ("stamp", F64))

    is_reply: bool = False
    stamp: float = 0.0


@_register
@dataclass
class MOSDBeacon(Message):
    """OSD → monitor liveness beacon.

    ``failed_peers`` carries the ids of heartbeat peers this OSD has not
    heard from within its grace window; the monitor aggregates reports
    from multiple OSDs to mark an unreachable peer down before its own
    beacon grace expires (Ceph's ``MOSDFailure`` path, folded into the
    beacon for simplicity)."""

    TYPE: ClassVar[MessageType] = MessageType.OSD_BEACON
    SCHEMA = (("osd_id", U32), ("map_epoch", U32), ("failed_peers", U32_LIST))

    osd_id: int = 0
    map_epoch: int = 0
    failed_peers: tuple[int, ...] = ()


@_register
@dataclass
class MMonGetMap(Message):
    """Client/OSD → monitor: send me the current OSDMap."""

    TYPE: ClassVar[MessageType] = MessageType.MON_GET_MAP
    SCHEMA = (("have_epoch", U32),)

    have_epoch: int = 0


@_register
@dataclass
class MMonMapReply(Message):
    """Monitor → requester: the OSDMap (object via ``attachment``; its
    wire footprint modelled by a map-sized virtual blob)."""

    TYPE: ClassVar[MessageType] = MessageType.MON_MAP_REPLY
    SCHEMA = (("epoch", U32), ("map_bytes", U32), ("map_blob", BLOB))

    epoch: int = 0
    map_bytes: int = 4096

    @property
    def map_blob(self) -> DataBlob:
        """The map's stand-in on the wire, synthesised per encode (not a
        constructor field, so decode checks it arrived and drops it)."""
        return DataBlob(self.map_bytes)

    @property
    def data_len(self) -> int:
        return self.map_bytes


@_register
@dataclass
class MOSDPGPull(Message):
    """Recovery: a (re)joining acting-set member asks the primary to
    push the PG's objects.  ``have`` lists the object names the puller
    already holds so the pusher streams only the delta (a restarting
    member typically misses a handful of interim writes, not the PG)."""

    TYPE: ClassVar[MessageType] = MessageType.PG_PULL
    SCHEMA = (
        ("pool", STR), ("pg_seed", U32), ("map_epoch", U32),
        ("have", STR_LIST),
    )

    pool: str = ""
    pg_seed: int = 0
    map_epoch: int = 0
    have: tuple = ()


@_register
@dataclass
class MOSDPGPush(Message):
    """Recovery: primary pushes one object of a PG to a member.
    ``last`` marks the final push of the recovery round; it carries
    ``skipped``, the names the pusher holds but did not stream because
    the pull declared them in ``have`` (the puller needs the full set
    the source knows to compute what to push back), and ``pushed``, the
    manifest of names the stream *did* send — the puller refuses to
    credit an episode whose manifest it did not fully receive (a data
    frame consumed at the wire layer must not leave a "full" copy with
    a hole in it)."""

    TYPE: ClassVar[MessageType] = MessageType.PG_PUSH
    SCHEMA = (
        ("pool", STR), ("pg_seed", U32), ("object_name", STR),
        ("length", U64), ("last", BOOL), ("skipped", STR_LIST),
        ("pushed", STR_LIST), ("data", OPT_BLOB),
    )

    pool: str = ""
    pg_seed: int = 0
    object_name: str = ""
    length: int = 0
    data: Optional[DataBlob] = None
    last: bool = False
    skipped: tuple = ()
    pushed: tuple = ()

    @property
    def data_len(self) -> int:
        return self.data.length if self.data is not None else 0


@_register
@dataclass
class MOSDPGPushReply(Message):
    """Recovery: member acknowledges a push."""

    TYPE: ClassVar[MessageType] = MessageType.PG_PUSH_REPLY
    SCHEMA = (("pg_seed", U32), ("result", S64))

    pg_seed: int = 0
    result: int = 0
