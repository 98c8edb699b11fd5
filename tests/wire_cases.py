"""The pinned wire corpus: what every message, transaction and proxy RPC
payload looks like on the wire, extent by extent.

``tests/fixtures/wire.json`` was written by this module *from the commit
before the schema compiler existed* (hand-mirrored ``_encode_front`` /
``_decode_front`` pairs), so it is the old encoders' output, not the new
ones' opinion of themselves.  Two entries were pinned later, when the op
kinds they carried were deleted: ``txn.mixed`` (now only the surviving
transaction kinds) and ``osd_op.stat.utf8`` (the old UTF-8 delete case's
bytes with the op byte 4 → 3, verified equal byte for byte otherwise).  Lengths of these encodings feed
``tcp.costs``, ``encode_cpu``, frame CRCs, the adversary's cuts and every
golden digest; extent boundaries decide what ``corrupted`` / ``truncated``
mutate.  Regenerate only for a deliberate wire change::

    PYTHONPATH=src python -m tests.wire_cases

Each real extent is stored as hex, each virtual blob as ``{"blob": n}``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.msgr import (
    MMonGetMap,
    MMonMapReply,
    MOSDBeacon,
    MOSDOp,
    MOSDOpReply,
    MOSDPGPull,
    MOSDPGPush,
    MOSDPGPushReply,
    MOSDPing,
    MOSDRepOp,
    MOSDRepOpReply,
    OpType,
)
from repro.objectstore.api import Transaction
from repro.util import BufferList, DataBlob

FIXTURES = Path(__file__).parent / "fixtures" / "wire.json"

MB = 1 << 20


def message_cases() -> dict[str, Any]:
    """Every registered type: each optional field present and absent,
    tagged and untagged MOSDOp, empty and non-empty lists."""
    return {
        "osd_op.write": MOSDOp(
            src="client.0", tid=7, pool="bench", object_name="bench_3_42",
            op=OpType.WRITE, length=4 * MB, offset=0, data=DataBlob(4 * MB),
            map_epoch=3,
        ),
        "osd_op.read": MOSDOp(
            src="client.1", tid=2**40 + 1, pool="bench", object_name="o",
            op=OpType.READ, length=65536, offset=4096, map_epoch=9,
        ),
        "osd_op.write.tenant": MOSDOp(
            src="client.t2", tid=11, pool="qos", object_name="t2_000017",
            op=OpType.WRITE, length=65536, data=DataBlob(65536),
            map_epoch=4, tenant="t2",
        ),
        "osd_op.read.tenant": MOSDOp(
            src="c", tid=12, pool="qos", object_name="t3_000001",
            op=OpType.READ, length=65536, map_epoch=4, tenant="tenant-three",
        ),
        "osd_op.stat": MOSDOp(src="c", tid=1, pool="p", object_name="o",
                              op=OpType.STAT),
        "osd_op.stat.utf8": MOSDOp(
            src="клиент", tid=5, pool="données", object_name="объект-☃",
            op=OpType.STAT, map_epoch=2**32 - 1,
        ),
        "osd_op.empty_strings": MOSDOp(),
        "osd_op_reply.ack": MOSDOpReply(src="osd.0", tid=7, result=0,
                                        version=12),
        "osd_op_reply.read": MOSDOpReply(src="osd.1", tid=8, result=0,
                                         version=2**33, data=DataBlob(8192)),
        "osd_op_reply.error": MOSDOpReply(src="osd.1", tid=9, result=-2),
        "osd_repop.data": MOSDRepOp(
            src="osd.0", tid=3, pool="bench", pg_seed=17,
            object_name="bench_3_42", length=MB, offset=512,
            data=DataBlob(MB), map_epoch=5,
        ),
        "osd_repop.no_data": MOSDRepOp(src="osd.0", tid=4, pool="bench",
                                       pg_seed=0, object_name="gone"),
        "osd_repop_reply.ok": MOSDRepOpReply(src="osd.1", tid=3, result=0),
        "osd_repop_reply.error": MOSDRepOpReply(src="osd.1", tid=3,
                                                result=-5),
        "ping.request": MOSDPing(src="osd.0", tid=9, is_reply=False,
                                 stamp=123.5),
        "ping.reply": MOSDPing(src="osd.1", tid=9, is_reply=True,
                               stamp=0.1 + 0.2),
        "beacon.healthy": MOSDBeacon(src="osd.0", tid=1, osd_id=0,
                                     map_epoch=7),
        "beacon.failed_peers": MOSDBeacon(src="osd.2", tid=2, osd_id=2,
                                          map_epoch=8, failed_peers=(0, 5, 3)),
        "mon_get_map": MMonGetMap(src="client.0", tid=1, have_epoch=4),
        "mon_map_reply.default": MMonMapReply(src="mon", tid=1, epoch=9),
        "mon_map_reply.big": MMonMapReply(src="mon", tid=2, epoch=10,
                                          map_bytes=70000),
        "pg_pull.fresh": MOSDPGPull(src="osd.1", tid=1, pool="bench",
                                    pg_seed=33, map_epoch=6),
        "pg_pull.have": MOSDPGPull(src="osd.1", tid=2, pool="bench",
                                   pg_seed=33, map_epoch=6,
                                   have=("a", "bench_0_1", "")),
        "pg_push.object": MOSDPGPush(
            src="osd.0", tid=1, pool="bench", pg_seed=33,
            object_name="bench_0_2", length=4 * MB, data=DataBlob(4 * MB),
        ),
        "pg_push.last": MOSDPGPush(
            src="osd.0", tid=2, pool="bench", pg_seed=33, last=True,
            skipped=("a", "bench_0_1"), pushed=("bench_0_2",),
        ),
        "pg_push.last.data": MOSDPGPush(
            src="osd.0", tid=3, pool="bench", pg_seed=34,
            object_name="tail", length=100, data=DataBlob(100), last=True,
            pushed=("head", "tail"),
        ),
        "pg_push_reply": MOSDPGPushReply(src="osd.1", tid=1, pg_seed=33,
                                         result=-1),
    }


def transaction_cases() -> dict[str, Transaction]:
    mixed = (
        Transaction()
        .create_collection("2.7")
        .write("2.7", "a", 4096, 8192, DataBlob(8192))
        .write("2.7", "b", 0, 100, DataBlob(100))
        .write("2.7", "c", 1, 1, DataBlob(1))
        .remove("2.7", "b")
    )
    return {
        "txn.empty": Transaction(),
        "txn.write": Transaction().write("1.2a", "bench_3_42", 0, 4 * MB,
                                         DataBlob(4 * MB)),
        "txn.mixed": mixed,
    }


#: Proxy RPC argument payloads: op -> [(primitive, value), ...] in wire
#: order (the primitives are ``BufferList.encode_<primitive>``).
RPC_CASES: dict[str, list[tuple[str, Any]]] = {
    "read": [("str", "1.2a"), ("str", "bench_3_42"), ("u64", 4096),
             ("u64", 65536)],
    "stat": [("str", "1.2a"), ("str", "o")],
    "exists": [("str", ""), ("str", "объект")],
    "list": [("str", "1.2a")],
    "bulk": [("str", "bulk"), ("u64", 2 * MB)],
}


def encode_primitives(fields: list[tuple[str, Any]]) -> BufferList:
    """Encode ``fields`` one primitive at a time — what every payload
    encoder did before schemas, and the independent reference since."""
    bl = BufferList()
    for primitive, value in fields:
        getattr(bl, f"encode_{primitive}")(value)
    return bl


def extents_of(bl: BufferList) -> list[Any]:
    return [
        {"blob": e.length} if isinstance(e, DataBlob) else e.hex()
        for e in bl.extents()
    ]


def capture() -> dict[str, list[Any]]:
    out = {
        name: extents_of(obj.encode())
        for name, obj in {**message_cases(), **transaction_cases()}.items()
    }
    for op, fields in RPC_CASES.items():
        out[f"rpc.{op}"] = extents_of(encode_primitives(fields))
    return out


if __name__ == "__main__":
    FIXTURES.parent.mkdir(exist_ok=True)
    cases = capture()
    FIXTURES.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {FIXTURES}")
