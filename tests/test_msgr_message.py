"""Tests for wire message encoding/decoding."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.msgr import (
    MMonGetMap,
    MMonMapReply,
    MOSDOp,
    MOSDOpReply,
    MOSDPing,
    MOSDRepOp,
    MOSDRepOpReply,
    OpType,
    decode_message,
)
from repro.util import BufferList, DataBlob, EncodeError


def roundtrip(msg):
    return decode_message(msg.encode(), attachment=msg.attachment)


def test_osd_op_roundtrip_with_data():
    blob = DataBlob(4 * 1024 * 1024)
    msg = MOSDOp(
        src="client0", tid=7, pool="bench", object_name="obj-42",
        op=OpType.WRITE, length=blob.length, data=blob, map_epoch=3,
    )
    out = roundtrip(msg)
    assert isinstance(out, MOSDOp)
    assert out == msg
    assert out.data == blob
    assert out.data.length == 4 * 1024 * 1024


def test_osd_op_roundtrip_without_data():
    msg = MOSDOp(src="c", tid=1, pool="p", object_name="o",
                 op=OpType.READ, length=1024)
    out = roundtrip(msg)
    assert out == msg
    assert out.data is None


def test_op_reply_roundtrip():
    msg = MOSDOpReply(src="osd.0", tid=7, result=0, version=12)
    assert roundtrip(msg) == msg
    read_reply = MOSDOpReply(src="osd.0", tid=8, result=0,
                             data=DataBlob(8192))
    out = roundtrip(read_reply)
    assert out.data.length == 8192


def test_repop_roundtrip():
    blob = DataBlob(1 << 20)
    msg = MOSDRepOp(src="osd.0", tid=3, pool="bench", pg_seed=17,
                    object_name="o", length=blob.length, data=blob,
                    map_epoch=5)
    out = roundtrip(msg)
    assert out == msg


def test_repop_reply_roundtrip():
    msg = MOSDRepOpReply(src="osd.1", tid=3, result=0)
    assert roundtrip(msg) == msg


def test_ping_roundtrip():
    msg = MOSDPing(src="osd.0", tid=9, is_reply=True, stamp=123.5)
    assert roundtrip(msg) == msg


def test_mon_messages_roundtrip():
    get = MMonGetMap(src="client", tid=1, have_epoch=4)
    assert roundtrip(get) == get
    reply = MMonMapReply(src="mon", tid=1, epoch=9, map_bytes=8192)
    reply.attachment = {"the": "map"}
    out = roundtrip(reply)
    assert out.epoch == 9
    assert out.map_bytes == 8192
    assert out.attachment == {"the": "map"}


def test_wire_size_includes_payload_and_overhead():
    small = MOSDOp(src="c", tid=1, pool="p", object_name="o",
                   op=OpType.WRITE, length=0)
    big = MOSDOp(src="c", tid=1, pool="p", object_name="o",
                 op=OpType.WRITE, length=1 << 20, data=DataBlob(1 << 20))
    assert len(big.encode()) - len(small.encode()) == (1 << 20)
    assert big.encode().virtual_length == 1 << 20


def test_unknown_type_rejected():
    bl = BufferList()
    bl.encode_u16(9999)
    bl.encode_u64(0)
    bl.encode_str("x")
    with pytest.raises(EncodeError):
        decode_message(bl)


@given(
    tid=st.integers(min_value=0, max_value=2**63),
    name=st.text(min_size=0, max_size=40),
    length=st.integers(min_value=0, max_value=1 << 30),
    op=st.sampled_from(list(OpType)),
    epoch=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=100)
def test_osd_op_roundtrip_property(tid, name, length, op, epoch):
    data = DataBlob(length) if op == OpType.WRITE else None
    msg = MOSDOp(src="client", tid=tid, pool="pool", object_name=name,
                 op=op, length=length, data=data, map_epoch=epoch)
    out = roundtrip(msg)
    assert out == msg
    assert len(out.encode()) == len(msg.encode())
