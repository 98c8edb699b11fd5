"""The wire contract of the schema-compiled codecs (repro.util.wire).

* the pinned corpus (tests/fixtures/wire.json, written by the
  hand-mirrored encoders this PR replaced) is reproduced byte for byte
  and extent for extent;
* every registered message type, a transaction and the proxy RPC
  payloads roundtrip and agree with a field-at-a-time reference walk
  over the ``BufferList.encode_*`` primitives;
* malformed input — any flipped byte, any cut — fails as ``EncodeError``
  or decodes to a message of the same length, never anything else;
* an exact gate for what the compiler buys: a roundtrip enters
  ``repro/util`` a fixed number of times.
"""

from __future__ import annotations

import dataclasses
import json
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rpc import RPC_ARGS
from repro.msgr import message as M
from repro.msgr import MOSDOp, OpType, decode_message
from repro.objectstore.api import Transaction, TxnOp, TxnOpKind
from repro.util import BufferList, DataBlob, EncodeError, wire

from . import wire_cases

FIXTURES = json.loads(wire_cases.FIXTURES.read_text())
MESSAGES = wire_cases.message_cases()
TRANSACTIONS = wire_cases.transaction_cases()


# ------------------------------------------------------------- pinned corpus


def test_corpus_covers_every_registered_type():
    assert {type(m) for m in MESSAGES.values()} == set(M._REGISTRY.values())
    assert set(FIXTURES) == (
        set(MESSAGES) | set(TRANSACTIONS)
        | {f"rpc.{op}" for op in wire_cases.RPC_CASES}
    )
    assert set(RPC_ARGS) == set(wire_cases.RPC_CASES)


@pytest.mark.parametrize("name", sorted({**MESSAGES, **TRANSACTIONS}))
def test_encoding_matches_pinned_bytes_and_extents(name):
    obj = {**MESSAGES, **TRANSACTIONS}[name]
    assert wire_cases.extents_of(obj.encode()) == FIXTURES[name]


@pytest.mark.parametrize("op", sorted(wire_cases.RPC_CASES))
def test_rpc_payload_matches_pinned_bytes(op):
    args = [value for _, value in wire_cases.RPC_CASES[op]]
    bl = RPC_ARGS[op].encode(*args)
    assert wire_cases.extents_of(bl) == FIXTURES[f"rpc.{op}"]
    assert RPC_ARGS[op].decode(bl) == tuple(args)
    assert bl.real_length == len(bl)


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_pinned_messages_roundtrip(name):
    msg = MESSAGES[name]
    assert decode_message(msg.encode()) == msg


@pytest.mark.parametrize("name", sorted(TRANSACTIONS))
def test_pinned_transactions_roundtrip(name):
    txn = TRANSACTIONS[name]
    out = Transaction.decode(txn.encode())
    assert out == txn
    assert [op.data for op in out.ops] == [op.data for op in txn.ops]


# ------------------------------------------------------------------ registry


def test_every_registered_class_declares_a_schema_and_no_mirrored_pair():
    assert len(M._REGISTRY) == len(M.MessageType)
    for mtype, cls in M._REGISTRY.items():
        assert cls.TYPE == mtype
        assert "SCHEMA" in vars(cls), cls
        assert isinstance(cls._PLAN, wire.Plan)
        for legacy in ("_encode_front", "_decode_front", "_encode_data"):
            assert not hasattr(cls, legacy), (cls, legacy)
        # nothing but the base class knows how to encode
        assert "encode" not in vars(cls)
        init = {f.name for f in dataclasses.fields(cls)}
        named = {
            name
            for field, _ in cls.SCHEMA
            for name in ((field,) if isinstance(field, str) else field)
        }
        # every constructor field but the model-level attachment is on
        # the wire; the one schema field that is not a constructor
        # field is MMonMapReply's synthesised blob
        assert init - named == {"src", "tid", "attachment"}
        assert named - init <= {"map_blob"}


# ------------------------------------------- reference walk + property tests

U32S = st.integers(0, 2**32 - 1)
U64S = st.integers(0, 2**64 - 1)
BLOBS = st.integers(0, 1 << 30).map(DataBlob)
NAMES = st.text(max_size=12)

#: One strategy and one primitive-API reference encoder per kind.  The
#: reference returns the blob (if any) to append after the real bytes.
KINDS = {
    wire.U8: (st.integers(0, 255), BufferList.encode_u8),
    wire.U16: (st.integers(0, 2**16 - 1), BufferList.encode_u16),
    wire.U32: (U32S, BufferList.encode_u32),
    wire.U64: (U64S, BufferList.encode_u64),
    wire.S64: (st.integers(-(2**63), 2**63 - 1), BufferList.encode_s64),
    wire.F64: (st.floats(allow_nan=False), BufferList.encode_f64),
    wire.BOOL: (st.booleans(), BufferList.encode_bool),
    wire.STR: (st.text(max_size=40), BufferList.encode_str),
    wire.BYTES: (st.binary(max_size=40), BufferList.encode_bytes),
}


def _ref_list(encode_item):
    def encode(bl, items):
        bl.encode_u32(len(items))
        for item in items:
            encode_item(bl, item)
    return encode


def _ref_op_tenant(bl, value):
    op, tenant = value
    bl.encode_u8(int(op) | (0x80 if tenant else 0))
    if tenant:
        bl.encode_str(tenant)


def _ref_opt_blob(bl, blob):
    bl.encode_bool(blob is not None)
    return blob


KINDS.update({
    wire.U32_LIST: (st.lists(U32S, max_size=5).map(tuple),
                    _ref_list(BufferList.encode_u32)),
    wire.STR_LIST: (st.lists(NAMES, max_size=5).map(tuple),
                    _ref_list(BufferList.encode_str)),
    wire.OPT_BLOB: (st.none() | BLOBS, _ref_opt_blob),
    M._OP_TENANT: (st.tuples(st.sampled_from(list(OpType)), NAMES),
                   _ref_op_tenant),
})


def reference_encode(schema, values) -> BufferList:
    """Field at a time through the primitive API, as the hand-written
    encoders did: the independent implementation the plans must equal."""
    bl = BufferList()
    blob = None
    for (_, kind), value in zip(schema, values):
        blob = KINDS[kind][1](bl, value)
    if blob is not None:
        bl.append_blob(blob)
    return bl


def _draw_fields(data, schema):
    """{constructor field: value} and the per-entry values, drawn from
    the kinds of ``schema``."""
    kwargs, values = {}, []
    for field, kind in schema:
        if kind is wire.BLOB:
            continue
        value = data.draw(KINDS[kind][0], label=str(field))
        values.append(value)
        if isinstance(field, str):
            kwargs[field] = value
        else:
            kwargs.update(zip(field, value))
    return kwargs, values


@pytest.mark.parametrize("cls", list(M._REGISTRY.values()),
                         ids=lambda c: c.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_every_type_roundtrips_and_equals_the_reference_walk(cls, data):
    kwargs, values = _draw_fields(data, cls.SCHEMA)
    msg = cls(src=data.draw(NAMES, label="src"),
              tid=data.draw(U64S, label="tid"), **kwargs)
    bl = msg.encode()
    assert bl.real_length + bl.virtual_length == len(bl)
    # decode inverts encode, blob identity included
    out = decode_message(bl)
    assert type(out) is cls and out == msg
    assert getattr(out, "data", None) is getattr(msg, "data", None)
    # and the bytes are the primitives', extent for extent
    if cls is not M.MMonMapReply:
        schema = M._HEADER + cls.SCHEMA
        ref = reference_encode(schema, [cls.TYPE, msg.tid, msg.src] + values)
        assert bl.extents() == ref.extents()
    else:
        front, blob = bl.extents()
        ref = reference_encode(M._HEADER + cls.SCHEMA[:2],
                               [cls.TYPE, msg.tid, msg.src] + values)
        assert [front] == ref.extents() and blob.length == msg.map_bytes


TXN_OPS = st.builds(
    TxnOp,
    kind=st.sampled_from(list(TxnOpKind)),
    coll=NAMES, oid=NAMES, offset=U64S, length=U64S,
    data=st.none() | BLOBS, key=NAMES, value=st.binary(max_size=20),
)


@given(ops=st.lists(TXN_OPS, max_size=6))
@settings(max_examples=100, deadline=None)
def test_transactions_roundtrip_and_equal_the_reference_walk(ops):
    txn = Transaction(ops)
    bl = txn.encode()
    out = Transaction.decode(bl)
    assert out == txn
    assert [o.data for o in out.ops] == [o.data for o in ops]
    ref = BufferList()
    ref.encode_u32(len(ops))
    for op in ops:
        ref.encode_u8(int(op.kind))
        ref.encode_str(op.coll)
        ref.encode_str(op.oid)
        ref.encode_u64(op.offset)
        ref.encode_u64(op.length)
        ref.encode_str(op.key)
        ref.encode_bytes(op.value)
        ref.encode_bool(op.data is not None)
        if op.data is not None:
            ref.append_blob(op.data)
    assert bl.extents() == ref.extents()
    assert (bl.real_length, bl.virtual_length) == (
        ref.real_length, ref.virtual_length
    )


# ------------------------------------------------------------ split extents


def _resplit(bl: BufferList, cuts: list[int]) -> BufferList:
    """``bl`` with its first real extent split at ``cuts`` (public API
    only: reading the extent list seals the tail)."""
    first, *rest = bl.extents()
    out = BufferList()
    for lo, hi in zip([0] + cuts, cuts + [len(first)]):
        out.append_raw(first[lo:hi])
        out.extents()
    for extent in rest:
        if isinstance(extent, DataBlob):
            out.append_blob(extent)
        else:
            out.append_raw(extent)
            out.extents()
    return out


@pytest.mark.parametrize("name", ["osd_op.write.tenant", "pg_push.last.data",
                                  "pg_pull.have", "mon_map_reply.big"])
def test_front_split_across_several_real_extents_decodes(name):
    msg = MESSAGES[name]
    whole = msg.encode()
    n = len(whole.extents()[0])
    for cuts in ([1], [2], [n // 2], [n - 1], [3, n // 2, n - 2]):
        split = _resplit(whole, cuts)
        assert len(split.extents()) == len(whole.extents()) + len(cuts)
        assert decode_message(split) == msg


def test_transaction_split_across_real_extents_decodes():
    txn = TRANSACTIONS["txn.mixed"]
    whole = txn.encode()
    n = len(whole.extents()[0])
    for cuts in ([1], [4], [n // 2], [5, n - 1]):
        assert Transaction.decode(_resplit(whole, cuts)) == txn


# ------------------------------------------------------------ malformed input

FLIPS = (0x01, 0x40, 0x80, 0xFF)


def _mutations(bl: BufferList):
    """Every single-byte flip and every cut of every real extent."""
    extents = bl.extents()
    for i, extent in enumerate(extents):
        if isinstance(extent, DataBlob):
            yield extents[:i] + extents[i + 1:]          # the blob vanishes
            continue
        for pos in range(len(extent)):
            for mask in FLIPS:
                flipped = bytearray(extent)
                flipped[pos] ^= mask
                yield extents[:i] + [bytes(flipped)] + extents[i + 1:]
            yield extents[:i] + [extent[:pos]] + extents[i + 1:]
            yield extents[:i] + [extent[:pos]]           # and all after it


def _rebuild(extents) -> BufferList:
    bl = BufferList()
    for extent in extents:
        if isinstance(extent, DataBlob):
            bl.append_blob(extent)
        else:
            bl.append_raw(extent)
    return bl


@pytest.mark.parametrize("name", sorted(MESSAGES))
def test_malformed_message_is_an_encode_error_or_an_equal_length_message(name):
    decoded = rejected = 0
    for extents in _mutations(MESSAGES[name].encode()):
        mutated = _rebuild(extents)
        try:
            out = decode_message(mutated)
        except EncodeError:
            rejected += 1
            continue
        decoded += 1
        # what decoded accounts for every real byte it was given
        assert out.encode().real_length == mutated.real_length, out
    assert rejected and decoded  # the walk exercised both outcomes


@pytest.mark.parametrize("name", sorted(TRANSACTIONS))
def test_malformed_transaction_is_an_encode_error_or_equal_length(name):
    for extents in _mutations(TRANSACTIONS[name].encode()):
        mutated = _rebuild(extents)
        try:
            out = Transaction.decode(mutated)
        except EncodeError:
            continue
        assert out.encode().real_length == mutated.real_length, out


@pytest.mark.parametrize("op", sorted(wire_cases.RPC_CASES))
def test_malformed_rpc_payload_is_an_encode_error_or_equal_length(op):
    plan = RPC_ARGS[op]
    args = [value for _, value in wire_cases.RPC_CASES[op]]
    for extents in _mutations(plan.encode(*args)):
        mutated = _rebuild(extents)
        try:
            out = plan.decode(mutated)
        except EncodeError:
            continue
        assert len(plan.encode(*out)) == len(mutated)


def test_what_used_to_escape_as_other_exceptions_is_an_encode_error():
    # a flipped op byte (was ValueError from OpType(126)) ...
    raw = bytearray(MESSAGES["osd_op.stat"].encode().extents()[0])
    raw[raw.index(b"o") + 1] = 126
    with pytest.raises(EncodeError):
        decode_message(_rebuild([bytes(raw)]))
    # ... a flipped transaction kind (was ValueError from TxnOpKind(99)) ...
    raw = bytearray(TRANSACTIONS["txn.write"].encode().extents()[0])
    raw[4] = 99
    with pytest.raises(EncodeError):
        Transaction.decode(_rebuild([bytes(raw)]))
    # ... and a flipped string byte (was UnicodeDecodeError)
    raw = bytearray(MESSAGES["osd_op.stat.utf8"].encode().extents()[0])
    raw[raw.index("к".encode())] ^= 0x40
    with pytest.raises(EncodeError):
        decode_message(_rebuild([bytes(raw)]))
    # a blob where real bytes were promised, and nothing at all
    for extents in ([DataBlob(8)], []):
        with pytest.raises(EncodeError):
            decode_message(_rebuild(extents))
        with pytest.raises(EncodeError):
            Transaction.decode(_rebuild(extents))


def test_schema_mistakes_fail_at_compile_time():
    with pytest.raises(ValueError, match="last field"):
        wire.compile_schema((("data", wire.OPT_BLOB), ("n", wire.U8)))
    with pytest.raises(TypeError, match="unknown wire kind"):
        wire.compile_schema((("n", "u8"),))


# ------------------------------------------------------------ the exact gate


class _UtilCalls:
    """Exact count of Python-level calls into ``repro/util`` (generated
    codec functions carry a file name under it), via ``sys.setprofile``
    — the same on every machine."""

    def __init__(self) -> None:
        self.calls = 0

    def _hook(self, frame, event, arg):
        if event != "call":
            return
        if "/repro/util/" in frame.f_code.co_filename.replace("\\", "/"):
            self.calls += 1

    def __enter__(self) -> "_UtilCalls":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)


def test_the_call_counter_counts():
    bl = BufferList()
    with _UtilCalls() as seen:
        bl.encode_u32(7)  # encode_u32 -> _raw
        bl.extents()      # extents -> _flush
    assert seen.calls == 4


def test_mosdop_roundtrip_enters_util_a_fixed_number_of_times():
    """Before the schema compiler a tagged 64 KB MOSDOp roundtrip made 79
    calls into ``repro/util`` (70 untagged: every field through ``_raw``
    on encode and a per-field decoding cursor on decode)."""
    msg = MESSAGES["osd_op.write.tenant"]
    assert decode_message(msg.encode()) == msg  # warm
    with _UtilCalls() as seen:
        out = decode_message(msg.encode())
    assert out == msg
    # encode: Plan.encode, pack, pack_str (tenant hook), _adopt;
    # decode: tagged_front, _front, _flush, _real_run, decode_front,
    # unpack, unpack_str (tenant hook)
    assert seen.calls <= 11
    untagged = MESSAGES["osd_op.write"]
    with _UtilCalls() as seen:
        decode_message(untagged.encode())
    assert seen.calls == 9


def test_write_transaction_roundtrip_enters_util_a_fixed_number_of_times():
    """Before the schema compiler: 66 calls."""
    txn = TRANSACTIONS["txn.write"]
    assert Transaction.decode(txn.encode()) == txn  # warm
    with _UtilCalls() as seen:
        out = Transaction.decode(txn.encode())
    assert out == txn
    # encode: encode_list, pack, _adopt; decode: decode_list, _flush,
    # _real_run, unpack
    assert seen.calls <= 7


# ------------------------------------------------------- the messenger's view


def test_corrupted_header_counts_a_decode_error_instead_of_killing_a_worker():
    """With frame verification off (the switch the adversary tests flip
    to prove the CRC is load-bearing) a flipped string byte used to
    escape ``decode_message`` as ``UnicodeDecodeError``, which
    ``_Worker._deliver`` does not catch: the msgr worker died."""
    from repro.faults import FaultPlan, parse_fault_specs
    from repro.msgr import AsyncMessenger
    from repro.sim import Environment

    from .test_msgr_adversary import RecordingDispatcher, build_pair

    env = Environment()
    a, b = build_pair(env, workers=1)
    sink = RecordingDispatcher()
    b.register_dispatcher(sink)
    FaultPlan(seed=0, specs=parse_fault_specs("net:corrupt,nth=2")).attach_msgr(
        a, "a"
    )
    try:
        AsyncMessenger.verify_frames = False
        for tid in range(4):
            # header-only frames: ``corrupted`` flips the middle byte,
            # which lands inside the two-byte UTF-8 sequences of the name
            a.send_message(
                MOSDOp(tid=tid, pool="p", object_name="é" * 40,
                       op=OpType.READ, length=1), "b",
            )
        env.run(until=1.0)
    finally:
        AsyncMessenger.verify_frames = True
    assert b.wire_stats.get("decode_error", 0) >= 1
    assert b.wire_stats.get("crc_rejected", 0) == 0
    # the worker survived: frames after the mangled one were dispatched
    assert [m.tid for m in sink.received][-1] == 3
    assert len(sink.received) == 4 - b.wire_stats["decode_error"]
