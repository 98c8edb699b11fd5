"""Tests for the Ceph-style bufferlist encoding.

Decoding goes through :mod:`repro.util.wire` plans, the codec every
message, transaction and RPC payload uses: the typed encoders must
produce exactly the bytes a plan of the same kinds reads back.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import BufferList, DataBlob, EncodeError, wire


def _plan(*kinds):
    """A positional plan over ``kinds`` (fields f0, f1, ...)."""
    return wire.compile_schema(
        tuple((f"f{i}", kind) for i, kind in enumerate(kinds)))


def test_primitive_roundtrip():
    bl = BufferList()
    bl.encode_u8(7)
    bl.encode_u16(65535)
    bl.encode_u32(4_000_000_000)
    bl.encode_u64(2**63)
    bl.encode_s64(-12345)
    bl.encode_f64(3.5)
    bl.encode_bool(True)
    bl.encode_bytes(b"hello")
    bl.encode_str("wörld")

    plan = _plan(wire.U8, wire.U16, wire.U32, wire.U64, wire.S64, wire.F64,
                 wire.BOOL, wire.BYTES, wire.STR)
    assert plan.decode(bl) == (7, 65535, 4_000_000_000, 2**63, -12345, 3.5,
                               True, b"hello", "wörld")


def test_length_counts_real_and_virtual():
    bl = BufferList()
    bl.encode_u32(1)
    bl.append_blob(DataBlob(1_000_000))
    bl.encode_u32(2)
    assert len(bl) == 4 + 1_000_000 + 4
    assert bl.real_length == 8
    assert bl.virtual_length == 1_000_000


def test_blob_roundtrip_preserves_identity():
    blob = DataBlob(4096)
    bl = BufferList()
    bl.encode_str("header")
    bl.append_blob(blob)

    header, out = _plan(wire.STR, wire.BLOB).decode(bl)
    assert header == "header"
    assert out == blob
    assert out.root_id == blob.blob_id


def test_decode_primitive_from_blob_is_error():
    bl = BufferList()
    bl.append_blob(DataBlob(100))
    with pytest.raises(EncodeError):
        _plan(wire.U32).decode(bl)


def test_decode_blob_where_bytes_is_error():
    bl = BufferList()
    bl.encode_u32(5)
    with pytest.raises(EncodeError):
        _plan(wire.U32, wire.BLOB).decode(bl)


def test_decode_past_end_is_error():
    bl = BufferList()
    bl.encode_u8(1)
    assert _plan(wire.U8).decode(bl) == (1,)
    with pytest.raises(EncodeError):
        _plan(wire.U8, wire.U8).decode(bl)
    with pytest.raises(EncodeError):
        _plan(wire.U8, wire.BLOB).decode(bl)


def test_blob_slice_bounds():
    blob = DataBlob(2048)
    s = blob.slice(1024, 512)
    assert s.length == 512
    assert s.offset == 1024
    assert s.root_id == blob.blob_id
    with pytest.raises(EncodeError):
        blob.slice(1024, 2000)
    with pytest.raises(EncodeError):
        blob.slice(-1, 10)


def test_blob_slice_of_slice_tracks_root():
    blob = DataBlob(100)
    s1 = blob.slice(10, 80)
    s2 = s1.slice(5, 20)
    assert s2.root_id == blob.blob_id
    assert s2.offset == 15
    assert s2.length == 20


def test_negative_blob_length_rejected():
    with pytest.raises(EncodeError):
        DataBlob(-1)


def test_crc32_differs_on_content_change():
    a = BufferList()
    a.encode_str("x")
    b = BufferList()
    b.encode_str("y")
    assert a.crc32() != b.crc32()


def test_crc32_distinguishes_blob_identity():
    a = BufferList()
    a.append_blob(DataBlob(128))
    b = BufferList()
    b.append_blob(DataBlob(128))
    assert a.crc32() != b.crc32()  # different logical data


# --------------------------------------------------------------- properties


@given(
    values=st.lists(
        st.tuples(
            st.sampled_from(["u8", "u16", "u32", "u64", "s64", "bytes", "str"]),
            st.integers(min_value=0, max_value=255),
        ),
        max_size=50,
    )
)
@settings(max_examples=100)
def test_roundtrip_property(values):
    """Any encode sequence decodes back to the same values."""
    bl = BufferList()
    kinds, expected = [], []
    for kind, v in values:
        if kind == "u8":
            value = v
        elif kind == "u16":
            value = v * 257 % 65536
        elif kind == "u32":
            value = v * 16_843_009
        elif kind == "u64":
            value = v * 72_340_172_838_076_673
        elif kind == "s64":
            value = v - 128
        elif kind == "bytes":
            value = bytes([v]) * (v % 17)
        else:
            value = chr(48 + v % 64) * (v % 9)
        getattr(bl, f"encode_{kind}")(value)
        kinds.append(getattr(wire, kind.upper()))
        expected.append(value)

    assert _plan(*kinds).decode(bl) == tuple(expected)


@given(
    total=st.integers(min_value=1, max_value=1 << 24),
    cuts=st.lists(st.floats(min_value=0, max_value=1, exclude_max=True),
                  min_size=0, max_size=10),
)
@settings(max_examples=100)
def test_blob_slicing_partitions_cover_exactly(total, cuts):
    """Slicing a blob at arbitrary cut points conserves total length and
    the offsets tile the original extent."""
    blob = DataBlob(total)
    points = sorted({int(c * total) for c in cuts} | {0, total})
    pieces = [
        blob.slice(a, b - a) for a, b in zip(points, points[1:]) if b > a
    ]
    assert sum(p.length for p in pieces) == total
    # offsets tile [0, total)
    pos = 0
    for p in pieces:
        assert p.offset == pos
        assert p.root_id == blob.blob_id
        pos += p.length
    assert pos == total


@given(st.lists(
    st.one_of(
        st.binary(max_size=12).map(lambda b: ("raw", b)),
        st.integers(0, 1 << 30).map(lambda n: ("blob", n)),
        st.text(max_size=8).map(lambda t: ("str", t)),
        st.just(("seal", None)),
    ),
    max_size=30,
))
@settings(max_examples=200)
def test_running_length_counters_equal_the_recomputation(steps):
    """``real_length`` / ``virtual_length`` are O(1) counters (the RPC
    channel reads them per call); they must equal the sum over extents
    after any append sequence."""
    bl = BufferList()
    for kind, arg in steps:
        if kind == "raw":
            bl.append_raw(arg)
        elif kind == "blob":
            bl.append_blob(DataBlob(arg))
        elif kind == "str":
            bl.encode_str(arg)
        else:
            bl.extents()  # seals the tail into an extent
        extents = bl.extents()
        real = sum(len(e) for e in extents if isinstance(e, bytes))
        virtual = sum(e.length for e in extents if isinstance(e, DataBlob))
        assert (bl.real_length, bl.virtual_length) == (real, virtual)
        assert len(bl) == real + virtual
