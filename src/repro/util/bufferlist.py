"""Ceph-style bufferlist encoding.

Ceph serializes every message and every ObjectStore transaction into a
``bufferlist`` — an ordered list of buffer extents with little-endian
primitive encoders layered on top (``denc``).  This module reimplements
that idea with one twist needed for simulation scale:

Bulk payload data is represented by :class:`DataBlob` — a *virtual*
extent that has a length and an identity but no materialized bytes.
A 16 MB client write therefore costs a few dozen real bytes of metadata
plus one virtual extent, while every length/offset computation (and the
CPU-cost accounting derived from them) still sees the true sizes.

The encode format is self-describing enough for round-trips:

* primitives: little-endian fixed width (u8/u16/u32/u64/s64/f64)
* ``bytes`` / ``str``: u32 length prefix + raw bytes
* blob: appended as a raw virtual extent (callers encode its length
  themselves, exactly like Ceph encodes ``data_len`` in message headers)
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass, field
from typing import Union

from ..sim.core import register_fresh_env_hook

__all__ = [
    "DataBlob",
    "BufferList",
    "EncodeError",
    "reset_blob_ids",
]


class EncodeError(Exception):
    """Raised on malformed decode input or illegal encode arguments."""


_blob_counter = 0


def _next_blob_id() -> int:
    global _blob_counter
    _blob_counter += 1
    return _blob_counter


def reset_blob_ids() -> None:
    """Restart blob-id allocation from 1.

    Blob ids are only compared *within* one simulation; letting the
    counter leak across :class:`~repro.sim.core.Environment` instances
    made artifacts (and anything hashing blob ids) depend on how many
    simulations the process had already run.  Registered as a
    fresh-environment hook so every new ``Environment`` starts from a
    clean namespace.
    """
    global _blob_counter
    _blob_counter = 0


register_fresh_env_hook(reset_blob_ids)

#: encode_str memo: str -> length-prefixed utf-8 bytes (pure, capped).
_STR_CACHE: dict[str, bytes] = {}


@dataclass(frozen=True, slots=True)
class DataBlob:
    """A virtual bulk-data extent: identity + length, no materialized bytes.

    Two blobs compare equal only if they are the same logical data
    (same ``blob_id``).  ``slice`` produces derived blobs that keep the
    parent identity visible, which the DMA-segmentation code uses to
    verify that reassembled segments cover the original extent exactly.
    """

    length: int
    blob_id: int = field(default_factory=_next_blob_id)
    parent_id: int | None = None
    offset: int = 0

    def __post_init__(self) -> None:
        if self.length < 0:
            raise EncodeError(f"blob length must be >= 0, got {self.length}")

    def slice(self, offset: int, length: int) -> "DataBlob":
        """A sub-extent [offset, offset+length) of this blob."""
        if offset < 0 or length < 0 or offset + length > self.length:
            raise EncodeError(
                f"slice [{offset}, {offset + length}) out of bounds "
                f"for blob of length {self.length}"
            )
        root = self.parent_id if self.parent_id is not None else self.blob_id
        return DataBlob(
            length=length,
            parent_id=root,
            offset=self.offset + offset,
        )

    @property
    def root_id(self) -> int:
        """Identity of the original (unsliced) blob."""
        return self.parent_id if self.parent_id is not None else self.blob_id

    def __len__(self) -> int:
        return self.length


Extent = Union[bytes, DataBlob]


class BufferList:
    """An append-only list of real-byte and virtual-blob extents."""

    __slots__ = ("_extents", "_tail", "_length", "_virtual")

    def __init__(self) -> None:
        self._extents: list[Extent] = []
        self._tail: bytearray | None = None
        self._length = 0
        self._virtual = 0

    @classmethod
    def _adopt(
        cls, extents: list[Extent], real: int, virtual: int
    ) -> "BufferList":
        """A bufferlist over ``extents`` (not copied), whose real and
        virtual byte totals the caller already knows — how the compiled
        codecs of :mod:`repro.util.wire` hand over a finished encoding."""
        bl = cls.__new__(cls)
        bl._extents = extents
        bl._tail = None
        bl._length = real + virtual
        bl._virtual = virtual
        return bl

    # -- sizes ---------------------------------------------------------------
    def __len__(self) -> int:
        """Total logical length: real bytes + virtual blob bytes."""
        return self._length

    @property
    def real_length(self) -> int:
        """Bytes that exist for real (metadata, headers)."""
        return self._length - self._virtual

    @property
    def virtual_length(self) -> int:
        """Bytes represented only as virtual blobs (bulk payload)."""
        return self._virtual

    def extents(self) -> list[Extent]:
        """The extent list (bytes objects and DataBlobs, in order)."""
        return list(self._flush())

    # -- raw appends -----------------------------------------------------------
    def _raw(self, data: bytes) -> None:
        if self._tail is None:
            self._tail = bytearray()
        self._tail += data
        self._length += len(data)

    def _flush(self) -> list[Extent]:
        if self._tail is not None:
            self._extents.append(bytes(self._tail))
            self._tail = None
        return self._extents

    def append_raw(self, data: bytes) -> None:
        """Append already-encoded bytes verbatim (no length prefix).

        For reassembling a bufferlist extent-by-extent — e.g. the wire
        adversary rebuilding a frame with a mutated extent."""
        self._raw(data)

    def append_blob(self, blob: DataBlob) -> None:
        """Append a virtual bulk-data extent."""
        self._flush()
        self._extents.append(blob)
        self._length += blob.length
        self._virtual += blob.length

    # -- primitive encoders -------------------------------------------------
    # int.to_bytes beats struct.pack for fixed little-endian widths and
    # produces identical bytes (out-of-range values still raise, as
    # OverflowError rather than struct.error).
    def encode_u8(self, v: int) -> None:
        self._raw(v.to_bytes(1, "little"))

    def encode_u16(self, v: int) -> None:
        self._raw(v.to_bytes(2, "little"))

    def encode_u32(self, v: int) -> None:
        self._raw(v.to_bytes(4, "little"))

    def encode_u64(self, v: int) -> None:
        self._raw(v.to_bytes(8, "little"))

    def encode_s64(self, v: int) -> None:
        self._raw(v.to_bytes(8, "little", signed=True))

    def encode_f64(self, v: float) -> None:
        self._raw(struct.pack("<d", v))

    def encode_bool(self, v: bool) -> None:
        self._raw(b"\x01" if v else b"\x00")

    def encode_bytes(self, data: bytes) -> None:
        """u32 length prefix + raw bytes."""
        self._raw(len(data).to_bytes(4, "little") + data)

    def encode_str(self, s: str) -> None:
        # Message/op encoding re-emits a small vocabulary of strings
        # (object names, pool names, op types) millions of times; the
        # length-prefixed encoding is pure, so cache it.
        enc = _STR_CACHE.get(s)
        if enc is None:
            raw = s.encode("utf-8")
            enc = len(raw).to_bytes(4, "little") + raw
            if len(_STR_CACHE) < 4096:
                _STR_CACHE[s] = enc
        self._raw(enc)

    # -- integrity -------------------------------------------------------------
    def crc32(self) -> int:
        """CRC over real bytes, mixing in blob identities for virtual data.

        Good enough to detect reordering/corruption in tests; the *cost*
        of checksumming (which is what the CPU model charges) is always
        based on the full logical length.
        """
        crc = 0
        for extent in self._flush():
            if isinstance(extent, bytes):
                crc = zlib.crc32(extent, crc)
            else:
                tag = struct.pack(
                    "<QQQ", extent.root_id, extent.offset, extent.length
                )
                crc = zlib.crc32(tag, crc)
        return crc & 0xFFFFFFFF

    def __repr__(self) -> str:
        return (
            f"<BufferList len={len(self)} real={self.real_length}"
            f" virtual={self.virtual_length}>"
        )
