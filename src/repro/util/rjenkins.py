"""Robert Jenkins' 32-bit integer hash, as used by Ceph's CRUSH.

This is a faithful Python port of ``crush/hash.c`` from the Ceph source
tree (the ``rjenkins1`` hash family).  CRUSH placement decisions and
object→PG hashing both build on these functions, so implementing them
exactly makes our placement behave like the real system's for identical
inputs.

Also included is ``ceph_str_hash_rjenkins`` (from ``common/ceph_hash.cc``),
the string hash Ceph applies to object names when mapping them to
placement-group seeds.
"""

from __future__ import annotations

__all__ = [
    "crush_hash32_2",
    "crush_hash32_3",
    "ceph_str_hash_rjenkins",
]

_M32 = 0xFFFFFFFF

#: Seed constant from crush/hash.c
CRUSH_HASH_SEED = 1315423911


def _mix(a: int, b: int, c: int) -> tuple[int, int, int]:
    """One round of the Jenkins 96-bit mix function (32-bit wrapping)."""
    a = (a - b) & _M32
    a = (a - c) & _M32
    a ^= c >> 13
    b = (b - c) & _M32
    b = (b - a) & _M32
    b ^= (a << 8) & _M32
    c = (c - a) & _M32
    c = (c - b) & _M32
    c ^= b >> 13
    a = (a - b) & _M32
    a = (a - c) & _M32
    a ^= c >> 12
    b = (b - c) & _M32
    b = (b - a) & _M32
    b ^= (a << 16) & _M32
    c = (c - a) & _M32
    c = (c - b) & _M32
    c ^= b >> 5
    a = (a - b) & _M32
    a = (a - c) & _M32
    a ^= c >> 3
    b = (b - c) & _M32
    b = (b - a) & _M32
    b ^= (a << 10) & _M32
    c = (c - a) & _M32
    c = (c - b) & _M32
    c ^= b >> 15
    return a, b, c


def crush_hash32_2(a: int, b: int) -> int:
    """Hash two 32-bit values."""
    a &= _M32
    b &= _M32
    h = (CRUSH_HASH_SEED ^ a ^ b) & _M32
    x, y = 231232, 1232
    a, b, h = _mix(a, b, h)
    x, a, h = _mix(x, a, h)
    b, y, h = _mix(b, y, h)
    return h


def crush_hash32_3(a: int, b: int, c: int) -> int:
    """Hash three 32-bit values (the straw2 draw hash)."""
    a &= _M32
    b &= _M32
    c &= _M32
    h = (CRUSH_HASH_SEED ^ a ^ b ^ c) & _M32
    x, y = 231232, 1232
    a, b, h = _mix(a, b, h)
    c, x, h = _mix(c, x, h)
    y, a, h = _mix(y, a, h)
    b, x, h = _mix(b, x, h)
    y, c, h = _mix(y, c, h)
    return h


def ceph_str_hash_rjenkins(data: bytes | str) -> int:
    """Ceph's rjenkins string hash (``common/ceph_hash.cc``).

    Used to map object names to PG seeds.  Accepts ``str`` (encoded as
    UTF-8) or raw ``bytes``.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    length = len(data)
    a = 0x9E3779B9
    b = a
    c = 0  # initval

    pos = 0
    while length >= 12:
        a = (
            a
            + data[pos]
            + (data[pos + 1] << 8)
            + (data[pos + 2] << 16)
            + (data[pos + 3] << 24)
        ) & _M32
        b = (
            b
            + data[pos + 4]
            + (data[pos + 5] << 8)
            + (data[pos + 6] << 16)
            + (data[pos + 7] << 24)
        ) & _M32
        c = (
            c
            + data[pos + 8]
            + (data[pos + 9] << 8)
            + (data[pos + 10] << 16)
            + (data[pos + 11] << 24)
        ) & _M32
        a, b, c = _mix(a, b, c)
        pos += 12
        length -= 12

    c = (c + len(data)) & _M32
    # Tail bytes — note the deliberate skip of byte offset +8 for c
    # (it holds the length), matching the original C switch fall-through.
    if length >= 11:
        c = (c + (data[pos + 10] << 24)) & _M32
    if length >= 10:
        c = (c + (data[pos + 9] << 16)) & _M32
    if length >= 9:
        c = (c + (data[pos + 8] << 8)) & _M32
    if length >= 8:
        b = (b + (data[pos + 7] << 24)) & _M32
    if length >= 7:
        b = (b + (data[pos + 6] << 16)) & _M32
    if length >= 6:
        b = (b + (data[pos + 5] << 8)) & _M32
    if length >= 5:
        b = (b + data[pos + 4]) & _M32
    if length >= 4:
        a = (a + (data[pos + 3] << 24)) & _M32
    if length >= 3:
        a = (a + (data[pos + 2] << 16)) & _M32
    if length >= 2:
        a = (a + (data[pos + 1] << 8)) & _M32
    if length >= 1:
        a = (a + data[pos]) & _M32

    a, b, c = _mix(a, b, c)
    return c
