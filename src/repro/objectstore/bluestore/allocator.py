"""Bitmap block allocator (BlueStore's default allocator family).

Tracks device space in fixed ``alloc_unit`` blocks using a real bitmap
(one bit per block, packed in a ``bytearray``).  Allocation is first-fit
from a roving hint — the same policy class as BlueStore's bitmap
allocator — returning possibly-fragmented extent lists.  Frees validate
double-free, and accounting invariants (free + used == capacity) are
enforced by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BitmapAllocator", "Extent", "AllocError"]


class AllocError(Exception):
    """Out of space, double free, or misaligned request."""


@dataclass(frozen=True)
class Extent:
    """A contiguous run of device blocks: byte ``offset`` + ``length``."""

    offset: int
    length: int


class BitmapAllocator:
    """First-fit bitmap allocator over ``capacity`` bytes."""

    def __init__(self, capacity: int, alloc_unit: int = 65536) -> None:
        if capacity <= 0 or alloc_unit <= 0:
            raise AllocError("capacity and alloc_unit must be positive")
        if capacity % alloc_unit:
            raise AllocError("capacity must be a multiple of alloc_unit")
        self.capacity = capacity
        self.alloc_unit = alloc_unit
        self.num_blocks = capacity // alloc_unit
        # bit set = used
        self._bitmap = bytearray((self.num_blocks + 7) // 8)
        self._free_blocks = self.num_blocks
        self._hint = 0

    # -- bit helpers -------------------------------------------------------------
    def _test(self, block: int) -> bool:
        return bool(self._bitmap[block >> 3] & (1 << (block & 7)))

    def _set(self, block: int) -> None:
        self._bitmap[block >> 3] |= 1 << (block & 7)

    def _clear(self, block: int) -> None:
        self._bitmap[block >> 3] &= ~(1 << (block & 7)) & 0xFF

    # -- public API -------------------------------------------------------------
    @property
    def free_bytes(self) -> int:
        return self._free_blocks * self.alloc_unit

    @property
    def used_bytes(self) -> int:
        return self.capacity - self.free_bytes

    def allocate(self, nbytes: int) -> list[Extent]:
        """Allocate ≥ ``nbytes`` (rounded up to blocks) as extents.

        First-fit from the roving hint; wraps once.  Raises
        :class:`AllocError` when insufficient space remains (no partial
        allocation is left behind).
        """
        if nbytes <= 0:
            raise AllocError(f"allocation size must be positive: {nbytes}")
        want = -(-nbytes // self.alloc_unit)  # ceil div
        if want > self._free_blocks:
            raise AllocError(
                f"out of space: want {want} blocks, have {self._free_blocks}"
            )

        extents: list[Extent] = []
        got = 0
        num = self.num_blocks
        start = self._hint % num
        unit = self.alloc_unit
        bitmap = self._bitmap
        cur_start = -1
        cur_len = 0
        # First-fit scan from the hint, wrapping once: identical visit
        # order to a modulo walk over every block, but written as two
        # linear passes with inlined bit tests, a fast skip over
        # fully-used bytes (0xFF = 8 allocated blocks at once) and a
        # whole-byte claim of fully-free ones (the bit walk would take
        # the same 8 blocks one by one).  On a mostly-full device the
        # scan spends its time in the skip, on a mostly-empty one in
        # the claim.
        for lo, hi in ((start, num), (0, start)):
            block = lo
            while block < hi and got < want:
                bit = block & 7
                byte = bitmap[block >> 3]
                if byte == 0xFF:
                    block += 8 - bit
                    continue
                if not byte and not bit and want - got >= 8 and hi - block >= 8:
                    bitmap[block >> 3] = 0xFF
                    got += 8
                    if block == cur_start + cur_len:
                        cur_len += 8
                    else:
                        if cur_start >= 0:
                            extents.append(
                                Extent(cur_start * unit, cur_len * unit)
                            )
                        cur_start, cur_len = block, 8
                    block += 8
                    continue
                if not byte & (1 << bit):
                    bitmap[block >> 3] = byte | (1 << bit)
                    got += 1
                    if block == cur_start + cur_len:
                        cur_len += 1
                    else:
                        if cur_start >= 0:
                            extents.append(
                                Extent(cur_start * unit, cur_len * unit)
                            )
                        cur_start, cur_len = block, 1
                block += 1
            if got == want:
                break
        if cur_start >= 0:
            extents.append(Extent(cur_start * unit, cur_len * unit))

        assert got == want, "free-block accounting violated"
        self._free_blocks -= want
        last = extents[-1]
        self._hint = (
            (last.offset + last.length) // self.alloc_unit
        ) % self.num_blocks
        return extents

    def free(self, extents: list[Extent]) -> None:
        """Return extents to the free pool (validates double-free)."""
        for e in extents:
            if e.offset % self.alloc_unit or e.length % self.alloc_unit:
                raise AllocError(f"misaligned extent: {e}")
            first = e.offset // self.alloc_unit
            count = e.length // self.alloc_unit
            if first + count > self.num_blocks:
                raise AllocError(f"extent out of range: {e}")
            bitmap = self._bitmap
            b = first
            end = first + count
            while b < end:
                if not b & 7 and end - b >= 8 and bitmap[b >> 3] == 0xFF:
                    # a whole used byte: 8 blocks the bit walk would
                    # clear one by one (anything less falls through to
                    # it, so a double free is reported at the same block)
                    bitmap[b >> 3] = 0
                    b += 8
                    continue
                mask = 1 << (b & 7)
                if not bitmap[b >> 3] & mask:
                    raise AllocError(f"double free at block {b}")
                bitmap[b >> 3] &= ~mask & 0xFF
                b += 1
            self._free_blocks += count

    def fragmentation(self) -> float:
        """Crude score: 1 - (largest free run / total free blocks)."""
        if self._free_blocks == 0:
            return 0.0
        largest = 0
        run = 0
        for b in range(self.num_blocks):
            if not self._test(b):
                run += 1
                largest = max(largest, run)
            else:
                run = 0
        return 1.0 - largest / self._free_blocks

    def __repr__(self) -> str:
        return (
            f"<BitmapAllocator {self.used_bytes}/{self.capacity} B used,"
            f" unit={self.alloc_unit}>"
        )
