"""Two-level bitmap block allocator (BlueStore's default allocator family).

Tracks device space in fixed ``alloc_unit`` blocks on BlueStore's
two-level layout.  L0 is one bit per block (set = used).  The L1
summary holds one state per page of ``1 << _PAGE_SHIFT`` L0 bits:

* FREE: every block of the page is free; no L0 storage.
* FULL: every block of the page is used; no L0 storage.
* PARTIAL: the page's L0 bits, materialized as a ``bytearray``, plus
  its used-block count.

So memory follows the space a run has touched, not device capacity:
a 1 TiB device in 64 KiB blocks starts as a 4 KiB summary instead of a
2 MiB bitmap.  A page whose last used block is freed drops back to
FREE; one whose last free block is taken becomes FULL.

Allocation is first-fit from a roving hint, wrapping once, and returns
possibly-fragmented extent lists.  FULL pages are skipped and FREE
pages claimed without a bit scan (a whole one in L1 alone), but the
extents, the hint and every error are those of the dense walk over one
bit per block (the reference the tests compare against).  Frees
validate double-free, and accounting invariants (free + used ==
capacity) are enforced by property tests.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["BitmapAllocator", "Extent", "AllocError"]

_FREE, _FULL, _PARTIAL = 0, 1, 2

#: log2 of the L0 bits per L1 entry: 4096 blocks (a 512-byte L0 page).
#: At least 3, so a page is whole bytes; tests shrink it to span many
#: pages on a small device.
_PAGE_SHIFT = 12


class AllocError(Exception):
    """Out of space, double free, or misaligned request."""


@dataclass(frozen=True, slots=True)
class Extent:
    """A contiguous run of device blocks: byte ``offset`` + ``length``."""

    offset: int
    length: int


class BitmapAllocator:
    """First-fit two-level bitmap allocator over ``capacity`` bytes."""

    def __init__(self, capacity: int, alloc_unit: int = 65536) -> None:
        if capacity <= 0 or alloc_unit <= 0:
            raise AllocError("capacity and alloc_unit must be positive")
        if capacity % alloc_unit:
            raise AllocError("capacity must be a multiple of alloc_unit")
        self.capacity = capacity
        self.alloc_unit = alloc_unit
        self.num_blocks = capacity // alloc_unit
        self._shift = _PAGE_SHIFT
        #: L1: one state per page, all FREE
        self._l1 = bytearray(((self.num_blocks - 1) >> self._shift) + 1)
        #: L0 bits and used-block count of each PARTIAL page
        self._l0: dict[int, bytearray] = {}
        self._l0_used: dict[int, int] = {}
        self._free_blocks = self.num_blocks
        self._hint = 0

    # -- pages -------------------------------------------------------------------
    def _page_len(self, page: int) -> int:
        """Blocks in ``page`` (only the last page may be short)."""
        return min(1 << self._shift, self.num_blocks - (page << self._shift))

    def _store(self, page: int, n: int, word: int, used: int) -> None:
        """Record ``page`` (``n`` blocks) with L0 bits ``word`` holding
        ``used`` blocks: FREE or FULL in L1 alone, else PARTIAL."""
        if 0 < used < n:
            self._l1[page] = _PARTIAL
            self._l0[page] = bytearray(word.to_bytes((n + 7) >> 3, "little"))
            self._l0_used[page] = used
            return
        self._l1[page] = _FULL if used else _FREE
        self._l0.pop(page, None)
        self._l0_used.pop(page, None)

    def _claim(self, page: int, lo: int, hi: int,
               need: int) -> list[tuple[int, int]]:
        """Take up to ``need`` free blocks of a FREE or PARTIAL ``page``
        in ``[lo, hi)`` (page-local), lowest first; return them as
        ``(block, count)`` runs in device block numbers."""
        first = page << self._shift
        n = self._page_len(page)
        bits = self._l0.get(page)
        if bits is None:
            # FREE: the first ``need`` blocks from lo, no scan; taking
            # the whole page touches L1 alone
            taken = min(hi - lo, need)
            self._store(page, n, ((1 << taken) - 1) << lo, taken)
            return [(first + lo, taken)]
        # PARTIAL: scan [lo, hi) in windows of ``need`` blocks, doubling,
        # so a claim reads about as many bytes as it takes
        runs = []
        taken = 0
        size = need
        while lo < hi and taken < need:
            stop = min(hi, lo + size)
            a, b = lo >> 3, (stop + 7) >> 3
            off = lo & 7  # bit of ``word`` that is block lo
            word = int.from_bytes(bits[a:b], "little")
            free = ~word >> off & ((1 << (stop - lo)) - 1)
            while free and taken < need:
                low = (free & -free).bit_length() - 1
                ones = free >> low
                run = (~ones & (ones + 1)).bit_length() - 1
                k = min(run, need - taken)
                runs.append((first + lo + low, k))
                word |= ((1 << k) - 1) << (off + low)
                free = ones >> run << (low + run)
                taken += k
            bits[a:b] = word.to_bytes(b - a, "little")
            lo = stop
            size *= 2
        used = self._l0_used[page] + taken
        if used < n:
            self._l0_used[page] = used
        else:
            self._store(page, n, 0, used)
        return runs

    def _release(self, page: int, lo: int, hi: int) -> None:
        """Clear the used blocks ``[lo, hi)`` of ``page`` (page-local).

        At the first block already free, raise a double free, keeping
        the blocks before it cleared, as a block-by-block walk would."""
        first = page << self._shift
        n = self._page_len(page)
        state = self._l1[page]
        if state == _FREE:
            raise AllocError(f"double free at block {first + lo}")
        mask = (1 << (hi - lo)) - 1
        if state == _FULL:
            self._store(page, n, ((1 << n) - 1) ^ (mask << lo), n - (hi - lo))
            return
        bits = self._l0[page]
        a, b = lo >> 3, (hi + 7) >> 3
        off = lo & 7
        word = int.from_bytes(bits[a:b], "little")
        gaps = ~(word >> off) & mask
        cleared = (gaps & -gaps).bit_length() - 1 if gaps else hi - lo
        word &= ~(((1 << cleared) - 1) << off)
        used = self._l0_used[page] - cleared
        if used:
            bits[a:b] = word.to_bytes(b - a, "little")
            self._l0_used[page] = used
        else:
            self._store(page, n, 0, 0)
        if gaps:
            raise AllocError(f"double free at block {first + lo + cleared}")

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
        shift = self._shift
        l1 = self._l1
        cur_start = -1
        cur_len = 0
        # The dense walk's visit order (from the hint to the end, then
        # from 0 to the hint), a page at a time: FULL pages are skipped
        # and FREE ones claimed without a scan.
        for lo, hi in ((start, num), (0, start)):
            block = lo
            while block < hi and got < want:
                page = block >> shift
                page_lo = page << shift
                page_hi = min(page_lo + (1 << shift), num)
                end = min(page_hi, hi)
                if l1[page] == _FULL:
                    block = end
                    continue
                runs = self._claim(page, block - page_lo, end - page_lo,
                                   want - got)
                for run_start, n in runs:
                    got += n
                    if run_start == cur_start + cur_len:
                        cur_len += n
                    else:
                        if cur_start >= 0:
                            extents.append(
                                Extent(cur_start * unit, cur_len * unit)
                            )
                        cur_start, cur_len = run_start, n
                block = end
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
        shift = self._shift
        for e in extents:
            if e.offset % self.alloc_unit or e.length % self.alloc_unit:
                raise AllocError(f"misaligned extent: {e}")
            first = e.offset // self.alloc_unit
            count = e.length // self.alloc_unit
            if first < 0 or count < 0 or first + count > self.num_blocks:
                raise AllocError(f"extent out of range: {e}")
            b = first
            end = first + count
            while b < end:
                page = b >> shift
                page_lo = page << shift
                stop = min(page_lo + (1 << shift), end)
                self._release(page, b - page_lo, stop - page_lo)
                b = stop
            self._free_blocks += count

    def fragmentation(self) -> float:
        """Crude score: 1 - (largest free run / total free blocks).

        Read off L1 plus the PARTIAL pages' bits, never a walk over
        every block."""
        if self._free_blocks == 0:
            return 0.0
        largest = 0
        run = 0  # free blocks ending at the current page boundary
        for page, state in enumerate(self._l1):
            if state == _FULL:
                run = 0
                continue
            n = self._page_len(page)
            if state == _FREE:
                run += n
                largest = max(largest, run)
                continue
            word = int.from_bytes(self._l0[page], "little")
            # the page's free runs, block 0 first
            gaps = format(word, f"0{n}b")[::-1].split("1")
            largest = max(largest, run + len(gaps[0]), *map(len, gaps))
            run = len(gaps[-1])
        return 1.0 - largest / self._free_blocks

    def __repr__(self) -> str:
        return (
            f"<BitmapAllocator {self.used_bytes}/{self.capacity} B used,"
            f" unit={self.alloc_unit}>"
        )
