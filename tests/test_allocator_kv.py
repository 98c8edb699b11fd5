"""Tests for the bitmap allocator and the KV store's WAL accounting."""

import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.objectstore import BitmapAllocator, Extent, KVStore, WriteBatch
from repro.objectstore.bluestore import allocator
from repro.objectstore.bluestore.allocator import AllocError


UNIT = 4096


def make_alloc(blocks=64):
    return BitmapAllocator(blocks * UNIT, alloc_unit=UNIT)


# ---------------------------------------------------------------- allocator


def test_simple_allocate_free_cycle():
    a = make_alloc()
    extents = a.allocate(3 * UNIT)
    assert sum(e.length for e in extents) == 3 * UNIT
    assert a.used_bytes == 3 * UNIT
    a.free(extents)
    assert a.used_bytes == 0
    assert a.free_bytes == a.capacity


def test_allocation_rounds_up_to_blocks():
    a = make_alloc()
    extents = a.allocate(100)  # < 1 block
    assert sum(e.length for e in extents) == UNIT


def test_out_of_space():
    a = make_alloc(blocks=4)
    a.allocate(4 * UNIT)
    with pytest.raises(AllocError, match="out of space"):
        a.allocate(UNIT)


def test_fragmented_allocation_spans_extents():
    a = make_alloc(blocks=8)
    first = a.allocate(8 * UNIT)
    a.free([Extent(1 * UNIT, UNIT)])
    a.free([Extent(3 * UNIT, UNIT)])
    a.free([Extent(5 * UNIT, UNIT)])
    extents = a.allocate(3 * UNIT)
    # necessarily fragmented: the three holes, first-fit order
    assert extents == [Extent(1 * UNIT, UNIT), Extent(3 * UNIT, UNIT),
                       Extent(5 * UNIT, UNIT)]
    assert a.free_bytes == 0


def test_double_free_detected():
    a = make_alloc()
    extents = a.allocate(UNIT)
    a.free(extents)
    with pytest.raises(AllocError, match="double free"):
        a.free(extents)


def test_misaligned_and_out_of_range_free():
    a = make_alloc(blocks=4)
    with pytest.raises(AllocError, match="misaligned"):
        a.free([Extent(100, UNIT)])
    for bad in (Extent(10 * UNIT, UNIT), Extent(-UNIT, UNIT), Extent(0, -UNIT)):
        with pytest.raises(AllocError, match="range"):
            a.free([bad])
    assert a.free_bytes == a.capacity


def test_invalid_construction_and_sizes():
    with pytest.raises(AllocError):
        BitmapAllocator(0)
    with pytest.raises(AllocError):
        BitmapAllocator(100, alloc_unit=64)  # not a multiple
    a = make_alloc()
    with pytest.raises(AllocError):
        a.allocate(0)


def test_hint_advances_round_robin():
    """Sequential allocations lay out contiguously (first-fit + hint)."""
    a = make_alloc(blocks=16)
    e1 = a.allocate(4 * UNIT)
    e2 = a.allocate(4 * UNIT)
    assert e1[0].offset + e1[0].length == e2[0].offset


def test_fragmentation_score():
    a = make_alloc(blocks=8)
    assert a.fragmentation() == 0.0
    a.allocate(8 * UNIT)
    a.free([Extent(0, UNIT), Extent(4 * UNIT, UNIT)])
    assert a.fragmentation() > 0.0
    # a default 1 TiB device (16.8 M blocks): the score comes from the
    # page summary, exact, and with no walk over every block
    a = BitmapAllocator(1 << 40)
    blocks = a.num_blocks
    a.allocate(1 << 30)  # 16 384 blocks: whole pages
    assert a.fragmentation() == 0.0
    a.free([Extent(0, a.alloc_unit)])
    a.free([Extent(8192 * a.alloc_unit, a.alloc_unit)])
    free = blocks - 16384 + 2
    assert a.fragmentation() == 1.0 - (blocks - 16384) / free


@given(
    requests=st.lists(st.integers(min_value=1, max_value=10 * UNIT),
                      min_size=1, max_size=30)
)
@settings(max_examples=100)
def test_allocator_conservation_property(requests):
    """free + used == capacity at every step; freeing everything
    restores a pristine allocator."""
    a = BitmapAllocator(256 * UNIT, alloc_unit=UNIT)
    live = []
    for i, size in enumerate(requests):
        try:
            extents = a.allocate(size)
        except AllocError:
            break
        live.append(extents)
        assert a.free_bytes + a.used_bytes == a.capacity
        # no extent overlap
        spans = sorted(
            (e.offset, e.offset + e.length) for ext in live for e in ext
        )
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 <= s2
        if i % 3 == 2:  # free oldest to create fragmentation
            a.free(live.pop(0))
    for extents in live:
        a.free(extents)
    assert a.free_bytes == a.capacity
    assert a.fragmentation() == 0.0


class _DenseBitWalk:
    """The reference: one bit per block in one dense ``bytearray``,
    walked one block per step, as the allocator was before it learned
    pages.  It owns its state and shares no code with the allocator."""

    def __init__(self, blocks):
        self.num_blocks = blocks
        self.bitmap = bytearray((blocks + 7) // 8)
        self.free_blocks = blocks
        self.hint = 0

    def _test(self, block):
        return bool(self.bitmap[block >> 3] & (1 << (block & 7)))

    def allocate(self, nbytes):
        if nbytes <= 0:
            raise AllocError(f"allocation size must be positive: {nbytes}")
        want = -(-nbytes // UNIT)
        if want > self.free_blocks:
            raise AllocError(
                f"out of space: want {want} blocks, have {self.free_blocks}"
            )
        extents = []
        got = 0
        num = self.num_blocks
        start = self.hint % num
        cur_start, cur_len = -1, 0
        for lo, hi in ((start, num), (0, start)):
            block = lo
            while block < hi and got < want:
                if not self._test(block):
                    self.bitmap[block >> 3] |= 1 << (block & 7)
                    got += 1
                    if block == cur_start + cur_len:
                        cur_len += 1
                    else:
                        if cur_start >= 0:
                            extents.append(Extent(cur_start * UNIT, cur_len * UNIT))
                        cur_start, cur_len = block, 1
                block += 1
            if got == want:
                break
        if cur_start >= 0:
            extents.append(Extent(cur_start * UNIT, cur_len * UNIT))
        assert got == want
        self.free_blocks -= want
        last = extents[-1]
        self.hint = ((last.offset + last.length) // UNIT) % num
        return extents

    def free(self, extents):
        for e in extents:
            if e.offset % UNIT or e.length % UNIT:
                raise AllocError(f"misaligned extent: {e}")
            first = e.offset // UNIT
            count = e.length // UNIT
            if first < 0 or count < 0 or first + count > self.num_blocks:
                raise AllocError(f"extent out of range: {e}")
            for b in range(first, first + count):
                if not self._test(b):
                    raise AllocError(f"double free at block {b}")
                self.bitmap[b >> 3] &= ~(1 << (b & 7)) & 0xFF
            self.free_blocks += count

    def fragmentation(self):
        if self.free_blocks == 0:
            return 0.0
        largest = run = 0
        for b in range(self.num_blocks):
            run = 0 if self._test(b) else run + 1
            largest = max(largest, run)
        return 1.0 - largest / self.free_blocks

    def used_blocks(self):
        return {b for b in range(self.num_blocks) if self._test(b)}


def _used_blocks(alloc):
    """The blocks ``alloc`` holds, read off its L1 summary and L0 pages;
    also checks that the summary agrees with the pages it stands for."""
    used = set()
    for page, state in enumerate(alloc._l1):
        first = page << alloc._shift
        n = alloc._page_len(page)
        if state == allocator._PARTIAL:
            bits = int.from_bytes(alloc._l0[page], "little")
            assert bits >> n == 0, "L0 bits past the end of the page"
            assert 0 < bits.bit_count() == alloc._l0_used[page] < n
            used.update(first + i for i in range(n) if bits >> i & 1)
        else:
            assert page not in alloc._l0 and page not in alloc._l0_used
            if state == allocator._FULL:
                used.update(range(first, first + n))
    return used


_alloc_op = st.one_of(
    # allocate this many blocks (0 = sub-block size, rounds up to one)
    st.tuples(st.just("alloc"), st.integers(min_value=0, max_value=70)),
    # free the i-th live allocation
    st.tuples(st.just("free"), st.integers(min_value=0, max_value=40)),
    # free an arbitrary block range: partial frees, double frees (part
    # of the range is cleared before the error), out-of-range
    st.tuples(
        st.just("free-range"),
        st.integers(min_value=0, max_value=210),
        st.integers(min_value=0, max_value=40),
    ),
    st.tuples(st.just("free-misaligned"), st.integers(min_value=1, max_value=UNIT - 1)),
)


@given(
    # every device spans 2+ pages; 200 and 203 end in a short page, and
    # 203 in a short last L0 byte as well
    blocks=st.sampled_from((64, 200, 203)),
    page_shift=st.sampled_from((3, 4, 5)),
    # fill the device in chunks of this many blocks first (0: start
    # empty), so frees punch scattered holes that one claim must walk
    fill=st.integers(min_value=0, max_value=4),
    ops=st.lists(_alloc_op, min_size=1, max_size=60),
)
@settings(max_examples=300, deadline=None)
def test_byte_steps_equal_the_bit_walk(blocks, page_shift, fill, ops):
    """Pages claimed, skipped and dropped whole change nothing
    observable: extents, roving hint, used blocks, free space,
    fragmentation and every error, its message and the state it leaves
    behind, equal the dense one-bit-per-step walk after every operation."""
    with mock.patch.object(allocator, "_PAGE_SHIFT", page_shift):
        paged = BitmapAllocator(blocks * UNIT, alloc_unit=UNIT)
    assert len(paged._l1) > 1
    ref = _DenseBitWalk(blocks)
    live = []

    def both(call):
        outcomes = []
        for alloc in (paged, ref):
            try:
                outcomes.append(("ok", call(alloc)))
            except AllocError as exc:
                outcomes.append(("error", str(exc)))
        assert outcomes[0] == outcomes[1]
        assert _used_blocks(paged) == ref.used_blocks()
        assert paged._hint == ref.hint
        assert paged.free_bytes == ref.free_blocks * UNIT
        assert paged.fragmentation() == ref.fragmentation()
        return outcomes[0]

    for start in range(0, blocks if fill else 0, fill or 1):
        size = min(fill, blocks - start) * UNIT
        live.append(paged.allocate(size))
        assert live[-1] == ref.allocate(size)
    for op in ops:
        if op[0] == "alloc":
            size = op[1] * UNIT or 100
            kind, extents = both(lambda a: a.allocate(size))
            if kind == "ok":
                live.append(extents)
        elif op[0] == "free":
            if live:
                extents = live.pop(op[1] % len(live))
                both(lambda a: a.free(extents))
        elif op[0] == "free-range":
            extent = Extent(op[1] * UNIT, op[2] * UNIT)
            kind, _ = both(lambda a: a.free([extent]))
            if kind == "ok" and op[2]:
                # Bits cleared behind an allocation's back: stop tracking
                # what overlaps, so later frees are honest double frees.
                lo, hi = extent.offset, extent.offset + extent.length
                live[:] = [
                    ext for ext in live
                    if not any(e.offset < hi and lo < e.offset + e.length for e in ext)
                ]
        else:
            both(lambda a: a.free([Extent(op[1], UNIT)]))


# ---------------------------------------------------------------- kv store
#
# The KV is BlueStore's WAL accountant: a batch is its byte count, and
# the store keeps two counters and no key.


def _entry_bytes(key, value=None):
    return len(key) + (0 if value is None else len(value)) + 16


def test_kv_batch_atomic_and_size():
    kv = KVStore()
    batch = WriteBatch().put("x", b"xx").put("y", b"yy").delete("ghost")
    size = kv.commit(batch)
    assert size == batch.size_bytes == 2 * (1 + 2 + 16) + (5 + 16)
    assert kv.batches_committed == 1
    assert kv.bytes_logged == size


def test_kv_put_get_delete():
    """A put and a delete each log their key's entry: the WAL is
    append-only, like RocksDB's."""
    kv = KVStore()
    kv.commit(WriteBatch().put("O/pg1/a", b"1"))
    kv.commit(WriteBatch().delete("O/pg1/a"))
    assert kv.batches_committed == 2
    assert kv.bytes_logged == (
        _entry_bytes("O/pg1/a", b"1") + _entry_bytes("O/pg1/a"))


def test_kv_overwrite_keeps_single_key():
    """An overwrite logs the key's new entry again; the first put's
    bytes stay in the log."""
    kv = KVStore()
    first = kv.commit(WriteBatch().put("k", b"1"))
    second = kv.commit(WriteBatch().put("k", b"22"))
    assert (first, second) == (_entry_bytes("k", b"1"), _entry_bytes("k", b"22"))
    assert kv.batches_committed == 2
    assert kv.bytes_logged == first + second


def test_kv_delete_missing_is_noop():
    """A delete of a missing key raises nothing and logs only a
    tombstone's bytes."""
    kv = KVStore()
    assert kv.commit(WriteBatch().delete("missing")) == _entry_bytes("missing")
    assert kv.batches_committed == 1
    assert kv.bytes_logged == _entry_bytes("missing")


@given(
    batches=st.lists(
        st.lists(st.tuples(st.sampled_from(["put", "delete"]),
                           st.text(max_size=8), st.binary(max_size=16)),
                 max_size=6),
        max_size=12,
    )
)
@settings(max_examples=100)
def test_wal_accounting_matches_byte_model(batches):
    kv = KVStore()
    logged = 0
    for ops in batches:
        batch = WriteBatch()
        for op, key, value in ops:
            if op == "put":
                batch.put(key, value)
                logged += _entry_bytes(key, value)
            else:
                batch.delete(key)
                logged += _entry_bytes(key)
        kv.commit(batch)
    assert kv.batches_committed == len(batches)
    assert kv.bytes_logged == logged


def test_kv_retains_zero_bytes_per_key():
    """Committed keys are not kept: the onode index is
    ``BlueStore.collections``, and a sorted map of every onode key was
    ~100 B per replica-object that only its own tests read."""
    kv = KVStore()
    n = 2000
    batches = [WriteBatch().put(f"O/pg1/obj-{i}", b"\0" * 512)
               for i in range(n)]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for batch in batches:
            kv.commit(batch)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (after - before) // n == 0, f"{after - before} B for {n} keys"
