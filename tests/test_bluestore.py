"""Tests for transactions and the BlueStore backend."""

from dataclasses import replace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.hw import CpuComplex, SimThread, SsdDevice
from repro.objectstore import (
    BlueStore,
    BlueStoreConfig,
    BSTORE_CATEGORY,
    NoSuchObject,
    StoreError,
    Transaction,
)
from repro.objectstore.bluestore.store import Onode
from repro.sim import Environment
from repro.util import DataBlob


def make_store(env=None, **cfg_kwargs):
    env = env or Environment()
    cpu = CpuComplex(env, "host", cores=4)
    ssd = SsdDevice(env, "ssd", write_bandwidth=1e9, write_latency=50e-6)
    cfg = BlueStoreConfig(device_capacity=1 << 30, **cfg_kwargs)
    store = BlueStore(env, "bs", cpu, ssd, cfg)
    store.mkfs()
    store.collections["pg1"] = {}
    thread = SimThread(cpu, "tp_osd_tp-0", "tp_osd_tp")
    return env, store, thread


# ---------------------------------------------------------------- transaction


def test_transaction_builders_and_sizes():
    blob = DataBlob(1 << 20)
    txn = (
        Transaction()
        .create_collection("pg1")
        .write("pg1", "a", 0, blob.length, blob)
        .remove("pg1", "b")
    )
    assert txn.num_ops == 3
    assert txn.data_len == 1 << 20
    assert txn.ops[1].data is blob


def test_transaction_write_length_mismatch():
    with pytest.raises(StoreError):
        Transaction().write("pg1", "a", 0, 100, DataBlob(50))


def test_transaction_encode_decode_roundtrip():
    blob = DataBlob(4096)
    txn = (
        Transaction()
        .create_collection("pg2")
        .write("pg2", "obj", 0, 4096, blob)
        .remove("pg2", "gone")
    )
    out = Transaction.decode(txn.encode())
    assert out == txn


# ---------------------------------------------------------------- bluestore


def run_txn(env, store, thread, txn):
    def proc():
        yield from store.queue_transaction(txn, thread)
        return env.now

    p = env.process(proc())
    env.run(until=p)
    assert p.triggered, "transaction never committed"
    return p.value


def test_write_commits_and_updates_onode():
    env, store, thread = make_store()
    blob = DataBlob(1 << 20)
    txn = Transaction().write("pg1", "obj", 0, blob.length, blob)
    t_commit = run_txn(env, store, thread, txn)
    assert t_commit > 0
    assert store.txns_committed == 1
    assert store.bytes_committed == 1 << 20

    def check():
        st = yield from store.stat("pg1", "obj", thread)
        return st

    p = env.process(check())
    env.run(until=20.0)
    assert p.value.size == 1 << 20
    assert p.value.version == 1


def test_onode_updates_log_key_and_record_bytes():
    """Each onode update logs its ``O/<coll>/<oid>`` key and one
    fixed-size record through the WAL; the WAL flush is what the SSD
    writes besides the data."""
    env, store, thread = make_store(onode_record_bytes=300)
    for oid in ("a", "bb"):
        blob = DataBlob(1 << 20)
        run_txn(env, store, thread,
                Transaction().write("pg1", oid, 0, blob.length, blob))
    wal = sum(len(f"O/pg1/{oid}") + 300 + 16 for oid in ("a", "bb"))
    assert store.kv.batches_committed == 2
    assert store.kv.bytes_logged == wal
    assert store.ssd.bytes_written == 2 * (1 << 20) + wal


def test_large_write_hits_data_device_before_commit():
    env, store, thread = make_store()
    blob = DataBlob(4 << 20)
    run_txn(env, store, thread,
            Transaction().write("pg1", "obj", 0, blob.length, blob))
    # direct write + WAL flush both hit the SSD
    assert store.ssd.bytes_written > 4 << 20
    assert store.deferred_txns == 0


def test_small_write_takes_deferred_path():
    env, store, thread = make_store()
    blob = DataBlob(4096)
    run_txn(env, store, thread,
            Transaction().write("pg1", "obj", 0, blob.length, blob))
    assert store.deferred_txns == 1
    env.run(until=30.0)  # deferred apply drains
    # WAL (incl. data) + deferred apply
    assert store.ssd.bytes_written >= 2 * 4096


def test_write_allocates_and_remove_frees():
    env, store, thread = make_store()
    blob = DataBlob(1 << 20)
    run_txn(env, store, thread,
            Transaction().write("pg1", "obj", 0, blob.length, blob))
    used_after_write = store.allocator.used_bytes
    assert used_after_write >= 1 << 20

    run_txn(env, store, thread, Transaction().remove("pg1", "obj"))
    assert store.allocator.used_bytes == 0

    def check():
        ok = yield from store.exists("pg1", "obj", thread)
        return ok

    p = env.process(check())
    env.run(until=60.0)
    assert p.value is False


def test_overwrite_does_not_leak_space():
    env, store, thread = make_store()
    blob = DataBlob(1 << 20)
    for _ in range(3):
        run_txn(env, store, thread,
                Transaction().write("pg1", "obj", 0, blob.length, blob))
    # same extent reused: allocation happened once
    onode = store.onode("pg1", "obj")
    assert onode.allocated == store.allocator.used_bytes
    assert onode.version == 3


def test_grown_object_holds_every_extent():
    """A write past the end allocates only the growth, as a second
    extent; ``allocated`` sums them all, so a rewrite allocates nothing."""
    env, store, thread = make_store()
    for size in (100_000, 300_000, 300_000):
        blob = DataBlob(size)
        run_txn(env, store, thread,
                Transaction().write("pg1", "obj", 0, size, blob))
    onode = store.onode("pg1", "obj")
    unit = store.config.alloc_unit
    assert len(onode.extents) == 2
    assert onode.allocated == 5 * unit == store.allocator.used_bytes


def test_device_beyond_a_runs_length_field_is_refused():
    """An onode packs each run's length into 48 bits, so a device of
    2**48 bytes or more could hand out a run it cannot hold."""
    env = Environment()
    cpu = CpuComplex(env, "host", cores=1)
    ssd = SsdDevice(env, "ssd", write_bandwidth=1e9, write_latency=50e-6)
    with pytest.raises(StoreError, match="packed run"):
        BlueStore(env, "bs", cpu, ssd,
                  BlueStoreConfig(device_capacity=1 << 48))


_FIELD = 1 << 48
_run = st.builds(lambda offset, length: offset << 48 | length,
                 st.integers(0, _FIELD - 1), st.integers(1, _FIELD - 1))


@given(size=st.integers(0, _FIELD - 1), version=st.integers(0, (1 << 32) - 1),
       content_id=st.integers(0, (1 << 64) - 1),
       runs=st.lists(_run, max_size=6))
@example(size=_FIELD - 1, version=(1 << 32) - 1, content_id=(1 << 64) - 1,
         runs=[(1 << 96) - 1] * 3)
def test_onode_record_round_trips(size, version, content_id, runs):
    """Every field over its whole width, and zero to six runs, come
    back from the one-int record as they went in."""
    onode = Onode(size, version, runs[0] if len(runs) == 1 else tuple(runs),
                  content_id)
    record = onode.pack()
    assert record.__class__ is int
    assert Onode.unpack(record) == onode


@pytest.mark.parametrize("field, value", [
    ("size", 1 << 48), ("size", -1), ("version", 1 << 32),
    ("content_id", 1 << 64), ("runs", 1 << 96), ("runs", (1 << 48, 7 << 48)),
])
def test_out_of_range_onode_field_is_refused(field, value):
    """A field wider than its slot, a negative one, or a run of length
    0 (which would end the run list early) is refused, not truncated."""
    with pytest.raises(StoreError, match="onode"):
        replace(Onode(), **{field: value}).pack()


def test_write_whose_record_is_refused_keeps_no_space():
    """A write whose content id cannot be recorded fails its submitter,
    and the extents it took go back to the allocator."""
    env, store, thread = make_store()
    blob = DataBlob(1 << 20, parent_id=1 << 64)
    env.process(store.queue_transaction(
        Transaction().write("pg1", "obj", 0, blob.length, blob), thread))
    with pytest.raises(StoreError, match="content id"):
        env.run(until=10.0)
    assert store.allocator.used_bytes == 0
    assert store.collections["pg1"] == {}


def test_cpu_charged_to_bstore_category():
    env, store, thread = make_store()
    blob = DataBlob(8 << 20)
    run_txn(env, store, thread,
            Transaction().write("pg1", "obj", 0, blob.length, blob))
    busy = store.cpu.accounting.busy_by_category
    assert busy.get(BSTORE_CATEGORY, 0) > 0
    assert busy.get("tp_osd_tp", 0) > 0  # submit cost on the caller
    # checksum dominates: bstore CPU should exceed the caller's submit cost
    assert busy[BSTORE_CATEGORY] > busy["tp_osd_tp"]


def test_kv_batching_under_concurrency():
    env, store, thread = make_store()
    n = 24
    committed = []

    def writer(i):
        blob = DataBlob(128 << 10)
        txn = Transaction().write("pg1", f"obj-{i}", 0, blob.length, blob)
        yield from store.queue_transaction(txn, thread)
        committed.append(i)

    for i in range(n):
        env.process(writer(i))
    env.run(until=30.0)
    assert len(committed) == n
    # batching means far fewer kv batches than transactions
    assert store.kv.batches_committed < n


def test_txn_to_missing_collection_fails():
    env, store, thread = make_store()
    blob = DataBlob(4096)
    txn = Transaction().write("nope", "obj", 0, blob.length, blob)

    def proc():
        yield from store.queue_transaction(txn, thread)

    env.process(proc())
    with pytest.raises(StoreError, match="no such collection"):
        env.run(until=10.0)


def test_stat_missing_object_raises():
    env, store, thread = make_store()

    def proc():
        try:
            yield from store.stat("pg1", "ghost", thread)
        except NoSuchObject:
            return "missing"

    p = env.process(proc())
    env.run(until=10.0)
    assert p.value == "missing"


def test_read_returns_blob_and_charges_device():
    env, store, thread = make_store()
    blob = DataBlob(1 << 20)
    run_txn(env, store, thread,
            Transaction().write("pg1", "obj", 0, blob.length, blob))

    def proc():
        out = yield from store.read("pg1", "obj", 0, 1 << 20, thread)
        return out

    p = env.process(proc())
    env.run(until=20.0)
    assert p.value.length == 1 << 20
    assert store.ssd.bytes_read == 1 << 20


def test_read_clamps_to_object_size():
    env, store, thread = make_store()
    blob = DataBlob(1000)
    run_txn(env, store, thread,
            Transaction().write("pg1", "obj", 0, 1000, blob))

    def proc():
        out = yield from store.read("pg1", "obj", 500, 10_000, thread)
        return out

    p = env.process(proc())
    env.run(until=20.0)
    assert p.value.length == 500


def test_list_objects_sorted():
    env, store, thread = make_store()
    for name in ["c", "a", "b"]:
        run_txn(env, store, thread,
                Transaction().write("pg1", name, 0, 1, DataBlob(1)))

    def proc():
        names = yield from store.list_objects("pg1", thread)
        return names

    p = env.process(proc())
    env.run(until=30.0)
    assert p.value == ["a", "b", "c"]

    def bad():
        try:
            yield from store.list_objects("nope", thread)
        except StoreError:
            return "err"

    p2 = env.process(bad())
    env.run(until=40.0)
    assert p2.value == "err"


def test_saturated_throughput_bounded_by_ssd():
    """Sustained 1 MB writes cannot exceed the device write bandwidth."""
    env, store, thread = make_store()
    done = [0]
    last = [0.0]

    def writer(i):
        for j in range(50):
            blob = DataBlob(1 << 20)
            txn = Transaction().write("pg1", f"o{i}-{j}", 0, blob.length, blob)
            yield from store.queue_transaction(txn, thread)
            done[0] += 1
            last[0] = env.now

    for i in range(8):
        env.process(writer(i))
    env.run(until=10.0)
    assert done[0] == 400
    achieved = done[0] * (1 << 20) / last[0]
    assert achieved <= 1.05e9  # 1 GB/s device
    assert achieved > 0.5e9  # pipeline keeps the device mostly busy
