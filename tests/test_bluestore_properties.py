"""Property tests: BlueStore against a reference model.

For arbitrary sequences of write/append/remove operations,
BlueStore must agree with a plain-dictionary model on object existence
and size, and the allocator must conserve space exactly (remove frees
everything a write allocated)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import CpuComplex, SimThread, SsdDevice
from repro.objectstore import (
    BlueStore,
    BlueStoreConfig,
    Transaction,
)
from repro.sim import Environment
from repro.util import DataBlob

KB = 1024

op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["write", "append", "remove"]),
        st.integers(min_value=0, max_value=5),        # object index
        st.integers(min_value=1, max_value=512 * KB),  # size
    ),
    min_size=1,
    max_size=30,
)


@given(ops=op_strategy)
@settings(max_examples=40, deadline=None)
def test_bluestore_matches_reference_model(ops):
    env = Environment()
    cpu = CpuComplex(env, "h", cores=4)
    ssd = SsdDevice(env, "s", write_bandwidth=10e9, write_latency=1e-6)
    store = BlueStore(env, "bs", cpu, ssd,
                      BlueStoreConfig(device_capacity=1 << 28))
    store.mkfs()
    store.collections["pg"] = {}
    thread = SimThread(cpu, "t", "tp_osd_tp")

    model: dict[str, int] = {}  # name -> size

    def driver():
        for kind, idx, size in ops:
            name = f"obj-{idx}"
            txn = Transaction()
            if kind == "write":
                txn.write("pg", name, 0, size, DataBlob(size))
                model[name] = max(model.get(name, 0), size)
            elif kind == "append":
                end = model.get(name, 0)
                txn.write("pg", name, end, size, DataBlob(size))
                model[name] = end + size
            else:  # remove
                if name not in model:
                    continue  # store would raise; model skips too
                txn.remove("pg", name)
                del model[name]
            yield from store.queue_transaction(txn, thread)

    p = env.process(driver())
    env.run(until=p)

    objects = store.collections["pg"]
    assert set(objects) == set(model)
    for name, size in model.items():
        assert objects[name].size == size

    # allocator conservation: space held == space the live onodes hold
    held = sum(onode.allocated for onode in objects.values())
    assert store.allocator.used_bytes == held

    # removing everything returns the allocator to pristine
    def cleanup():
        for name in list(model):
            yield from store.queue_transaction(
                Transaction().remove("pg", name), thread
            )

    p2 = env.process(cleanup())
    env.run(until=p2)
    assert store.allocator.used_bytes == 0
    assert store.collections["pg"] == {}


@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2 << 20),
                   min_size=1, max_size=12)
)
@settings(max_examples=30, deadline=None)
def test_bluestore_commit_info_properties(sizes):
    """CommitInfo device time never exceeds total time, and bytes
    committed equal bytes submitted."""
    env = Environment()
    cpu = CpuComplex(env, "h", cores=4)
    ssd = SsdDevice(env, "s", write_bandwidth=1e9, write_latency=1e-5)
    store = BlueStore(env, "bs", cpu, ssd,
                      BlueStoreConfig(device_capacity=1 << 28))
    store.mkfs()
    store.collections["pg"] = {}
    thread = SimThread(cpu, "t", "tp_osd_tp")
    infos = []

    def driver():
        for i, size in enumerate(sizes):
            info = yield from store.queue_transaction(
                Transaction().write("pg", f"o{i}", 0, size, DataBlob(size)),
                thread,
            )
            infos.append(info)

    p = env.process(driver())
    env.run(until=p)
    assert store.bytes_committed == sum(sizes)
    for info in infos:
        assert 0 <= info.device_time <= info.total_time + 1e-12
        assert info.total_time > 0
