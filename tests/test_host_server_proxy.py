"""Direct unit tests for the host proxy server and ProxyObjectStore
(outside the full cluster): op classification, handler behaviour,
write-buffer accounting, and error propagation."""

import pytest

from repro.cluster import DocephProfile
from repro.core import HostProxyServer, ProxyObjectStore
from repro.hw import ClusterNode, CpuComplex, DmaEngine, Network, SimThread, SsdDevice
from repro.objectstore import (
    BlueStore,
    BlueStoreConfig,
    NoSuchObject,
    StoreError,
    Transaction,
)
from repro.sim import Environment
from repro.util import DataBlob

MB = 1 << 20


def make_proxy_rig(env, profile=None):
    """One DPU node with BlueStore + HostProxyServer + ProxyObjectStore."""
    profile = profile or DocephProfile()
    network = Network(env)
    host_cpu = CpuComplex(env, "n.host", cores=8)
    dpu_cpu = CpuComplex(env, "n.dpu", cores=8, perf=0.45)
    ssd = SsdDevice(env, "n.ssd")
    dma = DmaEngine(
        env, "n.dma", bandwidth=profile.dma_bandwidth,
        setup_latency=profile.dma_setup_latency,
        max_transfer=profile.dma_max_transfer,
    )
    node = ClusterNode(env, network, "n", host_cpu, ssd,
                       nic_bandwidth=100e9, tcp=profile.tcp,
                       dpu_cpu=dpu_cpu, dma=dma)
    store = BlueStore(env, "bs", host_cpu, ssd,
                      BlueStoreConfig(device_capacity=1 << 30))
    store.mkfs()
    store.create_collection_sync("pg")
    server = HostProxyServer(node, store, profile)
    proxy = ProxyObjectStore(node, server, profile)
    thread = SimThread(dpu_cpu, "osd-thread", "tp_osd_tp")
    return node, store, server, proxy, thread


def run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


# ------------------------------------------------------------ classification


def test_data_txn_uses_dma_metadata_txn_uses_rpc():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        blob = DataBlob(4 * MB)
        yield from proxy.queue_transaction(
            Transaction().write("pg", "big", 0, blob.length, blob), thread
        )
        yield from proxy.queue_transaction(
            Transaction().touch("pg", "meta-only"), thread
        )

    run(env, work())
    assert proxy.data_ops == 1
    assert proxy.control_ops >= 1
    assert node.dma.bytes_transferred == 4 * MB  # only the data op
    assert store.txns_committed == 2


def test_write_buffer_accounting_returns_to_full():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)
    cap = server.write_buffers.capacity

    def work():
        blob = DataBlob(8 * MB)
        yield from proxy.queue_transaction(
            Transaction().write("pg", "x", 0, blob.length, blob), thread
        )

    run(env, work())
    assert server.write_buffers.level == cap  # fully released post-commit


def test_oversized_write_rejected_without_leaking_buffers():
    env = Environment()
    profile = DocephProfile(host_write_buffer_bytes=4 * MB)
    node, store, server, proxy, thread = make_proxy_rig(env, profile)

    def work():
        blob = DataBlob(8 * MB)
        try:
            yield from proxy.queue_transaction(
                Transaction().write("pg", "x", 0, blob.length, blob), thread
            )
        except StoreError as exc:
            return str(exc)

    out = run(env, work())
    assert "exceeds the host write-buffer pool" in out
    assert server.write_buffers.level == 4 * MB


def test_control_ops_roundtrip_through_rpc():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        blob = DataBlob(1 * MB)
        txn = (Transaction()
               .write("pg", "obj", 0, blob.length, blob)
               .setattr("pg", "obj", "_", b"oi"))
        yield from proxy.queue_transaction(txn, thread)
        st = yield from proxy.stat("pg", "obj", thread)
        exists = yield from proxy.exists("pg", "obj", thread)
        ghost = yield from proxy.exists("pg", "ghost", thread)
        attr = yield from proxy.getattr("pg", "obj", "_", thread)
        names = yield from proxy.list_objects("pg", thread)
        return st, exists, ghost, attr, names

    st, exists, ghost, attr, names = run(env, work())
    assert st.size == 1 * MB
    assert exists is True
    assert ghost is False
    assert attr == b"oi"
    assert names == ["obj"]
    assert server.control_ops >= 5


def test_stat_missing_raises_nosuchobject():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        try:
            yield from proxy.stat("pg", "ghost", thread)
        except NoSuchObject:
            return "missing"

    assert run(env, work()) == "missing"


def test_getattr_missing_attr_raises():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        yield from proxy.queue_transaction(
            Transaction().touch("pg", "obj"), thread
        )
        try:
            yield from proxy.getattr("pg", "obj", "nope", thread)
        except NoSuchObject:
            return "noattr"

    assert run(env, work()) == "noattr"


def test_read_streams_back_over_dma():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        blob = DataBlob(3 * MB)
        yield from proxy.queue_transaction(
            Transaction().write("pg", "obj", 0, blob.length, blob), thread
        )
        before = node.dma.bytes_transferred
        out = yield from proxy.read("pg", "obj", 0, 3 * MB, thread)
        return out, node.dma.bytes_transferred - before

    out, dma_delta = run(env, work())
    assert out.length == 3 * MB
    assert dma_delta == 3 * MB


def test_read_missing_raises():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        try:
            yield from proxy.read("pg", "ghost", 0, MB, thread)
        except NoSuchObject:
            return "missing"

    assert run(env, work()) == "missing"


def test_txn_error_propagates_as_storeerror():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        blob = DataBlob(MB)
        txn = Transaction().write("no-such-coll", "x", 0, blob.length, blob)
        try:
            yield from proxy.queue_transaction(txn, thread)
        except StoreError as exc:
            return str(exc)

    out = run(env, work())
    assert "no such collection" in out
    # buffers still returned despite the failure
    assert server.write_buffers.level == server.write_buffers.capacity


def test_breakdown_recorded_per_data_op():
    env = Environment()
    node, store, server, proxy, thread = make_proxy_rig(env)

    def work():
        for i in range(3):
            blob = DataBlob(2 * MB)
            yield from proxy.queue_transaction(
                Transaction().write("pg", f"o{i}", 0, blob.length, blob),
                thread,
            )

    run(env, work())
    assert len(proxy.breakdowns) == 3
    for bd in proxy.breakdowns:
        assert bd.size == 2 * MB
        assert bd.total > 0
        assert bd.others >= 0
    proxy.reset_breakdowns()
    assert list(proxy.breakdowns) == []


def test_proxy_requires_dpu_node():
    env = Environment()
    network = Network(env)
    from repro.hw import TcpStackModel

    plain = ClusterNode(env, network, "plain",
                        CpuComplex(env, "h", cores=2),
                        SsdDevice(env, "s"),
                        nic_bandwidth=1e9, tcp=TcpStackModel())
    with pytest.raises(ValueError):
        ProxyObjectStore(plain, None, DocephProfile())
