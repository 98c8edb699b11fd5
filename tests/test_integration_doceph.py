"""End-to-end integration tests for the DoCeph cluster.

The same client workload as the baseline integration tests, but routed
through the DPU: OSD + messenger on ARM cores, ProxyObjectStore →
RPC/DMA → host BlueStore.
"""

import pytest

from repro.cluster import (
    BENCH_POOL,
    DocephProfile,
    build_doceph_cluster,
)
from repro.core import ProxyObjectStore
from repro.faults import FaultPlan
from repro.sim import Environment


@pytest.fixture
def cluster():
    env = Environment()
    c = build_doceph_cluster(env)
    boot = env.process(c.boot(), name="boot")
    env.run(until=boot)
    return c


def run_client(cluster, gen_fn):
    env = cluster.env
    p = env.process(gen_fn(), name="testclient")
    env.run(until=p)
    return p.value


def test_nodes_have_dpus_and_proxies(cluster):
    for node in cluster.nodes:
        assert node.has_dpu
        assert node.dma is not None
    for osd in cluster.osds:
        assert isinstance(osd.store, ProxyObjectStore)
        # the messenger lives on the DPU stack
        assert osd.messenger.stack.cpu is not osd.store.node.host_cpu
        assert osd.messenger.stack.cpu is osd.store.node.dpu_cpu


def test_write_goes_through_dma_and_commits_on_host(cluster):
    client = cluster.client

    def work():
        result = yield from client.write_object(BENCH_POOL, "obj-A", 4 << 20)
        return result

    result = run_client(cluster, work)
    assert result.result == 0
    # bulk bytes crossed the DMA engines (2 nodes × 4 MB, segmented)
    dma_bytes = sum(n.dma.bytes_transferred for n in cluster.nodes)
    assert dma_bytes == 2 * (4 << 20)
    # BlueStore on the host holds the object on both nodes
    found = sum(
        1
        for store in cluster.stores
        for objects in store.collections.values()
        if "obj-A" in objects
    )
    assert found == 2
    # transactions were executed by the host proxy servers
    assert all(s.txns_executed >= 1 for s in cluster.proxy_servers)


def test_write_records_breakdown(cluster):
    client = cluster.client

    def work():
        yield from client.write_object(BENCH_POOL, "obj-B", 8 << 20)

    run_client(cluster, work)
    breakdowns = []
    for osd in cluster.osds:
        breakdowns.extend(osd.store.breakdowns)
    assert len(breakdowns) == 2  # primary + replica
    for bd in breakdowns:
        assert bd.size == 8 << 20
        assert bd.host_write > 0
        assert bd.dma > 0
        assert bd.total >= bd.host_write + bd.dma + bd.dma_wait
        assert bd.others >= 0


def test_small_metadata_txn_uses_control_plane(cluster):
    """A data-less transaction (PG collection create at boot) travels
    over RPC, not DMA."""
    proxy = cluster.osds[0].store
    assert proxy.control_ops > 0  # boot-time create_collection batches


def test_read_roundtrip_via_reverse_dma(cluster):
    client = cluster.client

    def work():
        yield from client.write_object(BENCH_POOL, "obj-C", 4 << 20)
        dma_before = sum(n.dma.bytes_transferred for n in cluster.nodes)
        read = yield from client.read_object(BENCH_POOL, "obj-C", 4 << 20)
        dma_after = sum(n.dma.bytes_transferred for n in cluster.nodes)
        return read, dma_after - dma_before

    read, dma_delta = run_client(cluster, work)
    assert read.result == 0
    assert read.data.length == 4 << 20
    assert dma_delta == 4 << 20  # data came back over the DMA bridge


def test_stat_missing_yields_enoent(cluster):
    client = cluster.client

    def work():
        st = yield from client.stat_object(BENCH_POOL, "ghost")
        return st

    st = run_client(cluster, work)
    assert st.result == -2


def test_delete_via_proxy(cluster):
    client = cluster.client

    def work():
        yield from client.write_object(BENCH_POOL, "obj-D", 1 << 20)
        yield from client.delete_object(BENCH_POOL, "obj-D")
        st = yield from client.stat_object(BENCH_POOL, "obj-D")
        return st

    st = run_client(cluster, work)
    assert st.result == -2
    for store in cluster.stores:
        for objects in store.collections.values():
            assert "obj-D" not in objects


def test_host_cpu_untouched_by_messenger(cluster):
    client = cluster.client

    def work():
        for i in range(4):
            yield from client.write_object(BENCH_POOL, f"obj-{i}", 4 << 20)

    run_client(cluster, work)
    for node in cluster.nodes:
        host_busy = node.host_cpu.accounting.busy_by_category
        dpu_busy = node.dpu_cpu.accounting.busy_by_category
        # no messenger or OSD CPU on the host — the offload is total
        assert "msgr-worker" not in host_busy
        assert "tp_osd_tp" not in host_busy
        # the host runs only BlueStore and the thin proxy
        assert set(host_busy) <= {"bstore", "proxy"}
        # the DPU carries the messenger and OSD work
        assert dpu_busy.get("msgr-worker", 0) > 0
        assert dpu_busy.get("tp_osd_tp", 0) > 0


def test_segmentation_respects_2mb_cap(cluster):
    client = cluster.client

    def work():
        yield from client.write_object(BENCH_POOL, "big", 16 << 20)

    run_client(cluster, work)
    for node in cluster.nodes:
        # 16 MB in 2 MB segments = 8 transfers on each node
        assert node.dma.transfers >= 8
        assert node.dma.max_transfer == 2 << 20


def test_fault_injection_profile_falls_back():
    env = Environment()
    profile = DocephProfile(cooldown_seconds=0.2)
    c = build_doceph_cluster(env, profile,
                             fault_plan=FaultPlan.parse("dma,p=1.0"))
    boot = env.process(c.boot())
    env.run(until=boot)

    def work():
        result = yield from c.client.write_object(BENCH_POOL, "x", 4 << 20)
        return result

    p = env.process(work())
    env.run(until=p)
    # Write still succeeds — via the RPC fallback path.
    assert p.value.result == 0
    stores = [o.store for o in c.osds]
    assert sum(s.fallback.failures for s in stores) >= 1
    assert sum(s.fallback.fallback_segments for s in stores) >= 1


def test_deterministic_across_runs():
    def run_once():
        env = Environment()
        c = build_doceph_cluster(env)
        boot = env.process(c.boot())
        env.run(until=boot)
        lat = []

        def work():
            for i in range(5):
                r = yield from c.client.write_object(
                    BENCH_POOL, f"det-{i}", 2 << 20
                )
                lat.append(r.latency)

        p = env.process(work())
        env.run(until=p)
        return lat

    assert run_once() == run_once()


def test_write_exceeding_buffer_pool_rejected():
    env = Environment()
    profile = DocephProfile(host_write_buffer_bytes=8 << 20)
    c = build_doceph_cluster(env, profile)
    boot = env.process(c.boot())
    env.run(until=boot)

    from repro.rados import RadosError

    def work():
        try:
            yield from c.client.write_object(BENCH_POOL, "huge", 16 << 20)
        except RadosError as exc:
            return exc.result
        return 0

    p = env.process(work())
    env.run(until=p)
    # surfaces as an error reply (-EINVAL), not a hang
    assert p.value == -22
