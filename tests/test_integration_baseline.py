"""End-to-end integration tests for the Baseline cluster.

Exercises the full path: client → messenger → OSD dispatch →
replication → BlueStore commit → ack, plus monitor boot, heartbeats,
reads, stats and deletes.
"""

import pytest

from repro.cluster import BENCH_POOL, build_baseline_cluster, HardwareProfile
from repro.rados import RadosError
from repro.sim import Environment


@pytest.fixture
def cluster():
    env = Environment()
    c = build_baseline_cluster(env)
    boot = env.process(c.boot(), name="boot")
    env.run(until=boot)
    return c


def run_client(cluster, gen_fn):
    """Run a client generator to completion, return its value."""
    env = cluster.env
    p = env.process(gen_fn(), name="testclient")
    env.run(until=p)
    return p.value


def test_boot_populates_map_and_pgs(cluster):
    assert cluster.client.osdmap is not None
    assert cluster.client.osdmap.epoch >= 1
    for osd in cluster.osds:
        assert len(osd.pgs) > 0
    # every PG collection exists on every acting OSD's store
    total_pgs = sum(len(o.pgs) for o in cluster.osds)
    assert total_pgs == 2 * cluster.profile.pg_num  # replication 2


def test_write_replicates_to_both_nodes(cluster):
    client = cluster.client

    def work():
        result = yield from client.write_object(BENCH_POOL, "obj-A", 1 << 20)
        return result

    result = run_client(cluster, work)
    assert result.result == 0
    assert result.latency > 0
    # the object is durable on BOTH stores (replication factor 2)
    found = 0
    for store in cluster.stores:
        for coll, objects in store.collections.items():
            if "obj-A" in objects:
                found += 1
                assert objects["obj-A"].size == 1 << 20
    assert found == 2


def test_write_then_read_roundtrip(cluster):
    client = cluster.client

    def work():
        yield from client.write_object(BENCH_POOL, "obj-B", 4 << 20)
        read = yield from client.read_object(BENCH_POOL, "obj-B", 4 << 20)
        return read

    read = run_client(cluster, work)
    assert read.result == 0
    assert read.data is not None
    assert read.data.length == 4 << 20


def test_stat_reports_size_and_missing(cluster):
    client = cluster.client

    def work():
        yield from client.write_object(BENCH_POOL, "obj-C", 2 << 20)
        st = yield from client.stat_object(BENCH_POOL, "obj-C")
        missing = yield from client.stat_object(BENCH_POOL, "ghost")
        return st, missing

    st, missing = run_client(cluster, work)
    assert st.result == 0
    assert st.attachment.size == 2 << 20
    assert missing.result == -2


def test_client_requires_boot():
    env = Environment()
    c = build_baseline_cluster(env)

    def work():
        yield from c.client.write_object(BENCH_POOL, "x", 1024)

    p = env.process(work())
    with pytest.raises(RadosError):
        env.run(until=p)


def test_concurrent_clients_complete(cluster):
    env = cluster.env
    client = cluster.client
    done = []

    def worker(i):
        for j in range(3):
            yield from client.write_object(BENCH_POOL, f"c{i}-o{j}", 1 << 20)
        done.append(i)

    procs = [env.process(worker(i)) for i in range(8)]
    for p in procs:
        env.run(until=p)
    assert sorted(done) == list(range(8))
    total_ops = sum(o.client_ops for o in cluster.osds)
    assert total_ops == 24


def test_heartbeats_flow_between_osds(cluster):
    env = cluster.env
    env.run(until=env.now + 5.0)
    for osd in cluster.osds:
        assert osd.heartbeat is not None
        assert osd.heartbeat.peer_addrs
        assert not osd.heartbeat.stale_peers(env.now)


def test_mon_tracks_beacons(cluster):
    env = cluster.env
    env.run(until=env.now + 5.0)
    for osd in cluster.osds:
        assert osd.osd_id in cluster.mon.last_beacon


def test_cpu_accrues_in_expected_categories(cluster):
    env = cluster.env
    client = cluster.client

    def work():
        yield from client.write_object(BENCH_POOL, "obj-E", 8 << 20)

    run_client(cluster, work)
    for cpu in cluster.ceph_cpus():
        busy = cpu.accounting.busy_by_category
        assert busy.get("msgr-worker", 0) > 0
        assert busy.get("tp_osd_tp", 0) > 0
        assert busy.get("bstore", 0) > 0


def test_replication_size_one_profile():
    env = Environment()
    profile = HardwareProfile(replication=1)
    c = build_baseline_cluster(env, profile)
    boot = env.process(c.boot())
    env.run(until=boot)

    def work():
        result = yield from c.client.write_object(BENCH_POOL, "solo", 1 << 20)
        return result

    p = env.process(work())
    env.run(until=p)
    assert p.value.result == 0
    found = sum(
        1
        for store in c.stores
        for objects in store.collections.values()
        if "solo" in objects
    )
    assert found == 1  # single copy


def test_deterministic_across_runs():
    """Identical seeds and workloads produce identical traces."""

    def run_once():
        env = Environment()
        c = build_baseline_cluster(env)
        boot = env.process(c.boot())
        env.run(until=boot)
        lat = []

        def work():
            for i in range(5):
                r = yield from c.client.write_object(
                    BENCH_POOL, f"det-{i}", 1 << 20
                )
                lat.append(r.latency)

        p = env.process(work())
        env.run(until=p)
        return lat

    assert run_once() == run_once()
