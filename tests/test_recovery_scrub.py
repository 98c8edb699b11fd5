"""Integration tests for PG recovery."""

import pytest

from repro.cluster import (
    BENCH_POOL,
    DocephProfile,
    HardwareProfile,
    build_baseline_cluster,
    build_doceph_cluster,
)
from repro.sim import Environment


def boot_cluster(builder, profile):
    env = Environment()
    c = builder(env, profile)
    b = env.process(c.boot())
    env.run(until=b)
    return env, c


def write_objects(env, c, names, size=1 << 20):
    def work():
        for name in names:
            yield from c.client.write_object(BENCH_POOL, name, size)

    p = env.process(work())
    env.run(until=p)


def objects_on_store(store):
    return {
        name
        for objects in store.collections.values()
        for name in objects
    }


def test_recovery_restores_replication_after_failure():
    profile = HardwareProfile(storage_nodes=3, pg_num=16)
    env, c = boot_cluster(build_baseline_cluster, profile)
    names = [f"obj-{i}" for i in range(12)]
    write_objects(env, c, names)

    # every object has exactly 2 copies
    copies_before = sum(
        name in objects_on_store(store) for store in c.stores
        for name in names
    )
    assert copies_before == 2 * len(names)

    # osd.0 dies and is marked out — its PGs remap to survivors
    c.osdmap.mark_out(0)

    # let recovery run (ticks every 1 s; pushes are windowed)
    env.run(until=env.now + 30.0)

    # every object again has 2 copies, none of them on osd.0's store
    for name in names:
        holders = [
            i for i, store in enumerate(c.stores)
            if name in objects_on_store(store)
        ]
        live_holders = [h for h in holders if h != 0]
        assert len(live_holders) == 2, f"{name} held by {holders}"

    total_recovered = sum(
        o.recovery.objects_recovered for o in c.osds if o.recovery
    )
    assert total_recovered > 0


def test_recovery_noop_on_healthy_cluster():
    profile = HardwareProfile(storage_nodes=2, pg_num=16)
    env, c = boot_cluster(build_baseline_cluster, profile)
    write_objects(env, c, ["a", "b"])
    env.run(until=env.now + 10.0)
    for osd in c.osds:
        assert osd.recovery.pulls_sent == 0
        assert osd.recovery.objects_recovered == 0


def test_recovery_refuses_credit_on_incomplete_push_manifest():
    """The 'last' marker names every object its stream pushed; a puller
    that never received one of them (the wire layer consumed the data
    frame while the marker survived) must abort the episode for re-pull
    instead of crediting itself a full copy with a hole in it."""
    profile = HardwareProfile(storage_nodes=3, pg_num=4)
    env, c = boot_cluster(build_baseline_cluster, profile)
    write_objects(env, c, ["obj-a"])
    osd = c.osds[0]
    rec = osd.recovery
    pgid = next(iter(osd.osdmap.all_pgs(BENCH_POOL)))
    addr = c.osds[1].messenger.address
    before = rec.pulls_retried

    # stream delivered obj-a but the manifest says obj-b was sent too
    rec._pull_pending[pgid] = {addr: (1, True, 5)}
    rec._recv_names[pgid] = {addr: {"obj-a"}}
    rec._complete_source(pgid, addr, skipped=(), pushed=("obj-a", "obj-b"))
    assert pgid not in rec._pull_pending
    assert rec.pulls_retried == before + 1
    assert not rec._pulled_full.get(pgid, False)

    # the same episode with a fully-received manifest completes normally
    rec._pull_pending[pgid] = {addr: (1, True, 5)}
    rec._recv_names[pgid] = {addr: {"obj-a", "obj-b"}}
    rec._complete_source(pgid, addr, skipped=(), pushed=("obj-a", "obj-b"))
    assert pgid not in rec._pull_pending
    assert rec.pulls_retried == before + 1


def test_recovery_on_doceph_cluster_uses_dpu():
    """Recovery traffic flows through the DPU messenger and the proxy
    (host CPU stays out of the data path)."""
    profile = DocephProfile(storage_nodes=3, pg_num=16)
    env, c = boot_cluster(build_doceph_cluster, profile)
    names = [f"obj-{i}" for i in range(8)]
    write_objects(env, c, names, size=2 << 20)
    c.osdmap.mark_out(0)
    env.run(until=env.now + 40.0)

    total_recovered = sum(
        o.recovery.objects_recovered for o in c.osds if o.recovery
    )
    assert total_recovered > 0
    # all recovered copies are durable in host BlueStores of survivors
    for name in names:
        live = sum(
            name in objects_on_store(store)
            for i, store in enumerate(c.stores) if i != 0
        )
        assert live == 2
    # host CPUs never ran messenger work, even during recovery
    for node in c.nodes:
        assert "msgr-worker" not in node.host_cpu.accounting.busy_by_category


def test_client_writes_progress_during_recovery():
    profile = HardwareProfile(storage_nodes=3, pg_num=16)
    env, c = boot_cluster(build_baseline_cluster, profile)
    write_objects(env, c, [f"pre-{i}" for i in range(8)], size=4 << 20)
    c.osdmap.mark_out(0)

    results = []

    def writer():
        for i in range(10):
            r = yield from c.client.write_object(BENCH_POOL, f"live-{i}",
                                                 1 << 20)
            results.append(r.result)

    p = env.process(writer())
    env.run(until=p)
    assert results == [0] * 10
