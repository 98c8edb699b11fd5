"""Integration tests for PG recovery."""

import pytest

from repro.cluster import (
    BENCH_POOL,
    DocephProfile,
    HardwareProfile,
    build_baseline_cluster,
    build_doceph_cluster,
)
from repro.msgr.message import MOSDPGPush
from repro.objectstore.api import StoreError
from repro.osd.recovery import _PgRecovery, _Pull
from repro.sim import Environment
from repro.util.bufferlist import DataBlob


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
    rec._pgs[pgid] = state = _PgRecovery(
        pull=_Pull(started=env.now, pending={addr: (1, True, 5)}),
        recv={addr: {"obj-a"}},
    )
    rec._complete_source(pgid, addr, skipped=(), pushed=("obj-a", "obj-b"))
    assert state.pull is None
    assert rec.pulls_retried == before + 1
    assert not state.full

    # the same episode with a fully-received manifest completes normally
    state.pull = _Pull(started=env.now, pending={addr: (1, True, 5)})
    state.recv = {addr: {"obj-a", "obj-b"}}
    rec._complete_source(pgid, addr, skipped=(), pushed=("obj-a", "obj-b"))
    assert state.pull is None
    assert rec.pulls_retried == before + 1


# ------------------------------------------------------------ abort contract


def _failing_store_call(*args, **kwargs):
    raise StoreError("backend unreachable")
    yield  # pragma: no cover


def _pull_in_flight():
    """A booted cluster and a PG primary's recovery manager with a sent
    pull in flight, from a peer whose stream already delivered one
    object; returns ``(env, cluster, manager, pgid, source address)``."""
    profile = HardwareProfile(storage_nodes=3, pg_num=4)
    env, c = boot_cluster(build_baseline_cluster, profile)
    pgid = next(iter(c.osdmap.all_pgs(BENCH_POOL)))
    primary, source = c.osdmap.pg_to_osds(pgid)[:2]
    osds = {osd.osd_id: osd for osd in c.osds}
    rec = osds[primary].recovery
    addr = osds[source].messenger.address
    rec._pgs[pgid] = _PgRecovery(
        pull=_Pull(started=env.now, pending={addr: (source, True, 0)}),
        drained={2: 0}, recv={addr: {"obj-a"}},
    )
    return env, c, rec, pgid, addr


def _aborted_once(rec, pgid, before):
    state = rec._pgs[pgid]
    assert state.pull is None
    assert rec.pulls_retried == before + 1
    # an abort ends the pull, not the episode
    assert state.drained == {2: 0}
    assert "obj-a" in next(iter(state.recv.values()))


def test_stalled_pull_is_aborted():
    env, c, rec, pgid, _ = _pull_in_flight()
    before = rec.pulls_retried
    rec._pgs[pgid].pull.started = env.now - rec.pull_timeout
    # the primary is a current member and no holder is newer: the stall
    # starts no new pull
    rec._check_pg(BENCH_POOL, pgid)
    _aborted_once(rec, pgid, before)


def test_pull_whose_collection_cannot_be_made_is_aborted(monkeypatch):
    env, c, rec, pgid, _ = _pull_in_flight()
    state = rec._pgs[pgid]
    streams = state.pull
    before, sent = rec.pulls_retried, rec.pulls_sent
    monkeypatch.setattr(type(rec.osd.store), "queue_transaction",
                        _failing_store_call)

    def start_and_fail():
        p = env.process(rec._start_pull(BENCH_POOL, pgid, [(2, True, 0)]))
        env.run(until=p)

    # the failed issue sent nothing: streams an earlier issue started
    # keep answering, and only the issue is dropped
    start_and_fail()
    assert state.pull is streams and streams.started is None
    assert rec.pulls_retried == before + 1
    # with no stream answering, the pull ends
    state.pull = _Pull(started=env.now)
    start_and_fail()
    _aborted_once(rec, pgid, before + 1)
    assert rec.pulls_sent == sent


def _slow_collection(monkeypatch, rec, delay):
    """Make ``rec``'s store take ``delay`` sim-s per transaction;
    returns the list of times a transaction was queued on it."""
    store = rec.osd.store
    original = type(store).queue_transaction
    queued = []

    def slow(self, txn, thread):
        if self is store:
            queued.append(rec.env.now)
            yield rec.env.timeout(delay)
        return (yield from original(self, txn, thread))

    monkeypatch.setattr(type(store), "queue_transaction", slow)
    return queued


def test_stall_clock_starts_when_the_pulls_go_out(monkeypatch):
    env, c, rec, pgid, _ = _pull_in_flight()
    state = rec._pgs[pgid]
    state.pull = None
    _slow_collection(monkeypatch, rec, rec.pull_timeout + 1.0)
    p = env.process(rec._start_pull(BENCH_POOL, pgid, [(2, True, 0)]))
    env.run(until=p)
    # making the collection took longer than the stall timeout, and
    # none of it counts as the stream's silence
    assert state.pull.started == env.now
    assert not state.issuing
    rec._check_pg(BENCH_POOL, pgid)
    assert state.pull is not None and rec.pulls_retried == 0


def test_one_issue_in_flight_per_pg(monkeypatch):
    env, c, rec, pgid, _ = _pull_in_flight()
    osd = rec.osd
    source = next(o for o in osd.osdmap.pg_to_osds(pgid)
                  if o != osd.osd_id)
    rec._pgs.pop(pgid)
    osd.osdmap.record_pg_holder(
        pgid, source, gen=osd.osdmap.holder_gen(pgid, osd.osd_id) + 1)
    queued = _slow_collection(monkeypatch, rec, 3 * rec.pull_timeout)
    env.run(until=env.now + 2 * rec.pull_timeout)
    # the tick issued once; while that issue makes the collection, no
    # tick stalls it or issues again
    assert len(queued) == 1
    assert rec._pgs[pgid].issuing and rec.pulls_retried == 0


def test_push_that_cannot_persist_aborts_the_pull(monkeypatch):
    env, c, rec, pgid, addr = _pull_in_flight()
    before = rec.pulls_retried
    monkeypatch.setattr(type(rec.osd.store), "queue_transaction",
                        _failing_store_call)
    push = MOSDPGPush(tid=1, pool=BENCH_POOL, pg_seed=pgid.seed,
                      object_name="obj-b", length=4096,
                      data=DataBlob(4096))
    push.src = addr
    p = env.process(rec.handle_push(push))
    env.run(until=p)
    _aborted_once(rec, pgid, before)
    assert rec._pgs[pgid].persists == 0


def test_stream_with_a_manifest_hole_is_aborted():
    env, c, rec, pgid, addr = _pull_in_flight()
    before = rec.pulls_retried
    rec._complete_source(pgid, addr, pushed=("obj-a", "obj-b"))
    _aborted_once(rec, pgid, before)


def test_forget_pg_drops_the_record():
    env, c, rec, pgid, _ = _pull_in_flight()
    before = rec.pulls_retried
    state = rec._pgs[pgid]
    rec.forget_pg(pgid)
    assert pgid not in rec._pgs
    assert state.pull is None  # persists still draining complete nothing
    assert rec.pulls_retried == before


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
