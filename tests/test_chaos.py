"""Cluster-level chaos tests: OSD crash/restart lifecycle, network
partitions, client resend, monitor failure reports, and the acked-write
durability invariant.

Seeded tests run under the one fixed ``SEED`` below.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ChaosController,
    ChaosIncident,
    DurabilityChecker,
    chaos_profile,
    run_chaos,
)
from repro.cluster import BENCH_POOL, build_baseline_cluster
from repro.faults import FaultPlan
from repro.msgr import MOSDBeacon
from repro.msgr.message import MOSDOpReply
from repro.osd.daemon import OsdDaemon
from repro.rados import OsdState, RadosError
from repro.sim import Environment
from repro.util.bufferlist import DataBlob

SEED = 0

#: ``ChaosReport.fingerprint()`` of the seeded runs below, equal under
#: every ``PYTHONHASHSEED``.  They are pinned, not only compared with a
#: second run: a refactor that moves one has changed behaviour, and
#: re-pinning it needs that change named.
FINGERPRINTS = {
    "end_to_end":
        "fd71eda636557d01040d40507ce213a86739c4bdd511e6b00a0a110318ee356f",
    "doceph":
        "6e0aebc1971b69fef49403f58383c4a88c74d165ed0d8844f09ab9fa050da41e",
    "adversary_replay":
        "c60c4e7bb6d2d081dcfb416df11d66add9820babc3752ade4976b719bf77583e",
    "adversary@0":
        "23e6a75787079f17ff0c86a29f194475beb789a72f99ad94a19760c9f30efe87",
    "adversary@1":
        "d28c9b554dc1ce5833f907b8ee2e449b475580588503a87a92c546b8c8041e28",
    "adversary@2":
        "30beac7fff19a279bb6122b7d1544ba4cffdd26f556f026194aac70e40eff195",
}


def make_cluster(**overrides):
    env = Environment()
    profile = chaos_profile("baseline", **overrides)
    c = build_baseline_cluster(env, profile)
    boot = env.process(c.boot())
    env.run(until=boot)
    return env, c


def settle(env, cluster, timeout=60.0):
    """Run until every OSD is up and every PG clean again."""
    watcher = ChaosController(cluster, crashes=0, partitions=0)
    proc = env.process(watcher.wait_all_clean())
    env.run(until=proc)
    assert proc.value, "cluster did not return to clean in time"
    return watcher


def write_objects(env, cluster, names, size=1 << 16):
    client = cluster.client

    def work():
        out = {}
        for name in names:
            blob = DataBlob(size)
            res = yield from client.write_object(
                BENCH_POOL, name, size, data=blob
            )
            out[name] = (blob, res)
        return out

    p = env.process(work())
    env.run(until=p)
    return p.value


# --------------------------------------------------------------- lifecycle


def test_crash_restart_lifecycle():
    env, c = make_cluster()
    write_objects(env, c, [f"pre-{i}" for i in range(4)])
    osd = c.osds[0]

    osd.crash()
    assert not osd.alive
    assert osd.crashes == 1
    # crash is idempotent while down
    osd.crash()
    assert osd.crashes == 1
    # the monitor notices the silence and marks it down
    env.run(until=env.now + c.mon.down_grace + 2 * c.profile.mon_check_period)
    assert c.osdmap.osds[0].state == OsdState.DOWN_IN
    # a dead daemon drops incoming traffic instead of processing it
    assert osd.messenger.down

    p = env.process(osd.restart())
    env.run(until=p)
    assert osd.alive and osd.restarts == 1
    settle(env, c)
    assert c.osdmap.osds[0].state == OsdState.UP_IN
    # restarted OSD serves reads again: its PGs are clean members
    for pgid in osd.member_pgs:
        assert osd.pgs[pgid].clean


_OP_LOOP_PARKS = ["dequeue", "ctx-switch grant", "ctx-switch hold",
                  "handler charge grant", "handler charge hold"]


@pytest.mark.parametrize("park", _OP_LOOP_PARKS)
def test_op_loop_interrupted_at_any_park_ends_cleanly(park):
    """What ``crash()`` does to each ``tp_osd_tp`` loop, one park at a
    time: the loop ends (finished, not failed) and whatever core it
    was waiting for or holding goes back to the pool."""
    env, c = make_cluster()
    loops = [proc for osd in c.osds for proc in osd._op_procs]

    def where(proc):
        # A recycled Request is one object for the grant and the hold
        # of consecutive charges; armed as a hold it sits on the heap.
        target = proc.target
        return id(target), any(entry[3] is target for entry in env._queue)

    idle = {proc: where(proc) for proc in loops}
    env.process(c.client.write_object(BENCH_POOL, "victim", 1 << 16))
    proc = None
    while proc is None:
        env.step()
        proc = next((p for p in loops if where(p) != idle[p]), None)
    if park == "dequeue":
        proc = next(p for p in loops if p is not proc)  # still idle
    for _ in range(max(_OP_LOOP_PARKS.index(park) - 1, 0)):
        here = where(proc)
        while where(proc) == here:
            env.step()
    osd = next(o for o in c.osds if proc in o._op_procs)
    pool = osd.messenger.stack.cpu._core_pool
    request = proc.target
    if park != "dequeue":
        assert request.resource is pool
        assert where(proc)[1] == park.endswith("hold")

    proc.interrupt("osd crash")
    env.step()  # urgent: delivered before anything else runs
    assert proc.triggered and proc.ok and proc.value is None
    assert request not in pool.users and request not in pool.queue
    for _ in range(10_000):
        if pool.count == 0:
            break
        env.step()
    assert pool.count == 0


def test_crash_preserves_acked_writes():
    env, c = make_cluster()
    written = write_objects(env, c, [f"durable-{i}" for i in range(6)])

    c.osds[SEED % len(c.osds)].crash()
    env.run(until=env.now + 3.0)
    p = env.process(c.osds[SEED % len(c.osds)].restart())
    env.run(until=p)
    settle(env, c)

    checker = DurabilityChecker(c)
    for name, (blob, res) in written.items():
        checker.record(name, 1 << 16, blob, res.version, env.now)
    v = env.process(checker.verify(c.client))
    env.run(until=v)
    assert checker.violations == []
    assert checker.objects_verified == len(written)


def test_monitor_detects_osd_that_never_beaconed():
    """Satellite bugfix: an OSD that crashes before its first beacon
    must still trip the grace timer (last_beacon is seeded at monitor
    construction, not first contact)."""
    env, c = make_cluster()
    # stop every beacon before a single one is processed: crash all OSDs
    # right at boot end, then watch the detector
    target = c.osds[1]
    target.crash()
    assert 1 in c.mon.last_beacon  # seeded at construction
    env.run(until=env.now + c.mon.down_grace + 2 * c.profile.mon_check_period)
    assert c.osdmap.osds[1].state != OsdState.UP_IN


def test_down_out_rejoin_and_deterministic_remap():
    env, c = make_cluster(mon_out_interval=4.0)
    osd = c.osds[2]
    osd.crash()
    env.run(until=env.now + c.mon.down_grace + c.mon.out_interval + 2.0)
    assert c.osdmap.osds[2].state == OsdState.DOWN_OUT
    remap = {
        str(pgid): c.osdmap.pg_to_osds(pgid)
        for pgid in c.osdmap.all_pgs(BENCH_POOL)
    }
    # the out OSD serves nothing; survivors carry full acting sets
    for acting in remap.values():
        assert 2 not in acting
        assert len(acting) == 2

    # an identical cluster (same profile, same seeds) remaps identically
    env2, c2 = make_cluster(mon_out_interval=4.0)
    c2.osds[2].crash()
    env2.run(until=env2.now + c2.mon.down_grace + c2.mon.out_interval + 2.0)
    remap2 = {
        str(pgid): c2.osdmap.pg_to_osds(pgid)
        for pgid in c2.osdmap.all_pgs(BENCH_POOL)
    }
    assert remap == remap2

    p = env.process(osd.restart())
    env.run(until=p)
    settle(env, c)
    assert c.osdmap.osds[2].state == OsdState.UP_IN
    assert osd.member_pgs  # took PGs back after rejoin


# --------------------------------------------------------------- partitions


def test_partition_client_resend_completes():
    env, c = make_cluster()
    client = c.client

    # pick an object whose primary is osd.0, then island node0
    oid = next(
        f"part-{i}" for i in range(1000)
        if c.osdmap.pg_primary(c.osdmap.object_to_pg(BENCH_POOL, f"part-{i}"))
        == 0
    )
    addr = c.osdmap.address_of(0)
    c.network.partition({addr}, env.now, env.now + 6.0)

    def work():
        blob = DataBlob(1 << 16)
        res = yield from client.write_object(
            BENCH_POOL, oid, 1 << 16, data=blob
        )
        return blob, res

    p = env.process(work())
    env.run(until=p)
    blob, res = p.value
    assert res.result == 0
    # the op crossed the partition: timeouts + resend to the new primary
    assert client.timeouts > 0
    assert client.resends > 0
    assert c.network.partition_drops > 0
    # bounded: no hang on the dead link
    n = c.profile.client_max_attempts
    bound = n * 2 * c.profile.client_op_timeout + \
        c.profile.client_retry_backoff * n * (n + 1) / 2 + 5.0
    assert res.latency <= bound

    settle(env, c)
    checker = DurabilityChecker(c)
    checker.record(oid, 1 << 16, blob, res.version, env.now)
    v = env.process(checker.verify(client))
    env.run(until=v)
    assert checker.violations == []


def test_heartbeat_dynamic_peer_refresh():
    env, c = make_cluster()
    env.run(until=env.now + 2.0)  # heartbeats establish
    addr0 = c.osdmap.address_of(0)
    hb = c.osds[1].heartbeat
    assert addr0 in hb.peer_addrs

    c.osds[0].crash()
    env.run(until=env.now + c.mon.down_grace + 3.0)
    # osd.0 is down in the map; live agents stop pinging it
    assert not c.osdmap.is_up(0)
    assert addr0 not in hb.peer_addrs

    p = env.process(c.osds[0].restart())
    env.run(until=p)
    settle(env, c)
    env.run(until=env.now + 2.0)
    assert addr0 in hb.peer_addrs


def test_failure_reports_mark_down_before_grace():
    """Quorum of peer reports marks an OSD down without waiting out the
    beacon grace, and its own beacons cannot flap it back up while the
    reports stand."""
    env, c = make_cluster(mon_down_grace=30.0)  # silence alone won't fire
    mon = c.mon
    env.run(until=env.now + 1.0)

    def report(reporter, target):
        mon._handle_beacon(
            MOSDBeacon(src=c.osdmap.address_of(reporter),
                       osd_id=reporter, failed_peers=(target,))
        )

    report(1, 0)
    env.run(until=env.now + 2 * c.profile.mon_check_period)
    assert c.osdmap.is_up(0)  # one reporter < quorum of 2

    report(1, 0)
    report(2, 0)
    env.run(until=env.now + 2 * c.profile.mon_check_period)
    assert not c.osdmap.is_up(0)
    assert mon.report_down_events >= 1

    # anti-flap: the target's own beacon does not mark it up while the
    # report quorum is live
    mon._handle_beacon(MOSDBeacon(src=c.osdmap.address_of(0), osd_id=0))
    assert not c.osdmap.is_up(0)

    # once the reports expire, the next beacon rejoins it
    env.run(until=env.now + mon.down_grace + 1.0)
    mon._handle_beacon(MOSDBeacon(src=c.osdmap.address_of(0), osd_id=0))
    assert c.osdmap.is_up(0)


# --------------------------------------------------------------- the checker


def test_durability_checker_catches_broken_ack_path():
    """A deliberately-broken OSD that acks writes without committing
    them must produce violations."""
    env, c = make_cluster()

    # OsdDaemon is slotted, so the lying write path is installed on the
    # class (every OSD in this fresh cluster lies) and restored after.
    def lying_write(self, msg, thread):
        yield from thread.charge(self.config.reply_cpu)
        self.messenger.send_message(
            MOSDOpReply(tid=msg.tid, result=0, version=1), msg.src
        )
        release = getattr(msg, "throttle_release", None)
        if release is not None:
            release()

    original = OsdDaemon._handle_client_write
    OsdDaemon._handle_client_write = lying_write
    try:
        checker = DurabilityChecker(c)
        written = write_objects(env, c, ["lie-0", "lie-1"])
        for name, (blob, res) in written.items():
            checker.record(name, 1 << 16, blob, res.version, env.now)
        v = env.process(checker.verify(c.client))
        env.run(until=v)
    finally:
        OsdDaemon._handle_client_write = original
    assert checker.violations  # every acked write is missing
    assert any("lie-0" in s for s in checker.violations)


def test_durability_checker_clean_run_passes():
    env, c = make_cluster()
    checker = DurabilityChecker(c)
    written = write_objects(env, c, [f"clean-{i}" for i in range(3)])
    for name, (blob, res) in written.items():
        checker.record(name, 1 << 16, blob, res.version, env.now)
    v = env.process(checker.verify(c.client))
    env.run(until=v)
    assert checker.violations == []
    assert checker.replicas_compared >= 2 * len(written)


# --------------------------------------------------------------- end to end


def test_chaos_end_to_end_replay_identical():
    """The acceptance run: >=3 crash/restart events plus a partition,
    zero durability violations, no hung client ops, and a byte-identical
    fingerprint across two executions with the same seed."""
    reports = [
        run_chaos(mode="baseline", seed=SEED, duration=4.0, clients=2,
                  crashes=3, partitions=1)
        for _ in range(2)
    ]
    rep = reports[0]
    kinds = [kind for kind, _, _ in rep.incidents]
    assert kinds.count("crash") == 3
    assert kinds.count("restart") == 3
    assert kinds.count("partition") == 1
    assert rep.writes_acked > 0
    assert rep.violations == []
    assert rep.settle_timeouts == 0
    assert rep.max_op_latency <= rep.latency_bound
    assert rep.passed
    assert rep.health is not None
    assert rep.health["osds"]["crashes"] == 3
    assert rep.health["pgs"]["degraded"] == 0
    assert rep.fingerprint() == reports[1].fingerprint()
    assert rep.fingerprint() == FINGERPRINTS["end_to_end"]


def test_chaos_doceph_mode():
    """The DPU deployment survives a daemon crash too: the host-side
    store outlives the DPU OSD and resync runs over the proxy."""
    rep = run_chaos(mode="doceph", seed=SEED, duration=2.0, clients=1,
                    crashes=1, partitions=0)
    assert rep.writes_acked > 0
    assert rep.violations == []
    assert rep.settle_timeouts == 0
    assert rep.fingerprint() == FINGERPRINTS["doceph"]


# --------------------------------------------------------- regressions


def test_verify_counts_only_clean_objects():
    """objects_verified must not be inflated by objects that violated:
    a ghost record (acked but never written) adds violations, not a
    verified count."""
    env, c = make_cluster()
    written = write_objects(env, c, ["real-0", "real-1"])
    checker = DurabilityChecker(c)
    for name, (blob, res) in written.items():
        checker.record(name, 1 << 16, blob, res.version, env.now)
    checker.record("ghost", 1 << 16, DataBlob(1 << 16), 1, env.now)
    v = env.process(checker.verify(c.client))
    env.run(until=v)
    assert any("ghost" in violation for violation in checker.violations)
    assert checker.objects_verified == 2  # the ghost never counts


def test_recovery_sample_only_on_clean_settle():
    """A timed-out settle is not a recovery sample; only a settle that
    actually reached clean appends to recovery_to_clean."""
    env, c = make_cluster()
    controller = ChaosController(c, crashes=0, partitions=0)
    incident = ChaosIncident(
        kind="crash", target=0, duration=0.1, gap=0.1
    )

    def fake_wait(result):
        def gen():
            yield env.timeout(0.0)
            return result
        return gen

    controller.wait_all_clean = fake_wait(False)
    p = env.process(controller._run_crash(incident))
    env.run(until=p)
    assert controller.recovery_to_clean == []

    controller.wait_all_clean = fake_wait(True)
    p = env.process(controller._run_crash(incident))
    env.run(until=p)
    assert len(controller.recovery_to_clean) == 1


def test_no_acting_set_bounded_without_op_timeout():
    """With op_timeout=None an op that finds no acting set must still
    fail after max_attempts instead of waiting forever."""
    env, c = make_cluster()
    client = c.client
    client.op_timeout = None  # the timeout-less client must not hang
    client.max_attempts = 3
    # monitor-side view: every OSD down → pg_primary raises
    for osd in c.osds:
        osd.crash()
        c.osdmap.mark_down(osd.osd_id)

    def work():
        with pytest.raises(RadosError) as exc_info:
            yield from client.stat_object(BENCH_POOL, "whatever")
        return exc_info.value

    p = env.process(work())
    env.run(until=p)
    assert p.value.result == -110
    assert "no acting set" in str(p.value)


def test_regression_partial_holder_upgrade_race():
    """The shrunk fuzz scenario that exposed the data-loss chain:
    interleaved crashes + a partition made an OSD promote itself to a
    full holder before the restarted peer merged interim writes back,
    and a later resync discarded the only copy.  Must now verify clean
    (see corpus/crash-missing_replica-missing-*.plan)."""
    from repro.faults import FaultPlan, parse_fault_specs

    rep = run_chaos(
        mode="baseline", seed=392, duration=0.5, clients=2,
        object_size=65536, crashes=2, partitions=0,
        fault_plan=FaultPlan(
            seed=2030,
            specs=parse_fault_specs(
                "net:partition,window=1.935-4.683,nodes=node1"
            ),
        ),
        think_time=0.2,
    )
    assert rep.violations == []
    assert rep.settle_timeouts == 0


@settings(max_examples=3, deadline=None)
@given(
    crashes=st.integers(min_value=0, max_value=2),
    partitions=st.integers(min_value=0, max_value=1),
    seed=st.integers(min_value=0, max_value=31),
)
def test_chaos_random_schedules_never_lose_acked_writes(
    crashes, partitions, seed
):
    rep = run_chaos(mode="baseline", seed=seed ^ SEED, duration=1.5,
                    clients=1, crashes=crashes, partitions=partitions)
    assert rep.violations == []
    assert rep.settle_timeouts == 0
    assert rep.max_op_latency <= rep.latency_bound


# --------------------------------------------------------- wire adversary


ADVERSARY_FAULTS = (
    "net:corrupt,p=0.15;net:dup,p=0.1;net:reorder,p=0.1;"
    "net:jitter,p=0.1,delay=0.002;net:truncate,p=0.05"
)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_chaos_survives_wire_adversary(seed):
    """The acceptance oracle for the wire-integrity layer: with every
    adversary kind firing at aggressive rates on top of a crash and a
    partition, no acked write is lost and no corrupted payload is ever
    dispatched — and the wire counters prove the adversary actually
    hit (detections, suppressions, retransmissions all nonzero)."""
    plan = FaultPlan.parse(ADVERSARY_FAULTS, seed=seed)
    rep = run_chaos(mode="baseline", seed=seed, duration=4.0, clients=2,
                    crashes=1, partitions=1, fault_plan=plan)
    assert rep.writes_acked > 0
    assert rep.violations == []
    assert rep.settle_timeouts == 0
    assert rep.passed
    assert rep.wire_incidents.get("crc_rejected", 0) > 0
    assert rep.wire_incidents.get("dup_suppressed", 0) > 0
    assert rep.wire_incidents.get("retransmit", 0) > 0
    assert rep.fingerprint() == FINGERPRINTS[f"adversary@{seed}"]


def test_chaos_wire_adversary_replay_identical():
    reports = [
        run_chaos(mode="baseline", seed=SEED, duration=2.0, clients=1,
                  crashes=1, partitions=0,
                  fault_plan=FaultPlan.parse(ADVERSARY_FAULTS, seed=SEED))
        for _ in range(2)
    ]
    assert reports[0].fingerprint() == reports[1].fingerprint()
    assert reports[0].fingerprint() == FINGERPRINTS["adversary_replay"]
    assert reports[0].wire_incidents == reports[1].wire_incidents
