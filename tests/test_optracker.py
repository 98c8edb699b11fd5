"""Tests for the OpTracker (per-op stage tracing)."""

import pytest

from repro.cluster import BENCH_POOL, build_baseline_cluster, build_doceph_cluster
from repro.osd import OpTracker
from repro.sim import Environment


# ---------------------------------------------------------------- unit


def test_create_mark_complete():
    t = OpTracker()
    op = t.create("osd_op(WRITE p/o)", 1.0)
    assert op.events == [(1.0, "initiated")]
    assert op.op_id in t.in_flight
    op.mark(2.0, "queued_for_pg")
    op.mark(3.5, "commit_received")
    t.complete(op, 4.0)
    assert op.completed_at == 4.0
    assert op.duration == pytest.approx(3.0)
    assert op.op_id not in t.in_flight
    assert t.historic == [op]


def test_stage_durations():
    t = OpTracker()
    op = t.create("x", 0.0)
    op.mark(1.0, "a")
    op.mark(3.0, "b")
    t.complete(op, 6.0)
    stages = dict(op.stage_durations())
    assert stages["initiated"] == pytest.approx(1.0)
    assert stages["a"] == pytest.approx(2.0)
    assert stages["b"] == pytest.approx(3.0)
    assert op.stage_time("a") == pytest.approx(2.0)
    assert op.stage_time("missing") == 0.0


def test_stage_durations_in_flight_uses_now():
    t = OpTracker()
    op = t.create("x", 0.0)
    op.mark(1.0, "a")
    # still in flight: without `now` the ongoing stage reports zero
    assert dict(op.stage_durations())["a"] == pytest.approx(0.0)
    # with `now` the final stage reports its elapsed time so far
    stages = dict(op.stage_durations(now=4.0))
    assert stages["initiated"] == pytest.approx(1.0)
    assert stages["a"] == pytest.approx(3.0)
    assert op.stage_time("a", now=4.0) == pytest.approx(3.0)
    # a `now` before the last mark never yields a negative duration
    assert dict(op.stage_durations(now=0.5))["a"] == 0.0
    # completion takes precedence over `now`
    t.complete(op, 6.0)
    assert dict(op.stage_durations(now=99.0))["a"] == pytest.approx(5.0)


def test_history_ring_bounded():
    t = OpTracker(history_size=3)
    for i in range(10):
        op = t.create(f"op{i}", float(i))
        t.complete(op, float(i) + 0.5)
    assert len(t.historic) == 3
    assert [o.description for o in t.historic] == ["op7", "op8", "op9"]
    assert t.ops_tracked == 10



def test_invalid_history_size():
    with pytest.raises(ValueError):
        OpTracker(history_size=0)


def test_duration_none_while_in_flight():
    t = OpTracker()
    op = t.create("x", 0.0)
    assert op.duration is None
    assert list(t.in_flight.values()) == [op]
    assert t.dump_historic() == []


# ---------------------------------------------------------------- integrated


@pytest.mark.parametrize("builder", [build_baseline_cluster,
                                     build_doceph_cluster])
def test_tracked_write_records_pipeline_stages(builder):
    env = Environment()
    c = builder(env)
    boot = env.process(c.boot())
    env.run(until=boot)
    trackers = [osd.enable_op_tracking() for osd in c.osds]

    def work():
        for i in range(4):
            yield from c.client.write_object(BENCH_POOL, f"t-{i}", 2 << 20)

    p = env.process(work())
    env.run(until=p)

    historic = [op for t in trackers for op in t.dump_historic()]
    assert len(historic) == 4
    for op in historic:
        stages = [s for _, s in op.events]
        assert stages[0] == "initiated"
        assert "queued_for_pg" in stages
        assert "reached_pg" in stages
        assert "sub_op_sent" in stages  # replication 2
        assert "commit_received" in stages
        # timestamps are monotone
        times = [t for t, _ in op.events]
        assert times == sorted(times)
        assert op.duration is not None and op.duration > 0
        # the sum of stage durations equals the total
        total = sum(d for _, d in op.stage_durations())
        assert total == pytest.approx(op.duration)


def test_untracked_by_default():
    env = Environment()
    c = build_baseline_cluster(env)
    boot = env.process(c.boot())
    env.run(until=boot)

    def work():
        yield from c.client.write_object(BENCH_POOL, "x", 1 << 20)

    p = env.process(work())
    env.run(until=p)
    for osd in c.osds:
        assert osd.tracker is None
