"""Tests for repro.qos: mClock queue properties, admission control,
open-loop determinism, and the fuzz-layer hooks.

The property tests drive the mClock band of the op queue directly — a
deterministic arrival schedule against a fixed-capacity consumer — so
the reservation/weight/limit invariants are checked at the layer that
enforces them, independent of messaging bottlenecks upstream.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.strategy import STRATEGY_NAMES, get_strategy
from repro.osd.opqueue import QosSpec, WeightedPriorityQueue, CLIENT_OP
from repro.qos import (
    AdmissionController,
    TenantSpec,
    default_tenants,
    run_qos,
)
from repro.sim import Environment

KB = 1024


# --------------------------------------------------------------- harness
def serve_queue(specs, rates, capacity, duration, seed=0):
    """Drive the mClock band: uniform-spaced arrivals per tenant vs a
    consumer of fixed ``capacity`` ops/sec.  Returns per-tenant served
    counts over ``duration`` simulated seconds."""
    env = Environment()
    q = WeightedPriorityQueue(env, seed=seed)
    for name, spec in specs.items():
        q.set_tenant(name, spec)
    served = {name: 0 for name in specs}

    arrivals = sorted(
        (i / rate, name)
        for name, rate in rates.items()
        for i in range(int(rate * duration))
    )

    def producer():
        for t, name in arrivals:
            if t > env.now:
                yield env.timeout(t - env.now)
            q.enqueue(name, tenant=name)

    def consumer():
        for _ in range(int(capacity * duration)):
            name = yield q.dequeue()
            if env.now >= duration:
                return
            served[name] += 1
            yield env.timeout(1.0 / capacity)

    p1 = env.process(producer(), name="qos-producer")
    p2 = env.process(consumer(), name="qos-consumer")
    env.run(until=p1)
    env.run(until=p2)
    return served


# ------------------------------------------------- mClock properties
@given(
    reservations=st.lists(
        st.floats(min_value=5.0, max_value=25.0), min_size=2, max_size=4
    )
)
@settings(max_examples=15, deadline=None)
def test_reservation_floor_under_saturation(reservations):
    """Every tenant achieves >= ~its reserved rate even when aggregate
    offered load is 2x capacity (sum of reservations <= 80% capacity)."""
    capacity, duration = 100.0, 5.0
    specs = {
        f"t{i}": QosSpec(reservation=r, weight=1.0)
        for i, r in enumerate(reservations)
    }
    rates = {name: 2.0 * capacity / len(specs) for name in specs}
    served = serve_queue(specs, rates, capacity, duration)
    for i, r in enumerate(reservations):
        floor = r * duration
        assert served[f"t{i}"] >= 0.9 * floor, (
            f"t{i} served {served[f't{i}']} < 90% of floor {floor}"
        )


@given(
    weights=st.lists(
        st.floats(min_value=1.0, max_value=8.0), min_size=2, max_size=4
    )
)
@settings(max_examples=15, deadline=None)
def test_weight_proportional_spare(weights):
    """With no reservations, saturated tenants split capacity in
    proportion to their weights."""
    capacity, duration = 100.0, 5.0
    specs = {
        f"t{i}": QosSpec(weight=w) for i, w in enumerate(weights)
    }
    # Every tenant individually offers 1.5x total capacity, so no
    # tenant is demand-limited below its proportional share (a tenant
    # offered less than its share legitimately donates the spare).
    rates = {name: 1.5 * capacity for name in specs}
    served = serve_queue(specs, rates, capacity, duration)
    total_w = sum(weights)
    total_served = sum(served.values())
    for i, w in enumerate(weights):
        expected = total_served * w / total_w
        assert abs(served[f"t{i}"] - expected) <= 0.15 * expected + 2, (
            f"t{i} (weight {w}) served {served[f't{i}']}, "
            f"expected ~{expected:.0f}"
        )


@given(limit=st.floats(min_value=15.0, max_value=40.0))
@settings(max_examples=15, deadline=None)
def test_limit_caps_bursty_tenant(limit):
    """A limited tenant never exceeds its cap even with spare capacity,
    while still receiving its reservation floor."""
    capacity, duration = 200.0, 5.0
    specs = {
        "capped": QosSpec(reservation=10.0, weight=4.0, limit=limit),
        "open": QosSpec(weight=1.0),
    }
    rates = {"capped": 100.0, "open": 300.0}
    served = serve_queue(specs, rates, capacity, duration)
    cap = limit * duration
    assert served["capped"] <= cap * 1.02 + 1, (
        f"capped served {served['capped']} > cap {cap}"
    )
    assert served["capped"] >= 0.9 * 10.0 * duration


def test_untagged_band_unaffected_by_tenant_config():
    """Installing tenant specs without tagging any op leaves the classic
    WPQ dequeue order byte-identical (the golden-digest guarantee)."""

    def drain(configure):
        env = Environment()
        q = WeightedPriorityQueue(env, seed=11)
        if configure:
            q.set_tenant("tx", QosSpec(reservation=50.0, limit=100.0))
        for i in range(40):
            q.enqueue(("c", i), CLIENT_OP)
            q.enqueue(("r", i), 5)
        out = []

        def consumer():
            for _ in range(80):
                out.append((yield q.dequeue()))

        p = env.process(consumer())
        env.run(until=p)
        return out

    assert drain(False) == drain(True)


# ------------------------------------------------- admission control
def test_admission_window_sheds_and_releases():
    adm = AdmissionController()
    adm.set_window("a", 2)
    assert adm.try_acquire("a") and adm.try_acquire("a")
    assert not adm.try_acquire("a")  # window full -> shed
    adm.release("a")
    assert adm.try_acquire("a")
    assert adm.inflight("a") == 2


def test_admission_unmetered_tenant_never_sheds():
    adm = AdmissionController()
    for _ in range(100):
        assert adm.try_acquire("ghost")


def test_admission_release_without_acquire_raises():
    adm = AdmissionController()
    adm.set_window("a", 1)
    with pytest.raises(RuntimeError):
        adm.release("a")


# ------------------------------------------------- specs and defaults
def test_tenant_spec_validation():
    with pytest.raises(ValueError):
        TenantSpec(name="x", rate=0.0)
    with pytest.raises(ValueError):
        TenantSpec(name="x", rate=10.0, arrival="thundering-herd")
    with pytest.raises(ValueError):
        QosSpec(reservation=10.0, limit=5.0)  # limit below reservation


def test_default_tenants_shape():
    specs = default_tenants(8, reservation=25.0, rate=250.0)
    assert len(specs) == 8
    assert len({s.name for s in specs}) == 8
    assert any(s.arrival == "bursty" for s in specs)
    assert specs[-1].qos.limit == pytest.approx(50.0)
    assert sorted({s.qos.weight for s in specs}) == [1.0, 2.0, 3.0, 4.0]


def test_strategy_registry():
    assert set(STRATEGY_NAMES) == {
        "baseline", "tcp-only", "full-osd", "zero-copy"
    }
    for name in STRATEGY_NAMES:
        assert get_strategy(name).name == name
    with pytest.raises(KeyError):
        get_strategy("quantum")


# ------------------------------------------------- full-run behaviour
@pytest.fixture(scope="module")
def small_run():
    tenants = default_tenants(
        4, reservation=10.0, rate=60.0, object_size=16 * KB, window=16
    )
    return tenants, run_qos(
        "full-osd", tenants, seed=3, duration=3.0, prepopulate=8
    )


def test_run_qos_two_runs_identical_fingerprint(small_run):
    tenants, first = small_run
    second = run_qos("full-osd", tenants, seed=3, duration=3.0,
                     prepopulate=8)
    assert first.fingerprint == second.fingerprint
    assert first.fingerprint


def test_run_qos_overload_sheds_and_counts(small_run):
    _, result = small_run
    assert result.overload_factor > 1.0
    assert sum(st_.shed for st_ in result.tenants) > 0
    assert result.queue_stats["tagged_enqueued"] > 0
    offered = sum(st_.offered for st_ in result.tenants)
    accounted = sum(
        st_.completed + st_.completed_late + st_.shed + st_.failed
        for st_ in result.tenants
    )
    assert accounted == offered


def test_run_qos_drains_every_op_in_flight_at_close():
    """16 MB writes at 50/s outlast a 0.5 s window: most are still in
    flight when it closes, and ``run_qos`` returns only once each has
    finished (counted late, not as goodput)."""
    tenant = TenantSpec(name="t0", rate=50.0, sizes=(16 << 20,),
                        window=1024)
    result = run_qos("full-osd", [tenant], seed=0, duration=0.5,
                     prepopulate=0)
    (st_,) = result.tenants
    assert st_.completed_late > st_.completed
    assert st_.offered == (st_.completed + st_.completed_late + st_.shed
                           + st_.failed)


def test_run_qos_rejects_bad_input():
    with pytest.raises(ValueError):
        run_qos("full-osd", [], duration=1.0)
    dup = [TenantSpec(name="t", rate=10.0), TenantSpec(name="t", rate=5.0)]
    with pytest.raises(ValueError):
        run_qos("full-osd", dup, duration=1.0)
    with pytest.raises(KeyError):
        run_qos("warp-drive", duration=1.0)


# ------------------------------------------------- fuzz-layer hooks
def test_scenario_v1_text_parses_with_zero_tenants():
    from repro.fuzz.scenario import scenario_from_text

    v1 = (
        "# repro.fuzz scenario v1\n"
        "mode=baseline\nclients=1\nsize=1048576\nduration=1.0\n"
        "think=0.1\ncrashes=1\npartitions=0\n"
        "chaos_seed=17\nfault_seed=3\nfaults=\n"
    )
    s = scenario_from_text(v1)
    assert s.tenants == 0
    assert s.crashes == 1


def test_scenario_v2_roundtrip_carries_tenants():
    from repro.fuzz.scenario import (
        Scenario,
        scenario_from_text,
        scenario_to_text,
    )

    s = Scenario(clients=2, tenants=2, duration=1.0)
    assert "tenants=2" in scenario_to_text(s)
    assert scenario_from_text(scenario_to_text(s)) == s
    with pytest.raises(ValueError):
        Scenario(tenants=-1)


def test_multitenant_scenario_emits_qos_coverage():
    from repro.fuzz.executor import execute_scenario
    from repro.fuzz.scenario import Scenario

    out = execute_scenario(
        Scenario(clients=2, tenants=1, duration=1.0, think_time=0.05)
    )
    assert not out.violations
    assert "qos.ops_shed" in out.coverage
    assert "qos.tagged_enqueued" in out.coverage

    plain = execute_scenario(
        Scenario(clients=2, tenants=0, duration=1.0, think_time=0.05)
    )
    assert not any(k.startswith("qos.") for k in plain.coverage)
