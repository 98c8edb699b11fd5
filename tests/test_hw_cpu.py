"""Tests for the CPU complex and thread accounting model."""

import pytest

from repro.hw import CpuComplex, SimThread
from repro.sim import Environment, Interrupt, SimulationError


def make_cpu(cores=2, perf=1.0, ctx_cost=0.0):
    env = Environment()
    return env, CpuComplex(env, "test", cores=cores, perf=perf,
                           ctx_switch_cost=ctx_cost)


def test_execute_accounts_busy_time():
    env, cpu = make_cpu()
    t = SimThread(cpu, "worker-0", "msgr-worker")

    def proc():
        yield from t.charge(0.5)

    env.process(proc())
    env.run()
    assert cpu.accounting.busy_by_category == {
        "msgr-worker": pytest.approx(0.5)}
    assert env.now == pytest.approx(0.5)


def test_perf_factor_scales_wall_time():
    env, cpu = make_cpu(perf=0.5)
    t = SimThread(cpu, "arm-0", "msgr-worker")

    def proc():
        yield from t.charge(1.0)

    env.process(proc())
    env.run()
    # 1 reference-second of work takes 2 wall seconds on a 0.5x core
    assert env.now == pytest.approx(2.0)
    assert sum(cpu.accounting.busy_by_category.values()) == pytest.approx(2.0)


def test_core_contention_queues_work():
    env, cpu = make_cpu(cores=1)
    a = SimThread(cpu, "a", "cat")
    b = SimThread(cpu, "b", "cat")
    finish = {}

    def proc(t, name):
        yield from t.charge(1.0)
        finish[name] = t.env.now

    env.process(proc(a, "a"))
    env.process(proc(b, "b"))
    env.run()
    assert finish == {"a": 1.0, "b": 2.0}


def test_interrupted_charge_frees_the_core_at_interrupt_time():
    """The core's request times its own hold (``Request.hold``); an
    interrupt mid-charge must still release it at once, account nothing
    for the abandoned work, and leave the stale hold harmless."""
    env, cpu = make_cpu(cores=1)
    a = SimThread(cpu, "a", "cat")
    b = SimThread(cpu, "b", "cat")
    log = []

    def proc(t, work):
        try:
            yield from t.charge(work)
            log.append((t.name, "done", env.now))
        except Interrupt:
            log.append((t.name, "interrupted", env.now))

    victim = env.process(proc(a, 10.0))
    env.process(proc(b, 1.0))

    def interrupter():
        yield env.timeout(2.0)
        victim.interrupt()

    env.process(interrupter())
    env.run()
    assert log == [("a", "interrupted", 2.0), ("b", "done", 3.0)]
    assert cpu.accounting.busy_by_category == {"cat": 1.0}
    assert env.now == 10.0  # the stale hold, popped with nobody parked
    assert not cpu._core_pool.users and not cpu._core_pool.queue


def test_parallel_cores_run_concurrently():
    env, cpu = make_cpu(cores=2)
    finish = {}

    def proc(name):
        t = SimThread(cpu, name, "cat")
        yield from t.charge(1.0)
        finish[name] = env.now

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert finish == {"a": 1.0, "b": 1.0}


def test_zero_work_is_free():
    env, cpu = make_cpu()
    t = SimThread(cpu, "x", "cat")

    def proc():
        yield from t.charge(0.0)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0.0
    assert sum(cpu.accounting.busy_by_category.values()) == 0.0


def test_negative_work_rejected():
    env, cpu = make_cpu()
    t = SimThread(cpu, "x", "cat")

    def proc():
        yield from t.charge(-1.0)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_ctx_switch_counting_and_cost():
    env, cpu = make_cpu(ctx_cost=1e-3)
    t = SimThread(cpu, "x", "msgr-worker")

    def proc():
        yield from t.ctx_switch(5)

    env.process(proc())
    env.run()
    assert cpu.accounting.ctx_by_category["msgr-worker"] == 5
    assert sum(cpu.accounting.busy_by_category.values()) == pytest.approx(5e-3)


def test_utilization_and_busy_cores():
    """Utilization as the paper plots it: average busy cores."""
    env, cpu = make_cpu(cores=4)
    t = SimThread(cpu, "x", "cat")

    def proc():
        yield from t.charge(2.0)
        yield env.timeout(2.0)  # idle

    env.process(proc())
    env.run()
    assert env.now == pytest.approx(4.0)
    assert cpu.busy_cores() == pytest.approx(0.5)


def test_utilization_zero_elapsed():
    env, cpu = make_cpu()
    assert cpu.busy_cores() == 0.0


def test_snapshot_diff():
    env, cpu = make_cpu()
    t = SimThread(cpu, "x", "cat")

    def proc():
        yield from t.charge(1.0)
        snap1 = cpu.accounting.snapshot(env.now)
        yield from t.charge(0.5)
        snap2 = cpu.accounting.snapshot(env.now)
        delta = snap2.busy_since(snap1)
        assert delta["cat"] == pytest.approx(0.5)

    env.process(proc())
    env.run()


def test_invalid_construction():
    env = Environment()
    with pytest.raises(SimulationError):
        CpuComplex(env, "bad", cores=0)
    with pytest.raises(SimulationError):
        CpuComplex(env, "bad", cores=1, perf=0)


def test_multi_category_accounting():
    env, cpu = make_cpu(cores=4)
    msgr = SimThread(cpu, "msgr-worker-0", "msgr-worker")
    bstore = SimThread(cpu, "bstore_kv", "bstore")

    def proc(t, amount):
        yield from t.charge(amount)

    env.process(proc(msgr, 0.8))
    env.process(proc(bstore, 0.2))
    env.run()
    acct = cpu.accounting
    assert acct.busy_by_category["msgr-worker"] == pytest.approx(0.8)
    assert acct.busy_by_category["bstore"] == pytest.approx(0.2)
    assert sum(acct.busy_by_category.values()) == pytest.approx(1.0)
