"""Edge-case tests for the DES kernel: failure propagation through
conditions, trigger helpers, pre-triggered events, defused errors."""

import pytest

from repro.sim import AllOf, AnyOf, Environment, SimulationError


def test_condition_propagates_child_failure():
    env = Environment()

    def failer(env):
        yield env.timeout(1)
        raise RuntimeError("child died")

    def waiter(env):
        p = env.process(failer(env))
        t = env.timeout(10)
        try:
            yield AllOf(env, [p, t])
        except RuntimeError as exc:
            return f"caught: {exc}"

    w = env.process(waiter(env))
    env.run()
    assert w.value == "caught: child died"


def test_any_of_with_failure_first():
    env = Environment()

    def failer(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def waiter(env):
        p = env.process(failer(env))
        t = env.timeout(5)
        try:
            yield AnyOf(env, [p, t])
        except ValueError:
            return env.now

    w = env.process(waiter(env))
    env.run()
    assert w.value == 1


def test_trigger_copies_state():
    env = Environment()
    src = env.event()
    dst = env.event()
    src.callbacks.append(dst.trigger)
    src.succeed("payload")
    env.run()
    assert dst.triggered and dst.ok
    assert dst.value == "payload"


def test_trigger_on_already_triggered_is_noop():
    env = Environment()
    src = env.event()
    dst = env.event()
    dst.succeed("original")
    src.callbacks.append(dst.trigger)
    src.succeed("other")
    env.run()
    assert dst.value == "original"


def test_yield_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed("early")
    env.run()  # process the event fully
    assert ev.processed

    def waiter(env):
        v = yield ev
        return v

    w = env.process(waiter(env))
    env.run()
    assert w.value == "early"


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed(13)
    env.run()
    assert env.run(until=ev) == 13


def test_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(AttributeError):
        _ = ev.value
    assert ev.exception is None


def test_failed_event_exception_property():
    env = Environment()
    ev = env.event()
    exc = RuntimeError("x")
    ev.fail(exc)
    ev.defused = True
    env.run()
    assert ev.exception is exc
    assert not ev.ok


def test_undefused_failure_surfaces_at_loop():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("nobody caught me"))
    with pytest.raises(RuntimeError, match="nobody caught me"):
        env.run()


def test_interrupt_while_waiting_on_resource():
    from repro.sim import Interrupt, Resource

    env = Environment()
    res = Resource(env, capacity=1)
    log = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(100)

    def impatient(env):
        req = res.request()
        try:
            yield req
        except Interrupt:
            res.finish(req)
            log.append(("gave up", env.now))

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    env.process(holder(env))
    victim = env.process(impatient(env))
    env.process(interrupter(env, victim))
    env.run(until=10)
    assert log == [("gave up", 2)]
    assert len(res.queue) == 0  # the cancelled request left the queue


def test_nested_process_failure_chain():
    env = Environment()

    def level2(env):
        yield env.timeout(1)
        raise KeyError("deep")

    def level1(env):
        yield env.process(level2(env))

    def level0(env):
        try:
            yield env.process(level1(env))
        except KeyError as exc:
            return f"surfaced {exc}"

    p = env.process(level0(env))
    env.run()
    assert p.value == "surfaced 'deep'"


def test_schedule_in_past_rejected():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        env.schedule(ev, delay=-1)


def test_nan_delay_rejected_at_every_entry_point():
    """``nan < 0`` and ``now + nan > now`` are both false, so a NaN delay
    used to pass the negative check and be filed as due now."""
    from repro.hw.cpu import CpuComplex, SimThread
    from repro.sim import Resource

    nan = float("nan")
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(nan)
    with pytest.raises(SimulationError):
        env.schedule(env.event(), delay=nan)
    req = Resource(env).request()
    env.step()
    with pytest.raises(SimulationError):
        req.hold(nan)
    assert env.events_scheduled == 1 and env.peek() == float("inf")

    # The way it used to bite: NaN work poisoned the CPU ledger silently.
    cpu = CpuComplex(env, "cpu", cores=1)
    env.process(SimThread(cpu, "t", "cat").charge(nan))
    with pytest.raises(SimulationError):
        env.run()
    assert cpu.accounting.total_busy() == 0.0 and not cpu._core_pool.users


INF = float("inf")


def test_infinite_timeout_rejected():
    """An infinite delay used to be filed, and a drained ``run()`` then
    wrote its missing horizon into the clock: ``env.now`` became
    ``None``.  A "never" is an untriggered ``env.event()``."""
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(INF)
    assert env.events_scheduled == 0 and env.peek() == INF


def test_infinite_schedule_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.schedule(env.event(), delay=INF)
    assert env.events_scheduled == 0 and env.peek() == INF


def test_infinite_hold_rejected():
    from repro.sim import Resource

    env = Environment()
    req = Resource(env).request()
    env.step()
    with pytest.raises(SimulationError):
        req.hold(INF)
    assert env.events_scheduled == 1 and env.peek() == INF
    assert req.hold(1.0) is req  # the refusal left it unarmed


def test_drained_run_leaves_a_float_clock():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(INF)
    env.timeout(2.0)  # on the heap
    env.run()
    assert type(env.now) is float and env.now == 2.0
    env.timeout(1.0)
    env.run(until=5)
    assert type(env.now) is float and env.now == 5.0
