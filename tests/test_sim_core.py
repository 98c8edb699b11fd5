"""Unit tests for the discrete-event simulation kernel."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Environment,
    Interrupt,
    SimulationError,
    StopSimulation,
    Timeout,
)


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_clock_custom_start():
    env = Environment(initial_time=10.0)
    assert env.now == 10.0


def test_timeout_advances_clock():
    env = Environment()

    def proc(env):
        yield env.timeout(5)
        return env.now

    p = env.process(proc(env))
    env.run()
    assert p.value == 5


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(-1)


def test_timeout_carries_value():
    env = Environment()

    def proc(env):
        v = yield env.timeout(1, value="hello")
        return v

    p = env.process(proc(env))
    env.run()
    assert p.value == "hello"


def test_run_until_time():
    env = Environment()
    log = []

    def ticker(env):
        while True:
            yield env.timeout(1)
            log.append(env.now)

    env.process(ticker(env))
    env.run(until=3.5)
    assert log == [1, 2, 3]
    assert env.now == 3.5


def test_run_until_event_returns_value():
    env = Environment()

    def proc(env):
        yield env.timeout(2)
        return 42

    p = env.process(proc(env))
    assert env.run(until=p) == 42


def _late_waiter_model(env):
    """The until-event fires at t=1; a waiter parks on it at t=0.5,
    i.e. *behind* the stop callback ``run(until=ev)`` appended at t=0."""
    ev = env.event()
    woken = []

    def trigger(env):
        yield env.timeout(1)
        ev.succeed("v")

    def waiter(env, tag):
        yield env.timeout(0.5)
        woken.append((tag, (yield ev), env.now))

    env.process(trigger(env))
    env.process(waiter(env, "a"))
    env.process(waiter(env, "b"))
    return ev, woken


def test_run_until_event_wakes_waiters_parked_after_the_call():
    env = Environment()
    ev, woken = _late_waiter_model(env)
    assert env.run(until=ev) == "v"
    assert ev.processed and env.now == 1
    # resumed inside the until-event's own dispatch, not a tick later
    assert woken == [("a", "v", 1), ("b", "v", 1)]
    env.run()
    assert len(woken) == 2


def test_step_driven_until_loop_wakes_waiters_parked_after_the_stop():
    """The same protocol driven by hand: append the stop callback, catch
    it around ``step()`` (tests/helpers.py and every until-loop outside
    ``run`` are written this way)."""
    env = Environment()
    ev, woken = _late_waiter_model(env)
    ev.callbacks.append(StopSimulation.callback)
    with pytest.raises(StopSimulation) as stop:
        while True:
            env.step()
    assert stop.value.args == ("v",)
    assert woken == [("a", "v", 1), ("b", "v", 1)]


def test_run_until_event_asked_twice_stops_once_and_wakes_everyone():
    env = Environment()
    ev, woken = _late_waiter_model(env)
    env.run(until=0.75)  # both waiters are parked
    # as an earlier, abandoned run(until=ev) would have left it: one
    # stop callback ahead of the waiters, and run() appends another
    ev.callbacks.insert(0, StopSimulation.callback)
    assert env.run(until=ev) == "v"
    assert [tag for tag, _, _ in woken] == ["a", "b"]


def test_stop_raised_by_a_model_callback_abandons_the_dispatch():
    """Unchanged behaviour: only the until-protocol's own stop callback
    has the rest of the event's callbacks finished for it."""
    env = Environment()
    ev = env.event()
    seen = []

    def bail(event):
        raise StopSimulation("mine")

    ev.callbacks.extend([bail, seen.append])
    ev.succeed()
    assert env.run() == "mine"
    assert seen == [] and ev.processed


def test_run_until_past_raises():
    env = Environment(initial_time=5)
    with pytest.raises(SimulationError):
        env.run(until=1)


def test_processes_interleave_deterministically():
    env = Environment()
    log = []

    def worker(env, name, period):
        while env.now < 6:
            yield env.timeout(period)
            log.append((env.now, name))

    env.process(worker(env, "a", 2))
    env.process(worker(env, "b", 3))
    env.run(until=7)
    # At t=6 both fire; "b" scheduled its timeout first (at t=3, vs t=4
    # for "a"), so scheduling order puts it first.
    assert log == [(2, "a"), (3, "b"), (4, "a"), (6, "b"), (6, "a")]


def test_same_time_fifo_ordering():
    """Events at the same timestamp are processed in scheduling order."""
    env = Environment()
    log = []

    def proc(env, name):
        yield env.timeout(1)
        log.append(name)

    for name in "abcde":
        env.process(proc(env, name))
    env.run()
    assert log == list("abcde")


def test_event_succeed_and_value():
    env = Environment()
    ev = env.event()
    assert not ev.triggered
    ev.succeed(7)
    assert ev.triggered
    assert ev.value == 7


def test_event_double_trigger_rejected():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)
    with pytest.raises(SimulationError):
        ev.fail(RuntimeError("x"))


def test_event_fail_requires_exception():
    env = Environment()
    with pytest.raises(SimulationError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_process_waits_for_event():
    env = Environment()
    ev = env.event()

    def waiter(env):
        v = yield ev
        return v

    def firer(env):
        yield env.timeout(3)
        ev.succeed("done")

    w = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert w.value == "done"


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()

    def waiter(env):
        try:
            yield ev
        except RuntimeError as exc:
            return f"caught {exc}"

    def firer(env):
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    w = env.process(waiter(env))
    env.process(firer(env))
    env.run()
    assert w.value == "caught boom"


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("model bug")

    env.process(bad(env))
    with pytest.raises(ValueError, match="model bug"):
        env.run()


def test_yield_non_event_is_error():
    env = Environment()

    def bad(env):
        yield 42

    env.process(bad(env))
    with pytest.raises(SimulationError):
        env.run()


def test_process_return_value_via_yield():
    env = Environment()

    def child(env):
        yield env.timeout(2)
        return "child-result"

    def parent(env):
        result = yield env.process(child(env))
        return result

    p = env.process(parent(env))
    env.run()
    assert p.value == "child-result"


def test_interrupt_delivery():
    env = Environment()

    def sleeper(env):
        try:
            yield env.timeout(100)
            return "slept"
        except Interrupt as intr:
            return ("interrupted", intr.cause, env.now)

    def interrupter(env, victim):
        yield env.timeout(5)
        victim.interrupt(cause="wake up")

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == ("interrupted", "wake up", 5)


def test_interrupt_self_rejected():
    env = Environment()

    def proc(env):
        env.active_process.interrupt()
        yield env.timeout(1)

    env.process(proc(env))
    with pytest.raises(SimulationError):
        env.run()


def test_interrupt_terminated_process_rejected():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_all_of_waits_for_all():
    env = Environment()

    def proc(env, d):
        yield env.timeout(d)
        return d

    def waiter(env):
        a = env.process(proc(env, 2))
        b = env.process(proc(env, 5))
        results = yield AllOf(env, [a, b])
        return (env.now, list(results.values()))

    w = env.process(waiter(env))
    env.run()
    assert w.value == (5, [2, 5])


def test_any_of_waits_for_first():
    env = Environment()

    def proc(env, d):
        yield env.timeout(d)
        return d

    def waiter(env):
        a = env.process(proc(env, 2))
        b = env.process(proc(env, 5))
        yield AnyOf(env, [a, b])
        return env.now

    w = env.process(waiter(env))
    env.run()
    assert w.value == 2


def test_any_of_lets_go_of_the_children_it_no_longer_waits_for():
    """The RPC watchdog shape: the reply wins, and the pending timeout
    stops pinning the condition until its deadline."""
    env = Environment()
    reply, watchdog = env.event(), env.timeout(10.0)
    late = env.event()
    cond = AnyOf(env, [reply, watchdog, late])
    assert len(watchdog.callbacks) == 1
    reply.succeed("pong")
    env.step()  # the reply's dispatch triggers the condition
    assert cond.triggered and cond.value == {reply: "pong"}
    assert watchdog.callbacks == [] and late.callbacks == []
    # Built already decided, a condition attaches to nothing after that.
    done = AnyOf(env, [reply, watchdog])
    assert done.triggered and watchdog.callbacks == []
    env.run()
    assert env.now == 10.0


def test_a_child_failing_after_the_condition_triggered_still_surfaces():
    env = Environment()
    reply, late = env.event(), env.event()
    cond = AnyOf(env, [reply, late])
    reply.succeed()
    env.run()
    assert cond.processed and late.callbacks == []
    late.fail(RuntimeError("late"))
    with pytest.raises(RuntimeError, match="late"):
        env.run()


def test_and_or_operators():
    env = Environment()

    def waiter(env):
        t1 = env.timeout(1, value="x")
        t2 = env.timeout(3, value="y")
        yield t1 & t2
        first = env.now
        t3 = env.timeout(1)
        t4 = env.timeout(10)
        yield t3 | t4
        return (first, env.now)

    w = env.process(waiter(env))
    env.run()
    assert w.value == (3, 4)


def test_empty_all_of_triggers_immediately():
    env = Environment()

    def waiter(env):
        yield AllOf(env, [])
        return env.now

    w = env.process(waiter(env))
    env.run()
    assert w.value == 0


def test_peek_reports_next_event_time():
    env = Environment()
    env.timeout(7)
    assert env.peek() == 7
    env.run()
    assert env.peek() == float("inf")


def test_step_without_events_raises():
    env = Environment()
    with pytest.raises(IndexError):
        env.step()


def test_process_is_alive_and_repr():
    env = Environment()

    def proc(env):
        yield env.timeout(1)

    p = env.process(proc(env), name="myproc")
    assert p.is_alive
    assert "myproc" in repr(p)
    env.run()
    assert not p.is_alive


def test_run_until_drained_advances_to_until():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    env.process(quick(env))
    env.run(until=100)
    assert env.now == 100


# ------------------------------------------------------- cancelled timeouts


def test_cancel_is_refused_with_a_waiter_or_after_dispatch():
    env = Environment()
    waited = env.timeout(1.0)
    waited.callbacks.append(lambda event: None)
    parked = env.timeout(2.0)

    def proc(env):
        yield parked

    env.process(proc(env))
    env.step()  # the process starts and parks on ``parked``
    done = env.timeout(0.5)
    env.run(until=0.75)
    for timeout in (waited, parked, done):
        with pytest.raises(SimulationError):
            timeout.cancel()
    env.run()
    assert env.now == 2.0 and env.events_scheduled == 5


def test_waiting_on_a_cancelled_timeout_raises():
    env = Environment()
    lost = env.timeout(1.0)
    lost.cancel()
    lost.cancel()  # a second cancel changes nothing
    with pytest.raises(SimulationError, match="cancelled"):
        lost.callbacks.append(lambda event: None)
    with pytest.raises(SimulationError, match="cancelled"):
        AnyOf(env, [env.event(), lost])

    def proc(env):
        yield lost

    env.process(proc(env))
    with pytest.raises(SimulationError, match="cancelled"):
        env.run()


def test_cancelled_entries_are_compacted_and_never_dispatched():
    env = Environment()
    fired = []
    for i in range(4):
        env.timeout(1.0 + i).callbacks.append(
            lambda event: fired.append(env.now))
    lost = [env.timeout(2.0 + i) for i in range(6)]
    for count, timeout in enumerate(lost, 1):
        timeout.cancel()
        held = sum(e[3] in lost[:count] for e in env._queue)
        # compacted the moment cancelled entries could make up half
        assert held == 0 if count == 5 else 2 * held < len(env._queue)
    assert len(env._queue) == 5 and repr(env).endswith("pending=4>")
    env.run()
    # the last cancelled deadline, 7.0, still sets where the run ends
    assert fired == [1.0, 2.0, 3.0, 4.0] and env.now == 7.0
    assert env.events_scheduled == 10 and env.peak_pending == 4


def test_compaction_keeps_a_timeout_nobody_waits_on_yet():
    env = Environment()
    later = env.timeout(3.0)
    env.timeout(2.0).cancel()  # half the heap: compacts at once
    assert len(env._queue) == 1
    fired = []
    later.callbacks.append(lambda event: fired.append(env.now))
    env.run()
    assert fired == [3.0]


def test_compaction_inside_run_keeps_the_heap_run_is_popping():
    """``run()`` pops the heap through a local name, so a compaction
    triggered from a callback must rebuild that same list: an entry
    filed after it, and every live one before it, still dispatches, in
    order."""
    env = Environment()
    fired = []

    def note(event):
        fired.append(env.now)

    lost = [env.timeout(5.0 + i) for i in range(4)]

    def cancel_all(event):
        note(event)
        for timeout in lost:
            timeout.cancel()
        assert len(env._queue) == 3  # compacted during the dispatch
        env.timeout(0.5).callbacks.append(note)

    env.timeout(1.0).callbacks.append(cancel_all)
    for at in (2.0, 3.0):
        env.timeout(at).callbacks.append(note)
    env.run()
    assert fired == [1.0, 1.5, 2.0, 3.0] and env.now == 8.0
    assert env.events_scheduled == 8 and not env._queue


def test_a_step_driven_drain_ends_at_the_last_cancelled_deadline():
    env = Environment()
    env.timeout(1.0)
    env.timeout(3.0).cancel()  # compacted out at once
    env.timeout(0.25).cancel()
    env.timeout(0.0).cancel()  # normal FIFO
    assert env.peek() == 1.0
    env.step()
    assert env.now == 1.0 and env.peek() == float("inf")
    with pytest.raises(IndexError):
        env.step()
    assert env.now == 3.0 and env.peak_pending == 1


#: Zero (the normal FIFO), tiny, sub-second and watchdog-like delays;
#: dyadic, so timestamps reached along different paths collide.
_DELAYS = (0.0, 2.0**-20, 0.25, 0.5, 1.0, 2.0)

_cancel_node = st.tuples(
    st.sampled_from(("timeout", "race", "orphan")),
    st.sampled_from(_DELAYS),  # the timeout's delay (a race's watchdog)
    st.sampled_from(_DELAYS),  # a race's reply
    st.lists(st.integers(min_value=0, max_value=30), max_size=3),
)


class _CancelProgram:
    """A random schedule program that cancels what it stops waiting on:
    the watchdog of a race its reply won, and the unwaited timeouts left
    by an ``orphan`` node at the next firing."""

    BUDGET = 120

    def __init__(self, env, nodes):
        self.env = env
        self.nodes = nodes
        self.log = []
        self.orphans = []

    def schedule(self, index):
        env = self.env
        index %= len(self.nodes)
        kind, delay, reply_delay, _children = self.nodes[index]
        if kind == "timeout":
            env.timeout(delay).callbacks.append(lambda e: self.fire(index))
        elif kind == "race":
            reply, watchdog = env.timeout(reply_delay), env.timeout(delay)

            def decided(cond):
                if reply in cond.value and not watchdog.processed:
                    watchdog.cancel()
                self.fire(index)

            env.any_of([reply, watchdog]).callbacks.append(decided)
        else:
            self.orphans.append(env.timeout(delay))
            env.timeout(reply_delay).callbacks.append(
                lambda e: self.fire(index))

    def fire(self, index):
        for orphan in self.orphans:
            if not orphan.processed:
                orphan.cancel()
        self.orphans.clear()
        self.log.append((index, self.env.now))
        if len(self.log) < self.BUDGET:
            for child in self.nodes[index][3]:
                self.schedule(child)


def _drive_cancelling(nodes, roots, mode, horizons):
    env = Environment()
    program = _CancelProgram(env, nodes)
    for index in range(roots):
        program.schedule(index)
    if mode == "step":
        while True:
            try:
                env.step()
            except IndexError:
                break
    else:
        if mode == "until":
            for dt in horizons:
                env.run(until=env.now + dt)
        env.run()
    return program.log, env.events_scheduled, env.now, env.peak_pending


@given(
    nodes=st.lists(_cancel_node, min_size=1, max_size=10),
    roots=st.integers(min_value=1, max_value=5),
    horizons=st.lists(st.sampled_from((0.0, 2.0**-20, 0.25, 0.75, 1.5)),
                      max_size=6),
)
@settings(max_examples=150, deadline=None)
def test_cancelling_equals_dispatching_the_lost_timeouts(nodes, roots,
                                                         horizons):
    """A cancelled timeout is one dispatched with no callbacks, minus its
    pending entry: ``run()``, ``run(until=...)`` and ``step()`` each give
    the callback log, event count and final clock of the same program
    whose ``cancel`` does nothing, and a pending high-water mark no
    higher, whether the cancelled entries are compacted out or popped."""
    for mode in ("run", "until", "step"):
        with mock.patch.object(Timeout, "cancel", lambda self: None):
            *kept, kept_peak = _drive_cancelling(nodes, roots, mode,
                                                 horizons)
        *cut, cut_peak = _drive_cancelling(nodes, roots, mode, horizons)
        assert cut == kept, mode
        assert cut_peak <= kept_peak, mode
