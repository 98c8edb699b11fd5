"""The tiered pending-event store pops in exactly the one-heap order.

``Environment`` files pending events in two current-tick FIFOs and one
heap (DESIGN.md §13) and claims its pop rule equals the textbook
``(time, priority, sequence)`` order of one heap holding everything.
A digest of (event count, final clock) only sees the last state; these
tests compare the *sequence*:

* a hypothesis property over random schedule programs — every container
  fed from callbacks (``request → hold → finish`` on a contended,
  recycling resource beside ``timeout``, RPC-style watchdogs), zero,
  tiny and dyadic delays, timestamps that collide across containers
  (a heap entry with FIFO entries due at the same instant),
  ``step()`` / ``run(until=...)`` interleavings with horizons on,
  before and after a pending entry's time, ``StopSimulation`` in the
  middle of a tick — run natively and under the tests' single-heap
  reference (``helpers.reference_loop``), callback for callback and on
  ``peak_pending``;
* the ``repro.perf`` scenarios driven one ``step()`` at a time on both
  stores, hashing ``(now, events_scheduled)`` after every step.

Each of these breakages of the pop rule was applied to a copy of
``sim/core.py`` and fails the property test: (a) ``run()`` dispatching
an entry due exactly at its horizon (``>`` for ``>=``), (b) ``run()``
leaving the clock where its last dispatch put it instead of at the
horizon, (c) ``step()`` popping the heap without advancing the clock,
(d) ``peek()`` blind to the heap while a FIFO is empty.  Swapping any
two branches of the FIFO/heap rule fails it too.
"""

from __future__ import annotations

import contextlib
import hashlib
import struct
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf import run_scenario
from repro.sim import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Environment,
    Resource,
    SimulationError,
    StopSimulation,
)

from .helpers import reference_loop

INF = float("inf")

#: Dyadic delays, so sums are exact and timestamps scheduled along
#: different paths collide: zero, tiny, and equal-to-something-pending
#: (0.25 + 0.25 meets a 0.5; 0.5 + 0.5 meets a 1.0).
DELAYS = (0.0, 2.0**-20, 0.03125, 0.25, 0.5, 1.0)

#: How a node schedules itself; see ``_Program.schedule``.
KINDS = ("timeout", "hold", "event", "urgent", "succeed", "process", "watchdog")

_node = st.tuples(
    st.sampled_from(KINDS),
    st.sampled_from(DELAYS),
    st.lists(st.integers(min_value=0, max_value=30), max_size=3),  # children
    st.integers(min_value=0, max_value=11),  # 0 = StopSimulation when fired
)
_action = st.one_of(
    st.integers(min_value=1, max_value=6),  # that many step()s
    # run(until=now + dt): horizons on, before and after a pending time
    st.sampled_from((0.0, 2.0**-20, 0.25, 0.4, 0.5, 1.0)),
)


class _Program:
    """One random schedule program bound to one environment."""

    #: Callbacks stop spawning children after this many firings.
    BUDGET = 150

    def __init__(self, env: Environment, nodes: list) -> None:
        self.env = env
        self.nodes = nodes
        self.log: list[tuple[int, float]] = []
        #: Two servers: "hold" nodes queue behind each other, so grants
        #: are minted by ``finish`` as well as by ``request``, and the
        #: free list hands the same objects out again.
        self.resource = Resource(env, capacity=2, recycle_requests=True)

    def schedule(self, index: int) -> None:
        env = self.env
        index %= len(self.nodes)
        kind, delay, _children, _stop = self.nodes[index]

        def fired(event, index=index):
            self.fire(index)

        if kind == "timeout":  # heap, or normal FIFO at zero delay
            env.timeout(delay).callbacks.append(fired)
        elif kind == "hold":  # the same, filed by a granted request
            resource = self.resource

            def held(request, index=index):
                resource.finish(request)
                self.fire(index)

            resource.request().callbacks.append(
                lambda request: request.hold(delay).callbacks.append(held)
            )
        elif kind == "event":  # the generic route
            event = env.event()
            event.callbacks.append(fired)
            env.schedule(event, delay, PRIORITY_NORMAL)
        elif kind == "urgent":  # urgent FIFO (urgent is always due now)
            event = env.event()
            event.callbacks.append(fired)
            env.schedule(event, priority=PRIORITY_URGENT)
        elif kind == "succeed":  # normal FIFO, inline
            event = env.event()
            event.callbacks.append(fired)
            event.succeed()
        elif kind == "watchdog":  # a reply racing its timeout, as in RPC
            reply = env.timeout(2.0**-20)
            env.any_of([reply, env.timeout(delay)]).callbacks.append(fired)
        else:  # Initialize (urgent), a timeout, a completion event
            env.process(self._proc(index, delay))

    def _proc(self, index: int, delay: float):
        yield self.env.timeout(delay)
        self.fire(index)

    def fire(self, index: int) -> None:
        _kind, _delay, children, stop = self.nodes[index]
        self.log.append((index, self.env.now))
        if len(self.log) < self.BUDGET:
            for child in children:
                self.schedule(child)
        if stop == 0:
            raise StopSimulation(index)


def _drive(single_heap: bool, nodes: list, roots: int, actions: list):
    """Run the program, natively or under the single-heap reference;
    returns everything the two must agree on."""
    returned = []
    with reference_loop() if single_heap else contextlib.nullcontext():
        env = Environment()
        assert isinstance(env._normal, deque) != single_heap
        program = _Program(env, nodes)
        for index in range(roots):
            program.schedule(index)
        for action in actions:
            if isinstance(action, int):
                for _ in range(action):
                    if env.peek() == INF:
                        break
                    try:
                        env.step()
                    except StopSimulation as stop:
                        returned.append(("step-stop", stop.args[0]))
            else:
                returned.append(env.run(until=env.now + action))
            returned.append((env.now, env.peek(), env.events_scheduled))
            if single_heap:
                # one heap by construction: the rest never hold anything
                assert not env._urgent and not env._normal
        # drain: every run() returns at a StopSimulation, so loop
        while env.peek() < INF:
            returned.append(env.run())
    return program.log, returned, env.now, env.events_scheduled, env.peak_pending


@given(
    nodes=st.lists(_node, min_size=1, max_size=12),
    roots=st.integers(min_value=1, max_value=6),
    actions=st.lists(_action, max_size=10),
)
@settings(max_examples=300, deadline=None)
def test_tiered_pops_in_single_heap_order(nodes, roots, actions):
    assert _drive(False, nodes, roots, actions) == _drive(
        True, nodes, roots, actions
    )


def test_heap_entries_meet_both_now_fifos_at_one_timestamp():
    """The case the order argument turns on, spelled out.  At t=0.5 a
    timeout (seq 1) and another scheduled later (seq 3) are due off the
    heap; the timeout's callback mints a normal (seq 4) and an urgent
    (seq 5) event for the same instant.  One heap pops 1, 5, 3, 4."""
    logs = []
    for single_heap in (False, True):
        with reference_loop() if single_heap else contextlib.nullcontext():
            env = Environment()
            log = []

            def note(tag):
                return lambda event: log.append((tag, env.now))

            def spawn(event):
                log.append(("first", env.now))
                env.event().succeed().callbacks.append(note("fifo"))
                urgent = env.event()
                urgent.callbacks.append(note("urgent"))
                env.schedule(urgent, priority=PRIORITY_URGENT)

            env.timeout(0.5).callbacks.append(spawn)
            env.timeout(0.25).callbacks.append(
                lambda event: env.timeout(0.25).callbacks.append(note("heap"))
            )
            env.run()
            logs.append(log)
    assert logs[0] == logs[1] == [
        ("first", 0.5), ("urgent", 0.5), ("heap", 0.5), ("fifo", 0.5),
    ]


def test_schedule_rejects_what_the_pop_rule_excludes():
    env = Environment()
    with pytest.raises(SimulationError):
        env.schedule(env.event(), delay=1.0, priority=PRIORITY_URGENT)
    with pytest.raises(SimulationError):
        env.schedule(env.event(), priority=2)
    assert env.events_scheduled == 0 and env.peek() == INF


def test_peek_and_repr_read_every_tier():
    env = Environment()
    assert env.peek() == INF and "pending=0" in repr(env)
    env.timeout(7.0)  # heap
    assert env.peek() == 7.0
    env.timeout(0.25)  # heap, ahead of it
    assert env.peek() == 0.25
    env.event().succeed()  # normal FIFO
    assert env.peek() == 0.0 and "pending=3" in repr(env)
    env.step()
    assert env.peek() == 0.25 and "pending=2" in repr(env)
    env.step()
    assert env.peek() == 7.0 and len(env._queue) == 1
    env.run()
    assert env.peek() == INF and env.now == 7.0 and env.peak_pending == 3


# ------------------------------------------------------- scenario replays


def _rolling_hash(scenario: str, seed: int, single_heap: bool):
    sha = hashlib.sha256()
    steps = [0]

    def observe(env: Environment) -> None:
        steps[0] += 1
        sha.update(struct.pack("<dq", env.now, env.events_scheduled))

    with reference_loop(observe, single_heap):
        env, _ = run_scenario(scenario, seed=seed)
    assert isinstance(env._normal, deque) != single_heap
    return sha.hexdigest(), steps[0], env.peak_pending


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scenario", ["smoke", "fallback", "qos"])
def test_rolling_hash_of_every_step_matches_single_heap(scenario, seed):
    assert _rolling_hash(scenario, seed, False) == _rolling_hash(
        scenario, seed, True
    )
