"""Unit tests for simulation resources (Resource, Store, Container)."""

import pytest

from repro.sim import (
    Container,
    Environment,
    Interrupt,
    Resource,
    SimulationError,
    Store,
)


# ---------------------------------------------------------------- Resource


def test_resource_grants_up_to_capacity():
    env = Environment()
    res = Resource(env, capacity=2)
    log = []

    def user(env, name, hold):
        with res.request() as req:
            yield req
            log.append((env.now, name, "got"))
            yield env.timeout(hold)
        log.append((env.now, name, "rel"))

    env.process(user(env, "a", 5))
    env.process(user(env, "b", 5))
    env.process(user(env, "c", 5))
    env.run()
    got = [(t, n) for (t, n, what) in log if what == "got"]
    assert got == [(0, "a"), (0, "b"), (5, "c")]


def test_resource_fifo_order():
    env = Environment()
    res = Resource(env, capacity=1)
    order = []

    def user(env, name):
        with res.request() as req:
            yield req
            order.append(name)
            yield env.timeout(1)

    for name in "abcd":
        env.process(user(env, name))
    env.run()
    assert order == list("abcd")


def test_resource_count_and_queue():
    env = Environment()
    res = Resource(env, capacity=1)

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(10)

    def observer(env):
        yield env.timeout(1)
        assert res.count == 1
        r2 = res.request()
        assert len(res.queue) == 1
        res.finish(r2)  # withdraws the ungranted request
        assert len(res.queue) == 0

    env.process(holder(env))
    env.process(observer(env))
    env.run()


def test_resource_bad_capacity():
    env = Environment()
    with pytest.raises(SimulationError):
        Resource(env, capacity=0)


def test_release_unheld_request_is_error():
    env = Environment()
    res = Resource(env, capacity=1)

    def proc(env):
        req = res.request()
        yield req
        res.release(req)
        with pytest.raises(SimulationError):
            res.release(req)

    env.process(proc(env))
    env.run()


def test_cancelled_request_not_granted():
    env = Environment()
    res = Resource(env, capacity=1)
    granted = []

    def holder(env):
        with res.request() as req:
            yield req
            yield env.timeout(5)

    def canceller(env):
        yield env.timeout(1)
        req = res.request()
        res.finish(req)
        yield env.timeout(10)
        granted.append(req.triggered)

    env.process(holder(env))
    env.process(canceller(env))
    env.run()
    assert granted == [False]


# ------------------------------------------------------------ Request.hold


def test_hold_is_the_timeout_of_its_own_grant():
    """``yield req.hold(d)`` costs what ``yield env.timeout(d)`` cost —
    one sequence number, the same wake-up time — with no second object:
    the event the process waits on is the request."""
    counts = []
    for wait in ("hold", "timeout"):
        env = Environment()
        res = Resource(env, capacity=1, recycle_requests=True)
        woke = []

        def user(env, delay):
            req = res.request()
            try:
                yield req
                held = req.hold(delay) if wait == "hold" else env.timeout(delay)
                assert (held is req) == (wait == "hold")
                yield held
                woke.append(env.now)
            finally:
                res.finish(req)

        env.process(user(env, 0.5))
        env.process(user(env, 0.0))  # zero delay: filed on the now-FIFO
        env.run()
        assert woke == [0.5, 0.5]
        counts.append((env.events_scheduled, env.peak_pending))
    assert counts[0] == counts[1]


def test_hold_misuse_raises():
    env = Environment()
    res = Resource(env, capacity=1, recycle_requests=True)
    first = res.request()
    queued = res.request()
    with pytest.raises(SimulationError):
        queued.hold(1.0)  # ungranted
    with pytest.raises(SimulationError):
        first.hold(1.0)  # granted, but the grant is still undispatched
    env.step()
    for bad in (-1.0, float("nan")):
        with pytest.raises(SimulationError):
            first.hold(bad)
    assert first.hold(1.0) is first
    with pytest.raises(SimulationError):
        first.hold(1.0)  # already armed
    before = env.events_scheduled
    env.run()
    # None of the refused calls filed anything.
    assert (before, env.now) == (2, 1.0)


def test_interrupt_while_waiting_for_the_grant_of_a_hold_site():
    env = Environment()
    res = Resource(env, capacity=1, recycle_requests=True)
    log = []

    def user(env, name, delay):
        req = res.request()
        try:
            yield req
            yield req.hold(delay)
            log.append((name, "done", env.now))
        except Interrupt:
            log.append((name, "interrupted", env.now))
        finally:
            res.finish(req)

    env.process(user(env, "holder", 5.0))
    waiter = env.process(user(env, "waiter", 1.0))
    env.process(user(env, "third", 1.0))

    def interrupter(env):
        yield env.timeout(2.0)
        waiter.interrupt()

    env.process(interrupter(env))
    env.run()
    # The waiter was withdrawn from the queue, so the third user — not a
    # ghost — inherits the server when the holder is done.
    assert log == [
        ("waiter", "interrupted", 2.0),
        ("holder", "done", 5.0),
        ("third", "done", 6.0),
    ]
    assert not res.users and not res.queue


def test_interrupt_during_a_hold_releases_at_once_and_never_recycles():
    env = Environment()
    res = Resource(env, capacity=1, recycle_requests=True)
    log = []
    armed = []

    def user(env, name, delay):
        req = res.request()
        try:
            yield req
            armed.append(req)
            yield req.hold(delay)
            log.append((name, "done", env.now))
        except Interrupt:
            log.append((name, "interrupted", env.now))
        finally:
            res.finish(req)

    victim = env.process(user(env, "victim", 10.0))
    env.process(user(env, "next", 1.0))

    def interrupter(env):
        yield env.timeout(2.0)
        victim.interrupt()
        yield env.timeout(0.0)
        # Interrupt time: the server has moved on, and the request whose
        # hold is still pending is on nobody's free list ...
        stale = armed[0]
        assert len(res.users) == 1 and res.users[0] is not stale
        assert stale.callbacks == []
        assert stale not in res._request_pool
        # ... so a new request is never an armed object.
        fresh = res.request()
        assert fresh is not stale
        res.finish(fresh)

    env.process(interrupter(env))
    env.run()
    assert log == [("victim", "interrupted", 2.0), ("next", "done", 3.0)]
    # The stale hold was popped at t=10 with nobody parked on it.
    assert env.now == 10.0 and armed[0].callbacks is None
    assert armed[0] not in res._request_pool


# ---------------------------------------------------------------- Container


def test_container_put_get():
    env = Environment()
    box = Container(env, capacity=10, init=5)
    results = []

    def proc(env):
        yield box.get(3)
        results.append(box.level)
        yield box.put(8)
        results.append(box.level)

    env.process(proc(env))
    env.run()
    assert results == [2, 10]


def test_container_get_blocks_until_available():
    env = Environment()
    box = Container(env, capacity=10, init=0)
    times = []

    def getter(env):
        yield box.get(4)
        times.append(env.now)

    def putter(env):
        yield env.timeout(3)
        yield box.put(4)

    env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert times == [3]


def test_container_put_blocks_when_full():
    env = Environment()
    box = Container(env, capacity=5, init=5)
    times = []

    def putter(env):
        yield box.put(2)
        times.append(env.now)

    def getter(env):
        yield env.timeout(7)
        yield box.get(3)

    env.process(putter(env))
    env.process(getter(env))
    env.run()
    assert times == [7]


def test_container_invalid_args():
    env = Environment()
    with pytest.raises(SimulationError):
        Container(env, capacity=0)
    with pytest.raises(SimulationError):
        Container(env, capacity=5, init=9)
    box = Container(env, capacity=5)
    with pytest.raises(SimulationError):
        box.get(0)
    with pytest.raises(SimulationError):
        box.put(-1)


def test_container_rejects_amounts_above_capacity():
    """Such a request could never be served, and at the head of the
    FIFO it would starve every later one on the same container."""
    env = Environment()
    box = Container(env, capacity=5, init=5)
    with pytest.raises(SimulationError, match="get amount"):
        box.get(6)
    with pytest.raises(SimulationError, match="put amount"):
        box.put(5.5)
    with pytest.raises(SimulationError):
        box.get(float("nan"))
    got = []

    def getter(env):
        yield box.get(2)
        got.append(env.now)

    env.process(getter(env))
    env.run()
    assert got == [0.0] and box.level == 3


def test_container_get_of_exactly_capacity_is_served():
    env = Environment()
    box = Container(env, capacity=5, init=0)
    times = []

    def getter(env):
        yield box.get(5)
        times.append(env.now)

    def putter(env):
        yield env.timeout(2)
        yield box.put(5)

    env.process(getter(env))
    env.process(putter(env))
    env.run()
    assert times == [2] and box.level == 0


def test_messenger_throttle_smaller_than_a_frame_fails_loudly():
    """A dispatch throttle below one frame's size used to deadlock the
    receive path in silence; now the run stops with the reason."""
    from repro.hw import Network
    from repro.msgr import AsyncMessenger, MOSDOp, MsgrDirectory, OpType
    from repro.util import DataBlob

    from tests.helpers import make_stack

    env = Environment()
    net = Network(env, latency_s=10e-6)
    directory = MsgrDirectory()
    a = AsyncMessenger(make_stack(env, net, "a"), "ms.a", directory)
    AsyncMessenger(make_stack(env, net, "b"), "ms.b", directory,
                   throttle_bytes=4096)
    blob = DataBlob(64 * 1024)
    a.send_message(
        MOSDOp(tid=1, pool="p", object_name="o", op=OpType.WRITE,
               length=blob.length, data=blob),
        "b",
    )
    with pytest.raises(SimulationError, match="get amount must be in"):
        env.run(until=1.0)


# ---------------------------------------------------------------- Store


def test_store_fifo():
    env = Environment()
    store = Store(env)
    out = []

    def producer(env):
        for item in "abc":
            yield store.put(item)
            yield env.timeout(1)

    def consumer(env):
        for _ in range(3):
            item = yield store.get()
            out.append((env.now, item))

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert [i for _, i in out] == ["a", "b", "c"]


def test_store_get_blocks_on_empty():
    env = Environment()
    store = Store(env)
    times = []

    def consumer(env):
        yield store.get()
        times.append(env.now)

    def producer(env):
        yield env.timeout(4)
        yield store.put("x")

    env.process(consumer(env))
    env.process(producer(env))
    env.run()
    assert times == [4]


def test_store_put_blocks_on_full():
    env = Environment()
    store = Store(env, capacity=1)
    times = []

    def producer(env):
        yield store.put(1)
        yield store.put(2)
        times.append(env.now)

    def consumer(env):
        yield env.timeout(6)
        yield store.get()

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert times == [6]


def test_store_len():
    env = Environment()
    store = Store(env)

    def proc(env):
        yield store.put("a")
        yield store.put("b")

    env.process(proc(env))
    env.run()
    assert len(store) == 2

