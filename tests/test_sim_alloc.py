"""Steady state constructs no event objects on the wire and charge paths.

An event object costs 0.5-1.4 us to construct and drop against ~0.13 us
to re-file one that already exists, so the two hottest paths own their
wait objects and re-arm them (DESIGN.md §13, "Who owns an event
object"): a granted ``Request`` is the timeout of its own hold, and an
rx chunk machine returns to its pipe's free list with its kick, its
latency timer and its prebound callbacks.  This gate counts, exactly,
every construction of an :class:`Event` subclass defined anywhere in
``repro`` (the pump itself is a ``repro.msgr`` machine) after a
warm-up window.  On the parent
commit each 4 MB frame constructed 17 ``_RxChunk`` and 17 ``_Kick``.
"""

from __future__ import annotations

import sys
from collections import Counter

from repro.hw import CpuComplex, Network, SimThread
from repro.msgr import AsyncMessenger, MsgrDirectory
from repro.msgr.messenger import Connection, WireFrame
from repro.sim import Environment, Event
from repro.util.bufferlist import BufferList

from .helpers import make_stack

MB = 1 << 20


class _Constructions:
    """Context manager: exact count, by class name, of the tree's
    event objects constructed while it is active.

    Every ``Event`` subclass in the tree has a Python ``__init__``, so a
    profile hook sees each construction as a ``call`` of a code object
    named ``__init__`` whose ``self`` is an event; a ``super().__init__``
    chain is told apart by its caller being an ``__init__`` on the same
    object.
    """

    def __init__(self) -> None:
        self.counts: Counter[str] = Counter()

    def _hook(self, frame, event, arg):
        if event != "call" or frame.f_code.co_name != "__init__":
            return
        obj = frame.f_locals.get("self")
        if not isinstance(obj, Event):
            return
        back = frame.f_back
        if (
            back is not None
            and back.f_code.co_name == "__init__"
            and back.f_locals.get("self") is obj
        ):
            return
        cls = type(obj)
        if cls.__module__.startswith("repro."):
            self.counts[cls.__name__] += 1

    def __enter__(self) -> "_Constructions":
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc_info) -> None:
        sys.setprofile(None)


def test_the_counter_counts():
    env = Environment()

    def body():
        yield env.timeout(0.0)

    with _Constructions() as seen:
        env.timeout(1.0)
        env.process(body())  # a Process and its Initialize
        env.event()
    assert seen.counts == {"Timeout": 1, "Process": 1, "Initialize": 1, "Event": 1}


def test_charges_construct_nothing_after_warm_up():
    env = Environment()
    cpu = CpuComplex(env, "cpu", cores=2)
    threads = [SimThread(cpu, f"t{i}", "cat") for i in range(3)]  # contended

    def worker(thread, laps):
        for _ in range(laps):
            yield from thread.charge(1e-3)
            yield from thread.ctx_switch(2)

    def run(laps):
        procs = [env.process(worker(t, laps)) for t in threads]
        env.run()
        assert all(p.processed and p.ok for p in procs)

    run(20)
    busy = sum(cpu.accounting.busy_by_category.values())
    with _Constructions() as seen:
        run(200)
    # 3 x 200 x (charge + ctx_switch), and nothing was made for them
    # but the three worker processes themselves.
    assert sum(cpu.accounting.busy_by_category.values()) > 10 * busy
    assert seen.counts == {"Process": 3, "Initialize": 3}


def test_frames_through_a_wire_pump_construct_nothing_after_warm_up(monkeypatch):
    """The pump's whole wire path — tx pipe holds, rx chunk machines,
    their kicks, latency timers and rx pipe holds — re-arms what it
    owns.  What is left per frame is the queue hand-off in front of the
    pump (one ``Store.put``, one ``Store.get``), counted here so the
    gate is exact rather than a whitelist; giving those an owner was
    built and measured and did not resolve (EXPERIMENTS.md)."""
    env = Environment()
    net = Network(env, latency_s=10e-6)
    directory = MsgrDirectory()
    a = AsyncMessenger(make_stack(env, net, "a"), "ms.a", directory)
    AsyncMessenger(make_stack(env, net, "b"), "ms.b", directory)
    delivered = []
    # The receiving messenger is not under test: land frames nowhere.
    monkeypatch.setattr(
        Connection, "_finish_delivery",
        lambda self, frame, bl=None: delivered.append(frame.seq),
    )
    conn = a.connect("b")
    rx_pipe = net.nic("b").rx
    wire = 4 * MB + 200  # 16 full chunks and a 17th for the tail

    def push(count):
        for _ in range(count):
            conn.send_seq += 1
            conn._wire_queue.put(
                WireFrame(conn.send_seq, conn.epoch, None, BufferList(), None, wire, None)
            )
        env.run()

    push(3)
    assert len(delivered) == 3 and len(rx_pipe._rx_free) == 17
    chunks = {id(chunk) for chunk in rx_pipe._rx_free}
    events_before = env.events_scheduled

    frames = 25
    with _Constructions() as seen:
        push(frames)
    assert len(delivered) == 3 + frames
    assert rx_pipe.bytes_transferred == (3 + frames) * wire
    # 17 x (tx grant + tx hold + kick + latency + rx grant + rx hold +
    # completion) events per frame, and the put and the get of its
    # hand-off, were scheduled in the window, no more and no fewer ...
    assert env.events_scheduled - events_before == frames * (17 * 7 + 2)
    # ... on objects that all existed before it.
    assert seen.counts == {"_StorePut": frames, "_StoreGet": frames}
    assert {id(chunk) for chunk in rx_pipe._rx_free} == chunks
