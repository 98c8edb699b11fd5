"""Tests for the AsyncMessenger: delivery, ordering, accounting,
throttling, and heartbeats."""

import pytest

from repro.faults import FaultPlan
from repro.hw import Network
from repro.msgr import (
    AsyncMessenger,
    HeartbeatAgent,
    MOSDPing,
    MOSDOp,
    MsgrDirectory,
    MSGR_CATEGORY,
    OpType,
)
from repro.msgr.messenger import Connection, WireFrame
from repro.sim import Environment
from repro.util import DataBlob
from repro.util.bufferlist import BufferList

from tests.helpers import make_stack, two_osd_map


class RecordingDispatcher:
    """Collects every dispatched message."""

    def __init__(self):
        self.received = []

    def ms_dispatch(self, msg, conn):
        self.received.append(msg)
        if False:  # make this a generator
            yield


class EchoPingDispatcher:
    """Replies to pings, records replies."""

    def __init__(self, messenger, agent=None):
        self.messenger = messenger
        self.agent = agent
        self.pings = []

    def ms_dispatch(self, msg, conn):
        self.pings.append(msg)
        if isinstance(msg, MOSDPing) and not msg.is_reply:
            if self.agent is not None:
                reply = self.agent.handle_ping(msg)
            else:
                reply = MOSDPing(tid=msg.tid, is_reply=True, stamp=msg.stamp)
            if reply is not None:
                self.messenger.send_message(reply, msg.src)
        elif self.agent is not None:
            self.agent.handle_ping(msg)
        if False:
            yield


def build_pair(env, bandwidth=100e9, workers=3, throttle=None, cores=4):
    net = Network(env, latency_s=10e-6)
    directory = MsgrDirectory()
    a = AsyncMessenger(
        make_stack(env, net, "a", bandwidth_bps=bandwidth, cores=cores),
        "ms.a", directory, workers=workers, throttle_bytes=throttle,
    )
    b = AsyncMessenger(
        make_stack(env, net, "b", bandwidth_bps=bandwidth, cores=cores),
        "ms.b", directory, workers=workers, throttle_bytes=throttle,
    )
    return a, b


def test_message_delivered_and_decoded():
    env = Environment()
    a, b = build_pair(env)
    sink = RecordingDispatcher()
    b.register_dispatcher(sink)

    a.send_message(MOSDPing(tid=5, stamp=1.0), "b")
    env.run(until=1.0)

    assert len(sink.received) == 1
    msg = sink.received[0]
    assert isinstance(msg, MOSDPing)
    assert msg.tid == 5
    assert msg.src == "a"


def test_bulk_payload_rides_along():
    env = Environment()
    a, b = build_pair(env)
    sink = RecordingDispatcher()
    b.register_dispatcher(sink)

    blob = DataBlob(1 << 20)
    a.send_message(
        MOSDOp(tid=1, pool="p", object_name="o", op=OpType.WRITE,
               length=blob.length, data=blob),
        "b",
    )
    env.run(until=1.0)
    assert sink.received[0].data == blob


def test_per_connection_ordering():
    env = Environment()
    a, b = build_pair(env, workers=3)
    sink = RecordingDispatcher()
    b.register_dispatcher(sink)

    for i in range(20):
        # Alternate big and small so the wire pump would reorder them if
        # it could.
        size = (1 << 22) if i % 2 == 0 else 64
        a.send_message(
            MOSDOp(tid=i, pool="p", object_name=f"o{i}", op=OpType.WRITE,
                   length=size, data=DataBlob(size)),
            "b",
        )
    env.run(until=5.0)
    tids = [m.tid for m in sink.received]
    assert tids == list(range(20))


def test_cpu_charged_to_msgr_category_on_both_ends():
    env = Environment()
    a, b = build_pair(env)
    b.register_dispatcher(RecordingDispatcher())

    blob = DataBlob(4 << 20)
    a.send_message(
        MOSDOp(tid=1, pool="p", object_name="o", op=OpType.WRITE,
               length=blob.length, data=blob),
        "b",
    )
    env.run(until=2.0)
    sender_busy = a.stack.cpu.accounting.busy_by_category.get(MSGR_CATEGORY, 0)
    receiver_busy = b.stack.cpu.accounting.busy_by_category.get(MSGR_CATEGORY, 0)
    assert sender_busy > 0
    assert receiver_busy > sender_busy  # recv path is pricier


def test_context_switches_recorded():
    env = Environment()
    a, b = build_pair(env)
    b.register_dispatcher(RecordingDispatcher())
    a.send_message(MOSDPing(tid=1), "b")
    env.run(until=1.0)
    assert a.stack.cpu.accounting.ctx_by_category.get(MSGR_CATEGORY, 0) >= 1
    assert b.stack.cpu.accounting.ctx_by_category.get(MSGR_CATEGORY, 0) >= 2


def test_statistics_track_messages_and_bytes():
    env = Environment()
    a, b = build_pair(env)
    b.register_dispatcher(RecordingDispatcher())
    blob = DataBlob(1000)
    a.send_message(
        MOSDOp(tid=1, pool="p", object_name="o", op=OpType.WRITE,
               length=1000, data=blob), "b")
    env.run(until=1.0)
    assert a.messages_sent == 1
    assert b.messages_received == 1
    assert a.bytes_sent == b.bytes_received
    assert a.bytes_sent > 1000


def test_connection_reuse():
    env = Environment()
    a, b = build_pair(env)
    b.register_dispatcher(RecordingDispatcher())
    c1 = a.connect("b")
    c2 = a.connect("b")
    assert c1 is c2


def test_round_robin_worker_assignment():
    env = Environment()
    net = Network(env)
    directory = MsgrDirectory()
    hub = AsyncMessenger(make_stack(env, net, "hub"), "hub", directory,
                         workers=2)
    for name in ("p1", "p2", "p3"):
        make_stack(env, net, name)
    workers = [hub.connect(p).worker for p in ("p1", "p2", "p3")]
    assert workers[0] is not workers[1]
    assert workers[0] is workers[2]


def test_duplicate_address_rejected():
    env = Environment()
    net = Network(env)
    directory = MsgrDirectory()
    stack = make_stack(env, net, "x")
    AsyncMessenger(stack, "m1", directory)
    with pytest.raises(ValueError):
        AsyncMessenger(stack, "m2", directory)


def test_unknown_peer_rejected():
    directory = MsgrDirectory()
    with pytest.raises(ValueError):
        directory.lookup("ghost")


def test_throttle_limits_inflight_dispatch():
    """With a tiny throttle, the second message waits until the first
    releases."""
    env = Environment()
    a, b = build_pair(env, throttle=2000)

    class HoldingDispatcher:
        def __init__(self):
            self.got = []

        def ms_dispatch(self, msg, conn):
            self.got.append((env.now, msg.tid))
            if False:
                yield

    sink = HoldingDispatcher()
    b.register_dispatcher(sink)

    blob = DataBlob(1500)
    for i in range(2):
        a.send_message(
            MOSDOp(tid=i, pool="p", object_name=f"o{i}", op=OpType.WRITE,
                   length=1500, data=blob.slice(0, 1500)),
            "b",
        )
    env.run(until=0.5)
    # Only the first message fits under the 2000-byte throttle.
    assert [t for _, t in sink.got] == [0]
    # Refill the throttle (as the op-completion release hook would).
    b.throttle.put(2000 - b.throttle.level)
    env.run(until=1.0)
    assert [t for _, t in sink.got] == [0, 1]


def test_workers_validation():
    env = Environment()
    net = Network(env)
    directory = MsgrDirectory()
    stack = make_stack(env, net, "x")
    with pytest.raises(ValueError):
        AsyncMessenger(stack, "m", directory, workers=0)


def test_heartbeat_ping_pong_and_liveness():
    env = Environment()
    a, b = build_pair(env)
    osdmap = two_osd_map()
    agent_a = HeartbeatAgent(a, osdmap, 0, interval=0.5, grace=2.0)
    agent_b = HeartbeatAgent(b, osdmap, 1, interval=0.5)
    a.register_dispatcher(EchoPingDispatcher(a, agent_a))
    b.register_dispatcher(EchoPingDispatcher(b, agent_b))

    env.run(until=3.0)
    assert agent_a.peer_addrs == ["b"]
    assert agent_a.stale_peers(env.now) == []
    assert agent_a.failed_peer_ids(env.now) == []
    # each side hears the other's pings
    assert "a" in agent_b.last_seen and "b" in agent_a.last_seen


def test_heartbeat_detects_silence():
    env = Environment()
    a, b = build_pair(env)
    agent_a = HeartbeatAgent(a, two_osd_map(), 0, interval=0.5, grace=1.0)
    # b has no dispatcher -> never replies
    env.run(until=3.0)
    assert agent_a.stale_peers(env.now) == ["b"]
    assert agent_a.failed_peer_ids(env.now) == [1]


# ------------------------------------------- the wire pump vs Network.deliver

_T0 = 1.0  # both sides put the frame on the wire at this instant


def _wire_world(condition):
    env = Environment()
    a, _b = build_pair(env, bandwidth=8e9)
    net = a.stack.network
    drops = []
    if condition == "degrade":
        plan = FaultPlan.parse("net:degrade,p=0.4,factor=3", seed=11)
        plan.attach_net(net.nic("a"), "a")
        plan.attach_net(net.nic("b"), "b")
    elif condition == "partition":
        # opens while the first chunk is still crossing the link
        net.partition(
            {"b"}, _T0 + 5e-6, _T0 + 10.0,
            on_drop=lambda nbytes: drops.append((env.now, nbytes)),
        )
    conn = a.connect("b")
    env.run(until=_T0)
    return env, net, a, conn, drops


def _wire_outcome(env, net, events_before, finished, drops):
    tx, rx = net.nic("a").tx, net.nic("b").rx
    return {
        # each side schedules two events of its own around the wire: a
        # process its Initialize and completion, the pump the put and
        # the get of its queue hand-off
        "events": env.events_scheduled - events_before - 2,
        "finished": finished,
        "drops": drops,
        "tx": (tx.bytes_transferred, tx.busy_time, tx.degraded_chunks),
        "rx": (rx.bytes_transferred, rx.busy_time, rx.degraded_chunks),
    }


@pytest.mark.parametrize("condition", ["clean", "degrade", "partition"])
@pytest.mark.parametrize("wire", [4 * (1 << 20) + 200, 1000])
def test_wire_pump_matches_network_deliver(monkeypatch, wire, condition):
    """``Network.deliver`` is the reference for the wire: a frame
    through a ``_WirePump`` schedules the same events, finishes at the
    same instant and leaves the same statistics on both pipes."""
    env, net, _a, _conn, drops = _wire_world(condition)
    finished = []

    def reference():
        ok = yield from net.deliver("a", "b", wire)
        finished.append((env.now, ok))

    before = env.events_scheduled
    env.process(reference())
    env.run()
    expected = _wire_outcome(env, net, before, finished, drops)

    env, net, a, conn, drops = _wire_world(condition)
    finished = []
    monkeypatch.setattr(
        Connection, "_finish_delivery",
        lambda self, frame, bl=None: finished.append((env.now, True)),
    )
    before = env.events_scheduled
    conn.send_seq += 1
    conn._wire_queue.put(
        WireFrame(conn.send_seq, conn.epoch, None, BufferList(), None, wire, None)
    )
    env.run()
    if a.messages_dropped:
        finished.append((drops[-1][0], False))
    assert _wire_outcome(env, net, before, finished, drops) == expected

    chunks = -(-wire // net.nic("a").tx.chunk_bytes)
    assert expected["tx"][0] == wire
    if condition == "partition":
        assert expected["finished"] == [(drops[0][0], False)]
        assert drops == [(drops[0][0], wire)] and drops[0][0] > _T0 + 5e-6
    else:
        assert expected["finished"][0][1] is True and not drops
        assert expected["rx"][0] == wire
    if condition == "degrade" and chunks > 1:
        assert expected["tx"][2] > 0 and expected["rx"][2] > 0
