"""Edge-case tests for heartbeats and messenger internals."""

import pytest

from repro.hw import Network
from repro.msgr import (
    AsyncMessenger,
    HeartbeatAgent,
    MessengerCostModel,
    MOSDPing,
    MsgrDirectory,
)
from repro.sim import Environment

from tests.helpers import make_stack, two_osd_map


def build_pair(env):
    net = Network(env, latency_s=10e-6)
    directory = MsgrDirectory()
    a = AsyncMessenger(make_stack(env, net, "a"), "ms.a", directory)
    b = AsyncMessenger(make_stack(env, net, "b"), "ms.b", directory)
    return a, b


def test_heartbeat_agent_no_peers_is_quiet():
    """With its only peer marked down, the agent pings no one."""
    env = Environment()
    a, b = build_pair(env)
    osdmap = two_osd_map()
    osdmap.mark_down(1)
    agent = HeartbeatAgent(a, osdmap, 0, interval=0.5)
    env.run(until=3.0)
    assert a.messages_sent == 0
    assert agent.peer_addrs == []
    assert agent.stale_peers(env.now) == []
    assert agent.failed_peer_ids(env.now) == []


def test_heartbeat_handle_ping_reply_returns_none():
    env = Environment()
    a, b = build_pair(env)
    agent = HeartbeatAgent(a, two_osd_map(), 0, interval=10.0)
    reply_msg = MOSDPing(src="b", tid=1, is_reply=True, stamp=0.0)
    assert agent.handle_ping(reply_msg) is None
    assert agent.last_seen["b"] == env.now


def test_messenger_cost_model_scaling():
    cost = MessengerCostModel(encode_fixed=1e-6, decode_fixed=2e-6,
                              crc_bandwidth=1e9)
    assert cost.encode_cpu(1_000_000) == pytest.approx(1e-6 + 1e-3)
    assert cost.decode_cpu(0) == pytest.approx(2e-6)


def test_send_to_self_address_loopback():
    """A messenger can send to its own address (mon co-located cases);
    the wire is skipped but dispatch still happens."""
    env = Environment()
    net = Network(env, latency_s=10e-6)
    directory = MsgrDirectory()
    a = AsyncMessenger(make_stack(env, net, "solo"), "solo", directory)
    got = []

    class Sink:
        def ms_dispatch(self, msg, conn):
            got.append(msg.tid)
            if False:
                yield

    a.register_dispatcher(Sink())
    a.send_message(MOSDPing(tid=42), "solo")
    env.run(until=1.0)
    assert got == [42]


def test_messages_between_three_parties_no_crosstalk():
    env = Environment()
    net = Network(env, latency_s=10e-6)
    directory = MsgrDirectory()
    received = {}
    messengers = {}
    for name in ("x", "y", "z"):
        m = AsyncMessenger(make_stack(env, net, name), name, directory)
        received[name] = []

        class Sink:
            def __init__(self, box):
                self.box = box

            def ms_dispatch(self, msg, conn):
                self.box.append((msg.src, msg.tid))
                if False:
                    yield

        m.register_dispatcher(Sink(received[name]))
        messengers[name] = m

    messengers["x"].send_message(MOSDPing(tid=1), "y")
    messengers["x"].send_message(MOSDPing(tid=2), "z")
    messengers["y"].send_message(MOSDPing(tid=3), "z")
    env.run(until=1.0)
    assert received["y"] == [("x", 1)]
    assert sorted(received["z"]) == [("x", 2), ("y", 3)]
    assert received["x"] == []
