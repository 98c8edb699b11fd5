"""System-level property tests (hypothesis): conservation and ordering
invariants that must hold for arbitrary workloads and fault patterns."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DocephProfile
from repro.core import (
    CommChannel,
    DocaDma,
    DmaPipeline,
    FallbackController,
    PROBE_BYTES,
    RpcChannel,
)
from repro.hw import (
    ClusterNode,
    CpuComplex,
    DmaEngine,
    Network,
    SimThread,
    SsdDevice,
)
from repro.msgr import AsyncMessenger, MOSDOp, MsgrDirectory, OpType
from repro.osd import CLIENT_OP, RECOVERY_OP, SUB_OP, WeightedPriorityQueue
from repro.sim import Environment
from repro.util import DataBlob

from tests.helpers import make_stack

MB = 1 << 20


# ------------------------------------------------------------- messenger


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=8 * MB),
                   min_size=1, max_size=25)
)
@settings(max_examples=25, deadline=None)
def test_messenger_delivers_every_message_once_in_order(sizes):
    env = Environment()
    net = Network(env, latency_s=10e-6)
    directory = MsgrDirectory()
    a = AsyncMessenger(make_stack(env, net, "a"), "a", directory)
    b = AsyncMessenger(make_stack(env, net, "b"), "b", directory)
    got = []

    class Sink:
        def ms_dispatch(self, msg, conn):
            got.append((msg.tid, msg.data.length
                        if msg.data is not None else 0))
            release = getattr(msg, "throttle_release", None)
            if release:
                release()
            if False:
                yield

    b.register_dispatcher(Sink())
    for i, size in enumerate(sizes):
        data = DataBlob(size) if size else None
        a.send_message(
            MOSDOp(tid=i, pool="p", object_name=f"o{i}", op=OpType.WRITE,
                   length=size, data=data),
            "b",
        )
    env.run(until=60.0)
    assert got == [(i, s) for i, s in enumerate(sizes)]
    assert a.messages_sent == len(sizes)
    assert b.messages_received == len(sizes)
    assert a.bytes_sent == b.bytes_received


# ------------------------------------------------------------- op queue


@given(
    ops=st.lists(
        st.tuples(st.sampled_from([CLIENT_OP, SUB_OP, RECOVERY_OP]),
                  st.integers(min_value=0, max_value=1000)),
        min_size=1, max_size=100,
    ),
    seed=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=50, deadline=None)
def test_wpq_conserves_items(ops, seed):
    env = Environment()
    q = WeightedPriorityQueue(env, seed=seed)
    for prio, payload in ops:
        q.enqueue(payload, prio)
    out = []

    def consumer():
        for _ in ops:
            item = yield q.dequeue()
            out.append(item)

    p = env.process(consumer())
    env.run(until=p)
    assert sorted(out) == sorted(payload for _, payload in ops)
    assert len(q) == 0
    assert q.dequeued == len(ops)


# ------------------------------------------------------------- pipeline


def _make_pipeline(env, fail_mask):
    """Pipeline whose k-th DMA attempt fails iff fail_mask[k] (cyclic)."""
    profile = DocephProfile(cooldown_seconds=0.05)
    network = Network(env)
    host_cpu = CpuComplex(env, "n.host", cores=8)
    dpu_cpu = CpuComplex(env, "n.dpu", cores=8, perf=0.45)
    node = ClusterNode(
        env, network, "n", host_cpu, SsdDevice(env, "n.ssd"),
        nic_bandwidth=100e9, tcp=profile.tcp, dpu_cpu=dpu_cpu,
        dma=DmaEngine(env, "n.dma", bandwidth=2e9, setup_latency=1e-4),
    )
    counter = [0]

    def fire(now, size):
        k = counter[0]
        counter[0] += 1
        return bool(fail_mask) and fail_mask[k % len(fail_mask)]

    node.dma.fault_injector = SimpleNamespace(fire=fire)
    rpc = RpcChannel(node, profile)

    def bulk_handler(req, t):
        req.reply = {"ok": True}
        if False:
            yield

    rpc.register_handler("bulk", bulk_handler)
    fb = FallbackController(cooldown_seconds=0.05)
    pipe = DmaPipeline(
        env,
        DocaDma(node, CommChannel(node, 1e-4)),
        rpc, fb,
        stage_thread=SimThread(dpu_cpu, "stage", "proxy"),
        memcpy_bandwidth=3e9,
        segment_bytes=2 * MB,
        n_buffers=4,
    )
    return node, pipe, SimThread(dpu_cpu, "caller", "proxy")


@given(
    total=st.integers(min_value=1, max_value=24 * MB),
    fail_mask=st.lists(st.booleans(), min_size=0, max_size=8),
)
@settings(max_examples=25, deadline=None)
def test_pipeline_conserves_bytes_under_any_fault_pattern(total, fail_mask):
    """DMA bytes + fallback bytes always cover the full request, for any
    size and any pattern of injected transfer failures."""
    env = Environment()
    node, pipe, thread = _make_pipeline(env, fail_mask)

    def work():
        timing = yield from pipe.push(total, thread)
        return timing

    p = env.process(work())
    env.run(until=p)
    timing = p.value
    # Everything arrived, via DMA or the fallback socket.  Successful
    # probe transfers may add DMA traffic beyond the payload — in exact
    # multiples of PROBE_BYTES.
    covered = timing.fallback_bytes + node.dma.bytes_transferred
    slack = covered - total
    assert slack >= 0
    assert slack % PROBE_BYTES == 0
    # decomposition invariants
    assert timing.dma_time >= 0
    assert timing.dma_wait >= 0
    assert timing.dma_time + timing.dma_wait <= timing.total + 1e-9


@given(total=st.integers(min_value=1, max_value=16 * MB))
@settings(max_examples=30, deadline=None)
def test_pipeline_faultfree_breakdown_invariants(total):
    env = Environment()
    node, pipe, thread = _make_pipeline(env, [])

    def work():
        timing = yield from pipe.push(total, thread)
        return timing

    p = env.process(work())
    env.run(until=p)
    timing = p.value
    assert node.dma.bytes_transferred == total
    assert timing.fallback_bytes == 0
    assert timing.segments == -(-total // (2 * MB))
    assert timing.dma_time > 0
    assert timing.dma_time + timing.dma_wait <= timing.total + 1e-9
