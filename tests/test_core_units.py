"""Unit tests for DoCeph core components: segmentation, fallback
controller, DOCA MR cache, RPC channel, and the DMA pipeline."""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DocephProfile
from repro.core import (
    CommChannel,
    DocaDma,
    FallbackController,
    MemoryRegion,
    PROBE_BYTES,
    RpcChannel,
    RpcError,
    DmaPipeline,
    segment_sizes,
)
from repro.core.pipeline import union_length
from repro.hw import ClusterNode, CpuComplex, DmaEngine, Network, SimThread, SsdDevice
from repro.sim import Environment
from repro.util import BufferList, wire


MB = 1 << 20


def make_dpu_node(env, profile=None, dma_kwargs=None):
    profile = profile or DocephProfile()
    network = Network(env)
    host_cpu = CpuComplex(env, "n.host", cores=8)
    dpu_cpu = CpuComplex(env, "n.dpu", cores=8, perf=0.45)
    ssd = SsdDevice(env, "n.ssd")
    dma = DmaEngine(env, "n.dma", **(dma_kwargs or {}))
    node = ClusterNode(
        env, network, "n", host_cpu, ssd, nic_bandwidth=100e9,
        tcp=profile.tcp, dpu_cpu=dpu_cpu, dma=dma,
    )
    return node, profile


# --------------------------------------------------------------- segmentation


def test_segment_sizes_exact_multiple():
    assert segment_sizes(4 * MB, 2 * MB) == [2 * MB, 2 * MB]


def test_segment_sizes_remainder():
    assert segment_sizes(5 * MB, 2 * MB) == [2 * MB, 2 * MB, 1 * MB]


def test_segment_sizes_small_and_zero():
    assert segment_sizes(100, 2 * MB) == [100]
    assert segment_sizes(0, 2 * MB) == []


def test_segment_sizes_validation():
    with pytest.raises(ValueError):
        segment_sizes(-1, 2 * MB)
    with pytest.raises(ValueError):
        segment_sizes(100, 0)


@given(total=st.integers(min_value=0, max_value=1 << 30),
       seg=st.integers(min_value=64 * 1024, max_value=4 * MB))
@settings(max_examples=200, deadline=None)
def test_segment_sizes_property(total, seg):
    """§4: k = ceil(N / max); every segment = min(max, remaining)."""
    sizes = segment_sizes(total, seg)
    assert sum(sizes) == total
    assert len(sizes) == -(-total // seg)
    assert all(0 < s <= seg for s in sizes)
    if sizes:
        assert all(s == seg for s in sizes[:-1])  # only the tail is short


# --------------------------------------------------------------- union_length


def test_union_length_empty_and_degenerate():
    assert union_length([]) == 0.0
    assert union_length([(5.0, 5.0)]) == 0.0


def test_union_length_disjoint_and_overlap():
    assert union_length([(0, 1), (2, 3)]) == pytest.approx(2.0)
    assert union_length([(0, 2), (1, 3)]) == pytest.approx(3.0)
    assert union_length([(0, 10), (2, 3)]) == pytest.approx(10.0)


@given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                          st.floats(0, 100, allow_nan=False)),
                max_size=20))
@settings(max_examples=100)
def test_union_length_bounds(intervals):
    norm = [(min(a, b), max(a, b)) for a, b in intervals]
    u = union_length(norm)
    total = sum(e - s for s, e in norm)
    assert 0 <= u <= total + 1e-9
    if norm:
        span = max(e for _, e in norm) - min(s for s, _ in norm)
        assert u <= span + 1e-9


# --------------------------------------------------------------- fallback


def test_fallback_initial_state_allows_dma():
    fb = FallbackController(cooldown_seconds=2.0)
    assert fb.dma_allowed(0.0)
    assert not fb.probe_due(0.0)


def test_fallback_failure_starts_cooldown():
    fb = FallbackController(cooldown_seconds=2.0)
    fb.record_failure(10.0)
    assert not fb.dma_allowed(10.5)
    assert not fb.probe_due(11.9)  # still cooling down
    # cooldown over but probe pending: still no normal DMA
    assert fb.probe_due(12.1)
    assert not fb.dma_allowed(12.1)


def test_fallback_probe_success_rearms():
    fb = FallbackController(cooldown_seconds=2.0)
    fb.record_failure(0.0)
    fb.record_probe(True, 2.5)
    assert fb.dma_allowed(2.5)
    assert fb.probes_succeeded == 1


def test_fallback_probe_failure_extends_cooldown():
    fb = FallbackController(cooldown_seconds=2.0)
    fb.record_failure(0.0)
    fb.record_probe(False, 2.5)
    assert not fb.dma_allowed(3.0)
    assert fb.probe_due(4.6)


def test_fallback_statistics():
    fb = FallbackController(cooldown_seconds=1.0)
    fb.record_failure(0.0)
    fb.record_fallback_segment()
    fb.record_fallback_segment()
    assert fb.failures == 1
    assert fb.fallback_segments == 2


# --------------------------------------------------------------- doca


def test_mr_cache_skips_renegotiation():
    env = Environment()
    node, profile = make_dpu_node(env)
    comm = CommChannel(node, negotiate_latency=1e-3)
    doca = DocaDma(node, comm, mr_cache_enabled=True)
    region = MemoryRegion(2 * MB)
    thread = SimThread(node.dpu_cpu, "t", "proxy")

    def work():
        yield from doca.transfer(region, MB, thread)
        yield from doca.transfer(region, MB, thread)

    p = env.process(work())
    env.run(until=p)
    assert comm.negotiations == 1
    assert doca.cache_hits == 1
    assert doca.cache_misses == 1


def test_mr_cache_disabled_negotiates_every_time():
    env = Environment()
    node, profile = make_dpu_node(env)
    comm = CommChannel(node, negotiate_latency=1e-3)
    doca = DocaDma(node, comm, mr_cache_enabled=False)
    region = MemoryRegion(2 * MB)
    thread = SimThread(node.dpu_cpu, "t", "proxy")

    def work():
        for _ in range(3):
            yield from doca.transfer(region, MB, thread)

    p = env.process(work())
    env.run(until=p)
    assert comm.negotiations == 3
    assert doca.cache_hits == 0


def test_doca_failure_invalidates_cached_region():
    env = Environment()
    node, profile = make_dpu_node(env)
    comm = CommChannel(node, negotiate_latency=1e-3)
    doca = DocaDma(node, comm, mr_cache_enabled=True)
    region = MemoryRegion(2 * MB)
    thread = SimThread(node.dpu_cpu, "t", "proxy")
    fail_next = [False]
    node.dma.fault_injector = SimpleNamespace(
        fire=lambda now, size: fail_next[0])

    def work():
        from repro.hw import DmaError

        yield from doca.transfer(region, MB, thread)
        fail_next[0] = True
        try:
            yield from doca.transfer(region, MB, thread)
        except DmaError:
            pass
        fail_next[0] = False
        yield from doca.transfer(region, MB, thread)

    p = env.process(work())
    env.run(until=p)
    # first transfer negotiates; failure invalidates; third renegotiates
    assert comm.negotiations == 2


def test_doca_rejects_transfer_bigger_than_region():
    env = Environment()
    node, profile = make_dpu_node(env)
    doca = DocaDma(node, CommChannel(node, 1e-3))
    region = MemoryRegion(1024)
    thread = SimThread(node.dpu_cpu, "t", "proxy")

    def work():
        yield from doca.transfer(region, 4096, thread)

    p = env.process(work())
    with pytest.raises(ValueError):
        env.run(until=p)


def test_doca_requires_dma_node():
    env = Environment()
    network = Network(env)
    host_cpu = CpuComplex(env, "h", cores=2)
    ssd = SsdDevice(env, "s")
    from repro.hw import TcpStackModel

    node = ClusterNode(env, network, "plain", host_cpu, ssd,
                       nic_bandwidth=1e9, tcp=TcpStackModel())
    with pytest.raises(ValueError):
        DocaDma(node, CommChannel(node, 1e-3))


# --------------------------------------------------------------- rpc channel


def make_rpc(env):
    node, profile = make_dpu_node(env)
    channel = RpcChannel(node, profile)
    thread = SimThread(node.dpu_cpu, "caller", "proxy")
    return node, channel, thread


def test_rpc_call_roundtrip():
    env = Environment()
    node, channel, thread = make_rpc(env)

    def handler(req, t):
        (text,) = wire.compile_schema((("text", wire.STR),)).decode(
            req.payload)
        req.reply = {"echo": text}
        if False:
            yield

    channel.register_handler("echo", handler)

    def work():
        bl = BufferList()
        bl.encode_str("hello")
        req = yield from channel.call("echo", bl, thread)
        return req.reply

    p = env.process(work())
    env.run(until=p)
    assert p.value == {"echo": "hello"}
    assert channel.calls == 1


def test_rpc_unknown_op_errors():
    env = Environment()
    node, channel, thread = make_rpc(env)

    def work():
        try:
            yield from channel.call("nope", BufferList(), thread)
        except RpcError as exc:
            return str(exc)

    p = env.process(work())
    env.run(until=p)
    assert "no handler" in p.value
    assert channel.errors == 1


def test_rpc_handler_exception_propagates_as_error():
    env = Environment()
    node, channel, thread = make_rpc(env)

    def handler(req, t):
        raise RuntimeError("kaboom")
        if False:
            yield

    channel.register_handler("bad", handler)

    def work():
        try:
            yield from channel.call("bad", BufferList(), thread)
        except RpcError as exc:
            return str(exc)

    p = env.process(work())
    env.run(until=p)
    assert "RuntimeError" in p.value and "kaboom" in p.value


def test_rpc_charges_host_proxy_cpu():
    env = Environment()
    node, channel, thread = make_rpc(env)

    def handler(req, t):
        req.reply = {"ok": True}
        if False:
            yield

    channel.register_handler("ping", handler)

    def work():
        for _ in range(10):
            yield from channel.call("ping", BufferList(), thread)

    p = env.process(work())
    env.run(until=p)
    assert node.host_cpu.accounting.busy_by_category.get("proxy", 0) > 0


def test_rpc_bulk_bytes_ride_the_socket():
    env = Environment()
    node, channel, thread = make_rpc(env)
    times = {}

    def handler(req, t):
        req.reply = {"ok": True}
        if False:
            yield

    channel.register_handler("bulk", handler)

    def work(tag, bulk):
        t0 = env.now
        yield from channel.call("bulk", BufferList(), thread,
                                bulk_bytes=bulk)
        times[tag] = env.now - t0

    p1 = env.process(work("small", 0))
    env.run(until=p1)
    p2 = env.process(work("big", 8 * MB))
    env.run(until=p2)
    assert times["big"] > 5 * times["small"]
    assert channel.bulk_bytes == 8 * MB


def test_rpc_requires_dpu_node():
    env = Environment()
    network = Network(env)
    from repro.hw import TcpStackModel

    node = ClusterNode(env, network, "plain",
                       CpuComplex(env, "h", cores=2),
                       SsdDevice(env, "s"),
                       nic_bandwidth=1e9, tcp=TcpStackModel())
    with pytest.raises(ValueError):
        RpcChannel(node, DocephProfile())


@pytest.mark.parametrize("timeout", [0.0, -1.0, float("nan")])
def test_rpc_rejects_a_timeout_that_is_not_positive(timeout):
    """Every call waits a bounded time: a channel that would wait
    forever (or never) is refused when it is built."""
    env = Environment()
    node, _ = make_dpu_node(env)
    with pytest.raises(ValueError, match="rpc_timeout_seconds"):
        RpcChannel(node, DocephProfile(rpc_timeout_seconds=timeout))


# --------------------------------------------------------------- pipeline


def make_pipeline(env, pipelined=True, n_buffers=4, profile=None,
                  dma_kwargs=None):
    node, profile = make_dpu_node(env, profile, dma_kwargs)
    channel = RpcChannel(node, profile)

    def bulk_handler(req, t):
        req.reply = {"ok": True}
        if False:
            yield

    channel.register_handler("bulk", bulk_handler)
    comm = CommChannel(node, profile.comm_channel_negotiate_latency)
    doca = DocaDma(node, comm, mr_cache_enabled=True)
    fb = FallbackController(cooldown_seconds=0.5)
    stage_thread = SimThread(node.dpu_cpu, "stage", "proxy")
    pipe = DmaPipeline(
        env, doca, channel, fb,
        stage_thread=stage_thread,
        memcpy_bandwidth=3e9,
        segment_bytes=2 * MB,
        n_buffers=n_buffers,
        pipelined=pipelined,
    )
    thread = SimThread(node.dpu_cpu, "caller", "proxy")
    return node, pipe, fb, thread


def test_pipeline_moves_all_bytes():
    env = Environment()
    node, pipe, fb, thread = make_pipeline(env)

    def work():
        timing = yield from pipe.push(7 * MB, thread)
        return timing

    p = env.process(work())
    env.run(until=p)
    timing = p.value
    assert timing.size == 7 * MB
    assert timing.segments == 4
    assert node.dma.bytes_transferred == 7 * MB
    assert timing.dma_time > 0
    assert timing.total > 0


def test_pipelined_beats_sequential_latency():
    def run(pipelined):
        env = Environment()
        node, pipe, fb, thread = make_pipeline(env, pipelined=pipelined)

        def work():
            timing = yield from pipe.push(16 * MB, thread)
            return timing.total

        p = env.process(work())
        env.run(until=p)
        return p.value

    assert run(True) < run(False)


@pytest.mark.parametrize("n", [1, 4, 6])
def test_pipelining_costs_one_process_per_segment(n):
    """The two modes run the same loop and the same ``_dma_segment``;
    pipelining only turns each segment into a process of its own, i.e.
    one ``Initialize`` and one completion event per segment."""
    def run(pipelined):
        env = Environment()
        node, pipe, fb, thread = make_pipeline(env, pipelined=pipelined)
        p = env.process(pipe.push(n * 2 * MB, thread))
        env.run()
        assert p.value.segments == n and p.value.fallback_bytes == 0
        assert node.dma.transfers == n
        assert len(pipe._buffers.items) == 4  # every staging buffer is back
        return env.events_scheduled

    assert run(True) - run(False) == 2 * n


def test_pipeline_requires_two_buffers_when_pipelined():
    env = Environment()
    with pytest.raises(ValueError):
        make_pipeline(env, pipelined=True, n_buffers=1)
    # sequential mode works with a single buffer
    env2 = Environment()
    node, pipe, fb, thread = make_pipeline(env2, pipelined=False, n_buffers=1)

    def work():
        yield from pipe.push(4 * MB, thread)

    p = env2.process(work())
    env2.run(until=p)
    assert node.dma.bytes_transferred == 4 * MB


def test_pipeline_fallback_on_dma_failure():
    env = Environment()
    node, pipe, fb, thread = make_pipeline(env)
    # fail the 2nd transfer only
    count = [0]

    def fire(now, size):
        count[0] += 1
        return count[0] == 2

    node.dma.fault_injector = SimpleNamespace(fire=fire)

    def work():
        timing = yield from pipe.push(8 * MB, thread)
        return timing

    p = env.process(work())
    env.run(until=p)
    timing = p.value
    assert fb.failures == 1
    # the failed segment (plus any in-cooldown ones) went via RPC
    assert timing.fallback_bytes >= 2 * MB
    assert fb.fallback_segments >= 1
    # successful DMA bytes + fallback bytes cover the request
    assert node.dma.bytes_transferred + timing.fallback_bytes == 8 * MB


def test_pipeline_probe_reenables_dma():
    env = Environment()
    node, pipe, fb, thread = make_pipeline(env)
    fb.record_failure(env.now)  # force cooldown

    def work():
        # During cooldown: all RPC
        t1 = yield from pipe.push(2 * MB, thread)
        yield env.timeout(1.0)  # cooldown (0.5 s) expires
        t2 = yield from pipe.push(2 * MB, thread)
        return t1, t2

    p = env.process(work())
    env.run(until=p)
    t1, t2 = p.value
    assert t1.fallback_bytes == 2 * MB
    assert t2.fallback_bytes == 0
    assert fb.probes_succeeded == 1
    assert node.dma.bytes_transferred == 2 * MB + PROBE_BYTES


def test_pipeline_zero_bytes_is_noop():
    env = Environment()
    node, pipe, fb, thread = make_pipeline(env)

    def work():
        timing = yield from pipe.push(0, thread)
        return timing

    p = env.process(work())
    env.run(until=p)
    assert p.value.segments == 0
    assert node.dma.transfers == 0
