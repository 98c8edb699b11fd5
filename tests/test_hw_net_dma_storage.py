"""Tests for network, TCP cost model, DMA engine, and SSD models."""

from types import SimpleNamespace

import pytest

from repro.hw import (
    DmaEngine,
    DmaError,
    MAX_DMA_TRANSFER,
    Network,
    Nic,
    SsdDevice,
    TcpStackModel,
)
from repro.sim import Environment, SimulationError


# ---------------------------------------------------------------- network


def test_delivery_time_uncontended():
    env = Environment()
    net = Network(env, latency_s=1e-3)
    for name in ("a", "b"):
        net.attach(name, Nic(env, name, bandwidth_bps=8e6))  # 1 MB/s

    def proc():
        yield from net.deliver("a", "b", 1_000_000)
        return env.now

    p = env.process(proc())
    env.run()
    # Cut-through: tx serialization (1 s) overlaps rx except for the
    # final chunk (262144 B → 0.262 s) plus one propagation latency.
    expected = 1.0 + 1e-3 + 262_144 * 8 / 8e6
    assert p.value == pytest.approx(expected, rel=1e-6)


def test_loopback_is_free():
    env = Environment()
    net = Network(env, latency_s=1e-3)
    net.attach("a", Nic(env, "a", bandwidth_bps=8e6))

    def proc():
        yield from net.deliver("a", "a", 10_000_000)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == 0.0


def test_saturated_throughput_equals_bandwidth():
    """Many concurrent senders share the rx pipe at exactly its rate."""
    env = Environment()
    net = Network(env, latency_s=0.0)
    net.attach("dst", Nic(env, "dst", bandwidth_bps=8e6))  # 1 MB/s
    for i in range(4):
        net.attach(f"src{i}", Nic(env, f"src{i}", bandwidth_bps=80e6))

    done = []

    def sender(i):
        yield from net.deliver(f"src{i}", "dst", 1_000_000)
        done.append(env.now)

    for i in range(4):
        env.process(sender(i))
    env.run()
    # 4 MB through a 1 MB/s rx pipe: last completion at ~4 s.
    assert done[-1] == pytest.approx(4.0, rel=0.05)


def test_chunking_prevents_head_of_line_blocking():
    """A small message slips between chunks of a big one."""
    env = Environment()
    net = Network(env, latency_s=0.0)
    net.attach("dst", Nic(env, "dst", bandwidth_bps=8e6, chunk_bytes=10_000))
    net.attach("big", Nic(env, "big", bandwidth_bps=800e6))
    net.attach("small", Nic(env, "small", bandwidth_bps=800e6))

    small_done = []

    def big_sender():
        yield from net.deliver("big", "dst", 1_000_000)  # 1 s of rx time

    def small_sender():
        yield env.timeout(0.001)
        yield from net.deliver("small", "dst", 1_000)
        small_done.append(env.now)

    env.process(big_sender())
    env.process(small_sender())
    env.run()
    # Without chunking the small message would wait the full 1 s.
    assert small_done[0] < 0.1


def test_network_duplicate_attach_and_unknown():
    env = Environment()
    net = Network(env)
    net.attach("a", Nic(env, "a", 1e9))
    with pytest.raises(SimulationError):
        net.attach("a", Nic(env, "a2", 1e9))
    with pytest.raises(SimulationError):
        net.nic("zzz")


def test_pipe_statistics():
    env = Environment()
    net = Network(env, latency_s=0)
    net.attach("a", Nic(env, "a", 8e6))
    net.attach("b", Nic(env, "b", 8e6))

    def proc():
        yield from net.deliver("a", "b", 500_000)

    env.process(proc())
    env.run()
    assert net.nic("a").tx.bytes_transferred == 500_000
    assert net.nic("b").rx.bytes_transferred == 500_000
    assert net.nic("a").tx.busy_time == pytest.approx(0.5)


def test_rx_chunk_machines_are_recycled_through_a_bounded_free_list():
    """A delivery's chunk machines go back to the receiving pipe once
    joined and serve the next one; past the bound they are dropped with
    their callbacks unbound, so not even the overflow is cyclic garbage."""
    import gc

    from repro.hw.net import _RX_FREE_MAX, _RxChunk

    env = Environment()
    net = Network(env, latency_s=1e-4)
    net.attach("a", Nic(env, "a", 8e9))
    net.attach("b", Nic(env, "b", 8e9))
    rx = net.nic("b").rx
    chunk = rx.chunk_bytes

    def deliver(nbytes):
        events = env.events_scheduled
        env.process(net.deliver("a", "b", nbytes))
        env.run()
        return env.events_scheduled - events

    first = deliver(5 * chunk)
    machines = list(rx._rx_free)
    assert len(machines) == 5
    # The same five machines, the same number of events, the same bytes.
    assert deliver(5 * chunk) == first
    assert sorted(map(id, rx._rx_free)) == sorted(map(id, machines))
    assert rx.bytes_transferred == 10 * chunk

    def alive():
        return sum(type(obj) is _RxChunk for obj in gc.get_objects())

    gc.disable()  # whatever goes now is freed by reference count alone
    try:
        before = alive()
        deliver((_RX_FREE_MAX + 30) * chunk)  # all joined at the very end
        assert len(rx._rx_free) == _RX_FREE_MAX
        assert alive() - before == _RX_FREE_MAX - 5
    finally:
        gc.enable()


# ---------------------------------------------------------------- tcp model


def test_tcp_costs_scale_with_bytes():
    tcp = TcpStackModel()
    assert tcp.send_cpu(1 << 20) > tcp.send_cpu(1 << 10)
    assert tcp.recv_cpu(1 << 20) > tcp.send_cpu(1 << 20)  # recv is pricier


def test_tcp_minimum_one_syscall():
    tcp = TcpStackModel()
    assert tcp.send_ctx(1) == tcp.ctx_per_syscall
    assert tcp.recv_ctx(1) == tcp.ctx_per_wakeup + tcp.ctx_per_syscall
    assert tcp.send_cpu(0) > 0  # even empty messages pay the syscall


def test_tcp_ctx_counts_grow_with_size():
    tcp = TcpStackModel(syscall_bytes=1000)
    assert tcp.send_ctx(10_000) == 10
    assert tcp.recv_ctx(10_000) == 11


# ---------------------------------------------------------------- dma


def test_dma_transfer_time():
    env = Environment()
    dma = DmaEngine(env, "d", bandwidth=1e9, setup_latency=1e-3)

    def proc():
        waited = yield from dma.transfer(1_000_000)
        return (env.now, waited)

    p = env.process(proc())
    env.run()
    t, waited = p.value
    assert t == pytest.approx(1e-3 + 1e-3)
    assert waited == 0.0
    assert dma.bytes_transferred == 1_000_000
    assert dma.transfers == 1


def test_dma_respects_hardware_cap():
    env = Environment()
    dma = DmaEngine(env, "d")

    def proc():
        yield from dma.transfer(MAX_DMA_TRANSFER + 1)

    env.process(proc())
    with pytest.raises(SimulationError, match="segment"):
        env.run()


def test_dma_channel_queueing_reports_wait():
    env = Environment()
    dma = DmaEngine(env, "d", bandwidth=1e6, setup_latency=0, channels=1)
    waits = []

    def proc():
        waited = yield from dma.transfer(1_000_000)  # 1 s each
        waits.append(waited)

    env.process(proc())
    env.process(proc())
    env.run()
    assert waits[0] == pytest.approx(0.0)
    assert waits[1] == pytest.approx(1.0)
    assert dma.wait_time == pytest.approx(1.0)


def test_dma_fault_injection():
    env = Environment()
    dma = DmaEngine(env, "d")
    dma.fault_injector = SimpleNamespace(fire=lambda now, size: True)

    def proc():
        try:
            yield from dma.transfer(4096)
        except DmaError:
            return "failed"

    p = env.process(proc())
    env.run()
    assert p.value == "failed"
    assert dma.failures == 1
    assert dma.transfers == 0
    assert dma.bytes_transferred == 0


def test_dma_invalid_sizes():
    env = Environment()
    dma = DmaEngine(env, "d")

    def proc():
        yield from dma.transfer(0)

    env.process(proc())
    with pytest.raises(SimulationError):
        env.run()


def test_dma_multi_channel_parallelism():
    env = Environment()
    dma = DmaEngine(env, "d", bandwidth=1e6, setup_latency=0, channels=2)
    done = []

    def proc():
        yield from dma.transfer(1_000_000)
        done.append(env.now)

    env.process(proc())
    env.process(proc())
    env.run()
    assert done == [pytest.approx(1.0), pytest.approx(1.0)]


# ---------------------------------------------------------------- ssd


def test_ssd_write_time_and_stats():
    env = Environment()
    ssd = SsdDevice(env, "s", write_bandwidth=1e9, write_latency=1e-4)

    def proc():
        yield from ssd.write(1_000_000)
        return env.now

    p = env.process(proc())
    env.run()
    assert p.value == pytest.approx(1e-4 + 1e-3)
    assert ssd.bytes_written == 1_000_000
    assert ssd.writes == 1


def test_ssd_reads_and_writes_share_channel():
    env = Environment()
    ssd = SsdDevice(env, "s", write_bandwidth=1e6, read_bandwidth=1e6,
                    write_latency=0, read_latency=0)
    order = []

    def writer():
        yield from ssd.write(1_000_000)
        order.append(("w", env.now))

    def reader():
        yield from ssd.read(1_000_000)
        order.append(("r", env.now))

    env.process(writer())
    env.process(reader())
    env.run()
    assert order == [("w", pytest.approx(1.0)), ("r", pytest.approx(2.0))]


def test_ssd_utilization():
    env = Environment()
    ssd = SsdDevice(env, "s", write_bandwidth=1e6, write_latency=0)

    def proc():
        yield from ssd.write(500_000)
        yield env.timeout(0.5)  # idle

    env.process(proc())
    env.run()
    assert ssd.utilization(env.now) == pytest.approx(0.5)


def test_ssd_saturation_throughput():
    """Aggregate write throughput cannot exceed device bandwidth."""
    env = Environment()
    ssd = SsdDevice(env, "s", write_bandwidth=1e6, write_latency=0)

    def writer():
        for _ in range(5):
            yield from ssd.write(100_000)

    for _ in range(4):
        env.process(writer())
    env.run()
    total = 4 * 5 * 100_000
    assert env.now == pytest.approx(total / 1e6)
