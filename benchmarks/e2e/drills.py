"""Layer drills: timed calls into one layer's public functions with a
fixed work count, outside any cluster.

A drill isolates the per-call cost an end-to-end replay can only show
diluted.  Each runs once per traced invocation; the two ``hw`` drills
return exact event counts, the rest wall time per operation.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.crush import CrushMap
from repro.hw.dma import DmaEngine
from repro.hw.net import Network, Nic
from repro.msgr.message import MOSDOp, OpType, decode_message
from repro.objectstore.bluestore.allocator import BitmapAllocator
from repro.osd.opqueue import QosSpec, WeightedPriorityQueue
from repro.sim import Environment, Resource, Store
from repro.util.bufferlist import BufferList, DataBlob
from repro.util.wallclock import perf_counter

MB = 1 << 20


def _timed(fn: Callable[[], Any]) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def _run(env: Environment, *bodies: Generator[Any, Any, None]) -> float:
    """Wall seconds to run ``bodies`` as processes until the queue drains."""
    for body in bodies:
        env.process(body)
    return _timed(env.run)


def sim_timeout_event() -> float:
    n = 200_000
    env = Environment()

    def body() -> Generator[Any, Any, None]:
        for _ in range(n):
            yield env.timeout(1.0)

    return 1e9 * _run(env, body()) / n


def sim_resource_cycle() -> float:
    n = 100_000
    env = Environment()
    res = Resource(env, capacity=1)

    def body() -> Generator[Any, Any, None]:
        for _ in range(n):
            req = res.request()
            yield req
            yield env.timeout(1.0)
            res.release(req)

    # two contenders, so every other request queues behind a holder
    return 1e9 * _run(env, body(), body()) / (2 * n)


def sim_store_putget() -> float:
    n = 100_000
    env = Environment()
    store = Store(env)

    def producer() -> Generator[Any, Any, None]:
        for i in range(n):
            yield store.put(i)

    def consumer() -> Generator[Any, Any, None]:
        for _ in range(n):
            yield store.get()

    return 1e9 * _run(env, producer(), consumer()) / n


def _encode_header(i: int) -> BufferList:
    bl = BufferList()
    bl.encode_u16(42)
    bl.encode_u64(i)
    bl.encode_str("client")
    bl.encode_str("bench")
    bl.encode_str(f"bench_{i % 16}_{i}")
    bl.encode_u8(1)
    bl.encode_u64(4 * MB)
    bl.encode_u64(0)
    bl.encode_u32(7)
    bl.encode_bool(True)
    return bl


def util_bufferlist_encode() -> float:
    n = 50_000

    def body() -> None:
        for i in range(n):
            _encode_header(i)

    return 1e6 * _timed(body) / n


def util_crc32() -> float:
    n = 200
    bl = BufferList()
    bl.append_raw(bytes(MB))

    def body() -> None:
        for _ in range(n):
            bl.crc32()

    return n / _timed(body)


def crush_map_x() -> float:
    n = 4_000
    cmap = CrushMap()
    cmap.add_bucket("default", "root")
    for i in range(2):
        cmap.add_bucket(f"host{i}", "host")
        cmap.add_device(f"host{i}", i, weight=1.0)
        cmap.link_bucket("default", f"host{i}")
    rule = CrushMap.replicated_rule()
    cmap.add_rule(rule)

    def body() -> None:
        for x in range(n):
            cmap.map_x(rule.name, x, 2)

    return 1e6 * _timed(body) / n


def msgr_mosdop_roundtrip() -> float:
    n = 20_000
    blob = DataBlob(length=4 * MB)

    def body() -> None:
        for i in range(n):
            msg = MOSDOp(
                src="client", tid=i, pool="bench",
                object_name=f"bench_{i % 16}_{i}", op=OpType.WRITE,
                length=4 * MB, data=blob, map_epoch=7,
            )
            decode_message(msg.encode())

    return 1e6 * _timed(body) / n


def _opqueue_cycle(tenants: tuple[str, ...]) -> float:
    """Enqueue ``depth`` items, dequeue them, repeat: the backlog stays
    at the handful of ops an OSD queue holds in the replays (mClock's
    weight-phase service is linear in a tenant's backlog)."""
    n, depth = 48_000, 16
    env = Environment()
    queue = WeightedPriorityQueue(env)
    for i, name in enumerate(tenants):
        queue.set_tenant(
            name, QosSpec(reservation=1000.0, weight=float(1 + i))
        )

    def body() -> Generator[Any, Any, None]:
        for base in range(0, n, depth):
            for i in range(base, base + depth):
                tenant = tenants[i % len(tenants)] if tenants else None
                queue.enqueue(i, tenant=tenant)
            for _ in range(depth):
                yield queue.dequeue()

    return 1e6 * _run(env, body()) / n


def osd_opqueue_cycle() -> float:
    return _opqueue_cycle(())


def osd_mclock_cycle() -> float:
    return _opqueue_cycle(("t0", "t1", "t2", "t3"))


def objectstore_alloc_free() -> float:
    n = 2_000
    alloc = BitmapAllocator(capacity=1 << 34)

    def body() -> None:
        for _ in range(n):
            alloc.free(alloc.allocate(4 * MB))

    return 1e6 * _timed(body) / n


def hw_events_per_mb_net() -> float:
    mb = 64
    env = Environment()
    net = Network(env)
    for address in ("a", "b"):
        net.attach(address, Nic(env, f"{address}.nic", bandwidth_bps=100e9))
    env.process(net.deliver("a", "b", mb * MB))
    env.run()
    return env.events_scheduled / mb


def hw_events_per_dma_segment() -> float:
    n = 64
    env = Environment()
    dma = DmaEngine(env, "drill.dma", bandwidth=1.0e9, setup_latency=2.28e-3)

    def body() -> Generator[Any, Any, None]:
        for _ in range(n):
            yield from dma.transfer(2 * MB)

    env.process(body())
    env.run()
    return env.events_scheduled / n


#: metric name -> (drill, unit).  Names are the ones BENCHMARK.json lists.
DRILLS: dict[str, tuple[Callable[[], float], str]] = {
    "drill.sim.ns_per_timeout_event": (sim_timeout_event, "ns"),
    "drill.sim.ns_per_resource_cycle": (sim_resource_cycle, "ns"),
    "drill.sim.ns_per_store_putget": (sim_store_putget, "ns"),
    "drill.util.us_per_bufferlist_encode": (util_bufferlist_encode, "us"),
    "drill.util.crc32_mb_per_s": (util_crc32, "MB/s"),
    "drill.crush.us_per_map_x": (crush_map_x, "us"),
    "drill.msgr.us_per_mosdop_roundtrip": (msgr_mosdop_roundtrip, "us"),
    "drill.osd.us_per_opqueue_cycle": (osd_opqueue_cycle, "us"),
    "drill.osd.us_per_mclock_cycle": (osd_mclock_cycle, "us"),
    "drill.objectstore.us_per_alloc_free": (objectstore_alloc_free, "us"),
    "drill.hw.events_per_mb_net": (hw_events_per_mb_net, "events/MB"),
    "drill.hw.events_per_dma_segment": (hw_events_per_dma_segment,
                                        "events/seg"),
}
