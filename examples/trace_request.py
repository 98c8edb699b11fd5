#!/usr/bin/env python3
"""Trace a single write through the DoCeph pipeline.

Attaches a :class:`~repro.trace.Tracer` at build time, writes one 8 MiB
object, and prints the request's life story from its ``osd.op`` span
(begin, then the OSD's stage marks as span events): dispatch → PG
processing → replication sub-op → DMA staging/segments → host BlueStore
commit → client reply.  The proxy's latency breakdown follows.  The
tracer only observes: the write's latency is the untraced run's.

Run:  python examples/trace_request.py
"""

from repro.cluster import BENCH_POOL, build_doceph_cluster
from repro.sim import Environment
from repro.trace import Tracer


def main() -> None:
    env = Environment()
    tracer = Tracer()
    cluster = build_doceph_cluster(env, tracer=tracer)
    boot = env.process(cluster.boot(), name="boot")
    env.run(until=boot)

    def work():
        result = yield from cluster.client.write_object(
            BENCH_POOL, "traced-object", 8 << 20
        )
        return result

    p = env.process(work(), name="work")
    env.run(until=p)
    result = p.value
    print(f"wrote 8 MiB in {result.latency * 1e3:.2f} ms end-to-end\n")

    for span in tracer.report().find("osd.op"):
        t0 = span.begin
        print(f"osd.{span.tags['osd']}: osd_op({span.tags['op']}) "
              f"({span.duration * 1e3:.2f} ms total)")
        print(f"  +{0.0:7.3f} ms  initiated")
        for t, stage in span.events:
            print(f"  +{(t - t0) * 1e3:7.3f} ms  {stage}")
        print(f"  +{(span.end - t0) * 1e3:7.3f} ms  reply_sent")
        print()

    print("proxy-side DMA anatomy (Table 3's view of the same request):")
    for osd in cluster.osds:
        for bd in osd.store.breakdowns:
            print(f"  {osd.name}: size={bd.size >> 20} MiB  "
                  f"dma={bd.dma * 1e3:.2f} ms  "
                  f"dma_wait={bd.dma_wait * 1e3:.2f} ms  "
                  f"stage={bd.stage * 1e3:.2f} ms  "
                  f"host_write={bd.host_write * 1e3:.2f} ms  "
                  f"others={bd.others * 1e3:.2f} ms")
    segs = sum(n.dma.transfers for n in cluster.nodes)
    print(f"\n{segs} DMA segments moved (8 MiB → 4 × 2 MiB per node, "
          f"primary + replica).")


if __name__ == "__main__":
    main()
