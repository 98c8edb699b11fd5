"""DoCeph reproduction: DPU-offloaded Ceph messaging on a deterministic
discrete-event simulation substrate.

Quickstart
----------
>>> from repro.sim import Environment
>>> from repro.cluster import build_doceph_cluster
>>> from repro.bench import run_rados_bench
>>> env = Environment()
>>> cluster = build_doceph_cluster(env)
>>> result = run_rados_bench(cluster, object_size=4 << 20, duration=10)
>>> print(f"{result.iops:.0f} IOPS at "
...       f"{result.host_utilization_pct:.1f}% host CPU")  # doctest: +SKIP

Package map
-----------
- ``repro.sim`` — discrete-event simulation kernel
- ``repro.hw`` — CPU / network / TCP / DMA / SSD models
- ``repro.util`` — bufferlist, rjenkins hashes, stats, RNG
- ``repro.crush`` — CRUSH placement (straw2)
- ``repro.rados`` — pools, PGs, OSDMap, monitor, client
- ``repro.msgr`` — the async messenger (the offloaded component)
- ``repro.osd`` — the OSD daemon
- ``repro.objectstore`` — ObjectStore API + BlueStore
- ``repro.core`` — **DoCeph**: ProxyObjectStore, RPC/DMA planes,
  pipelining, fallback/cooldown
- ``repro.cluster`` — testbed assembly + calibrated profiles
- ``repro.bench`` — RADOS bench, metrics, experiment drivers
- ``repro.faults`` — deterministic fault injection plans
- ``repro.chaos`` — cluster-level chaos harness + durability checker
- ``repro.trace`` — cross-layer tracing: spans, critical path,
  Perfetto export
"""

__version__ = "1.0.0"
