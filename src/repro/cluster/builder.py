"""Cluster assembly: Baseline (NIC-mode) and DoCeph (DPU-mode) testbeds.

Mirrors the paper's three-node testbed (§5.1): one client node plus two
storage nodes, 100 GbE (or 1 GbE) through one switch, one OSD per
storage node, replication 2.

* :func:`build_baseline_cluster` — the BlueField runs as a plain NIC;
  MON, OSD, messenger, and BlueStore all burn host CPU.
* :func:`build_doceph_cluster` — the BlueField runs in DPU mode; the
  OSD (and its messenger) live on the DPU's ARM cores, the host keeps
  only BlueStore plus the thin proxy server, and the two talk through
  the RPC/DMA proxy channels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from ..crush import CrushMap
from ..hw.cpu import CpuComplex
from ..hw.dma import DmaEngine
from ..hw.net import Network, Nic
from ..hw.node import ClusterNode, NetStack
from ..hw.storage import SsdDevice
from ..msgr.messenger import AsyncMessenger, MsgrDirectory
from ..objectstore.bluestore import BlueStore
from ..osd.daemon import OsdDaemon
from ..rados.client import RadosClient
from ..rados.monitor import Monitor
from ..rados.osdmap import OsdMap
from ..rados.types import Pool
from ..faults import FaultPlan
from ..sim import Environment
from .config import DocephProfile, HardwareProfile

__all__ = ["Cluster", "build_baseline_cluster", "build_doceph_cluster"]

#: Benchmark pool name used throughout the experiments.
BENCH_POOL = "bench"


@dataclass
class Cluster:
    """A fully wired testbed ready for benchmarking."""

    env: Environment
    profile: HardwareProfile
    network: Network
    directory: MsgrDirectory
    osdmap: OsdMap
    nodes: list[ClusterNode] = field(default_factory=list)
    osds: list[OsdDaemon] = field(default_factory=list)
    stores: list[BlueStore] = field(default_factory=list)
    mon: Optional[Monitor] = None
    client: Optional[RadosClient] = None
    mode: str = "baseline"
    #: DoCeph only: per-node host proxy servers (RPC + DMA pollers).
    proxy_servers: list[Any] = field(default_factory=list)
    #: The fault plan attached at build time (None = fault-free run).
    fault_plan: Optional[FaultPlan] = None
    #: The tracer attached at build time (None = tracing disabled).
    tracer: Any = None

    def boot(self) -> Generator[Any, Any, None]:
        """Bring the cluster up: activate PGs, start heartbeats/beacons,
        boot the client.  Run this before benchmarking."""
        for osd in self.osds:
            yield from osd.activate_pgs(BENCH_POOL)
        for osd in self.osds:
            osd.start_heartbeats()
            if self.mon is not None:
                osd.start_mon_beacon(self.mon.address)
            osd.enable_recovery([BENCH_POOL], tick=self.profile.recovery_tick)
        if self.client is not None:
            yield from self.client.boot()

    # -- observability -----------------------------------------------------------
    def host_cpus(self) -> list[CpuComplex]:
        return [node.host_cpu for node in self.nodes]

    def dpu_cpus(self) -> list[CpuComplex]:
        return [node.dpu_cpu for node in self.nodes if node.dpu_cpu]

    def ceph_cpus(self) -> list[CpuComplex]:
        """The complexes running Ceph daemons (host in baseline, DPU in
        DoCeph) — where Figure 5's breakdown is measured."""
        if self.mode == "doceph":
            return self.dpu_cpus()
        return self.host_cpus()


def _make_crush(n_nodes: int) -> CrushMap:
    cmap = CrushMap()
    cmap.add_bucket("default", "root")
    for i in range(n_nodes):
        host = f"host{i}"
        cmap.add_bucket(host, "host")
        cmap.add_device(host, i, weight=1.0)
        cmap.link_bucket("default", host)
    cmap.add_rule(CrushMap.replicated_rule())
    return cmap


def _make_osdmap(profile: HardwareProfile) -> OsdMap:
    osdmap = OsdMap(crush=_make_crush(profile.storage_nodes))
    osdmap.create_pool(
        Pool(id=1, name=BENCH_POOL, pg_num=profile.pg_num,
             size=profile.replication)
    )
    return osdmap


def _attach_aux_endpoint(
    env: Environment,
    network: Network,
    cpu: CpuComplex,
    address: str,
    profile: HardwareProfile,
    bandwidth: float = 10e9,
) -> NetStack:
    """A light management endpoint (monitor port) sharing a node's CPU."""
    nic = Nic(env, f"{address}.nic", bandwidth_bps=bandwidth)
    network.attach(address, nic)
    return NetStack(cpu=cpu, nic=nic, network=network, address=address,
                    tcp=profile.tcp)


def _build_client(
    env: Environment,
    network: Network,
    directory: MsgrDirectory,
    profile: HardwareProfile,
    mon_addr: str,
) -> RadosClient:
    cpu = CpuComplex(env, "client.cpu", cores=profile.client_cores)
    nic = Nic(env, "client.nic", bandwidth_bps=profile.net_bandwidth)
    network.attach("client", nic)
    stack = NetStack(cpu=cpu, nic=nic, network=network, address="client",
                     tcp=profile.client_tcp or profile.tcp)
    messenger = AsyncMessenger(
        stack, "client", directory, workers=profile.msgr_workers,
        cost=profile.msgr_cost,
    )
    return RadosClient(
        messenger, mon_addr,
        op_timeout=profile.client_op_timeout,
        max_attempts=profile.client_max_attempts,
        retry_backoff=profile.client_retry_backoff,
    )


def _build_monitor(
    messenger: AsyncMessenger, osdmap: OsdMap, profile: HardwareProfile
) -> Monitor:
    return Monitor(
        messenger, osdmap,
        down_grace=profile.mon_down_grace,
        out_interval=profile.mon_out_interval,
        check_period=profile.mon_check_period,
        failure_reporters=profile.mon_failure_reporters,
    )


def build_baseline_cluster(
    env: Environment,
    profile: Optional[HardwareProfile] = None,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Any = None,
) -> Cluster:
    """The conventional deployment: full Ceph stack on host CPUs,
    BlueField in NIC mode."""
    return _build(env, profile or HardwareProfile(), "baseline",
                  fault_plan, tracer)


def build_doceph_cluster(
    env: Environment,
    profile: Optional[DocephProfile] = None,
    fault_plan: Optional[FaultPlan] = None,
    tracer: Any = None,
) -> Cluster:
    """The paper's architecture: OSD + messenger on the DPU, BlueStore
    (plus the thin proxy server) on the host, RPC/DMA in between."""
    return _build(env, profile or DocephProfile(), "doceph",
                  fault_plan, tracer)


def _build(
    env: Environment,
    profile: HardwareProfile,
    mode: str,
    fault_plan: Optional[FaultPlan],
    tracer: Any,
) -> Cluster:
    """Both testbeds.  ``mode`` comes from the public builder that was
    called, never from the profile's type: a :class:`DocephProfile`
    handed to the baseline builder builds a baseline cluster."""
    doceph = mode == "doceph"
    if doceph:
        from ..core.host_server import HostProxyServer
        from ..core.proxy_objectstore import ProxyObjectStore

    network = Network(env, latency_s=profile.net_latency)
    directory = MsgrDirectory()
    osdmap = _make_osdmap(profile)
    cluster = Cluster(
        env=env, profile=profile, network=network, directory=directory,
        osdmap=osdmap, mode=mode,
    )

    for i in range(profile.storage_nodes):
        name = f"node{i}"
        host_cpu = CpuComplex(env, f"{name}.host", cores=profile.host_cores,
                              perf=profile.host_perf)
        dpu_cpu = dma = None
        if doceph:
            dpu_cpu = CpuComplex(env, f"{name}.dpu", cores=profile.dpu_cores,
                                 perf=profile.dpu_perf)
        ssd = SsdDevice(
            env, f"{name}.ssd",
            write_bandwidth=profile.ssd_write_bandwidth,
            read_bandwidth=profile.ssd_read_bandwidth,
            write_latency=profile.ssd_write_latency,
            read_latency=profile.ssd_read_latency,
        )
        if doceph:
            dma = DmaEngine(
                env, f"{name}.dma",
                bandwidth=profile.dma_bandwidth,
                setup_latency=profile.dma_setup_latency,
                channels=profile.dma_channels,
                max_transfer=profile.dma_max_transfer,
            )
        node = ClusterNode(
            env, network, name, host_cpu, ssd,
            nic_bandwidth=profile.net_bandwidth, tcp=profile.tcp,
            dpu_cpu=dpu_cpu, dma=dma,
            pcie_rpc_latency=profile.pcie_rpc_latency,
        )
        store = BlueStore(env, f"{name}.bluestore", host_cpu, ssd,
                          profile.bluestore)
        store.mkfs()

        if doceph:
            server = HostProxyServer(node, store, profile)
            osd_store = ProxyObjectStore(node, server, profile)
            stack = node.dpu_stack()  # ← the paper's architectural move
            cluster.proxy_servers.append(server)
        else:
            osd_store = store
            stack = node.host_stack()
        messenger = AsyncMessenger(
            stack, f"osd.{i}", directory, workers=profile.msgr_workers,
            cost=profile.msgr_cost,
        )
        osd = OsdDaemon(i, messenger, osd_store, osdmap, profile.osd)
        osdmap.add_osd(i, address=name)

        cluster.nodes.append(node)
        cluster.stores.append(store)
        cluster.osds.append(osd)

    # Monitor: own management port on node0's Ceph complex — the DPU in
    # DoCeph ("the Ceph cluster is instantiated on the DPU", §5.1).
    mon_stack = _attach_aux_endpoint(
        env, network, cluster.ceph_cpus()[0], "mon0", profile
    )
    mon_msgr = AsyncMessenger(mon_stack, "mon.0", directory,
                              workers=1, cost=profile.msgr_cost)
    cluster.mon = _build_monitor(mon_msgr, osdmap, profile)

    cluster.client = _build_client(
        env, network, directory, profile, "mon0"
    )
    cluster.fault_plan = fault_plan
    if fault_plan is not None:
        fault_plan.attach_cluster(cluster)
    if tracer is not None:
        tracer.attach_cluster(cluster)
    return cluster
