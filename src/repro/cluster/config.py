"""Hardware profiles and calibration constants.

Absolute costs on the authors' testbed (AMD EPYC 9474F, BlueField-3,
PM893 SATA SSD, 100 GbE) are unknowable from the paper alone, so the
constants here are calibrated against the *published observables*:

* Fig. 5 — messenger ≈ 81 % of Ceph CPU at both 1 and 100 Gbps; total
  Ceph CPU (single-core-normalized) 24 % → ~70 %;
* Table 2 — messenger : ObjectStore context switches ≈ 10 : 1;
* Fig. 7 — baseline host CPU 94/70/69/67 % vs DoCeph ~5.5 % flat;
* Fig. 8/10 — baseline ≈ 480 MB/s large-block ceiling (storage-bound),
  DoCeph 30 % slower at 1 MB converging to ~4 % at 16 MB;
* Table 3/Fig. 9 — DMA-wait share of DoCeph latency ~45 % (1 MB) →
  ~12 % (16 MB).

CPU utilization percentages throughout this repo are **single-core
normalized** (busy-cores × 100), matching the paper's htop/per-process
convention; see ``repro.bench.metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..hw.tcp import TcpStackModel
from ..msgr.messenger import MessengerCostModel
from ..objectstore.bluestore import BlueStoreConfig
from ..osd.daemon import OsdConfig

__all__ = ["HardwareProfile", "DocephProfile", "GIGABIT", "HUNDRED_GIG"]

GIGABIT = 1e9
HUNDRED_GIG = 100e9


@dataclass(frozen=True)
class HardwareProfile:
    """Everything needed to instantiate one testbed configuration."""

    # -- topology --------------------------------------------------------------
    storage_nodes: int = 2
    """Cluster (storage) node count — the paper uses 2."""

    replication: int = 2
    """Pool size; 2 on a 2-node testbed."""

    pg_num: int = 128
    """Placement groups in the benchmark pool."""

    # -- host ------------------------------------------------------------------
    host_cores: int = 16
    """Cores available to Ceph daemons per storage node."""

    host_perf: float = 1.0
    """Host core performance (the reference)."""

    # -- DPU (BlueField-3) -------------------------------------------------------
    dpu_cores: int = 16
    """BF3 has 16 ARMv8.2 A78 cores."""

    dpu_perf: float = 0.45
    """ARM A78 @ 2 GHz relative to an EPYC 9474F core."""

    # -- network ------------------------------------------------------------------
    net_bandwidth: float = HUNDRED_GIG
    """Link speed in bits/s (1 Gbps or 100 Gbps in the paper)."""

    net_latency: float = 20e-6
    """Switch + wire propagation latency."""

    client_cores: int = 32
    """Client node cores (never the bottleneck in the paper)."""

    tcp: TcpStackModel = field(
        default_factory=lambda: TcpStackModel(
            syscall_cpu=5.0e-6,
            syscall_bytes=131_072,
            copy_bandwidth=2.8e9,
            segment_bytes=65_536,
            segment_cpu=5.0e-6,
            softirq_cpu=6.0e-6,
            wakeup_cpu=4.0e-6,
        )
    )
    """Kernel TCP stack costs (identical model on host and DPU; the DPU
    pays more wall-time for them through its perf factor)."""

    client_tcp: TcpStackModel | None = None
    """Override for the *client* node's TCP stack.  Offload strategies
    (``repro.cluster.strategy``) rewrite ``tcp`` to model the storage
    side; setting ``client_tcp`` pins the client's costs so strategy
    comparisons vary only the storage nodes.  ``None`` = use ``tcp``."""

    msgr_cost: MessengerCostModel = field(
        default_factory=lambda: MessengerCostModel(
            encode_fixed=40.0e-6, decode_fixed=55.0e-6,
            crc_bandwidth=3.6e9, dispatch_fixed=5.0e-6,
        )
    )
    """Messenger-internal encode/decode costs."""

    msgr_workers: int = 3
    """msgr-worker threads per messenger (Ceph default)."""

    # -- storage device ------------------------------------------------------------
    ssd_write_bandwidth: float = 500e6
    """PM893 (SATA) sequential write — the large-block ceiling."""

    ssd_read_bandwidth: float = 530e6
    ssd_write_latency: float = 60e-6
    ssd_read_latency: float = 90e-6

    bluestore: BlueStoreConfig = field(
        default_factory=lambda: BlueStoreConfig(
            device_capacity=1 << 40,
            csum_bandwidth=10.0e9,
        )
    )
    """Backend cost/policy constants."""

    osd: OsdConfig = field(
        default_factory=lambda: OsdConfig(
            op_cpu=450.0e-6, repop_cpu=250.0e-6, reply_cpu=80.0e-6,
            dispatch_cpu=5.0e-6,
        )
    )
    """OSD thread counts and per-op costs (per-op work is what separates
    the 94 % (1 MB) from the 67 % (16 MB) baseline utilization)."""

    # -- DPU↔host channels (DoCeph only) ----------------------------------------------
    dma_bandwidth: float = 1.0e9
    """Effective per-channel DOCA DMA payload bandwidth."""

    dma_setup_latency: float = 2.28e-3
    """Per-transfer descriptor/doorbell/poll cost (BF3 measurements in
    Kashyap et al. report hundreds of µs end-to-end per op)."""

    dma_channels: int = 1
    """Concurrent hardware channels per node (serial transfers — the
    paper's DMA-wait stems from this)."""

    dma_max_transfer: int = 2 * 1024 * 1024
    """The ≈2 MB single-transfer hardware cap (§3.3)."""

    pcie_rpc_latency: float = 10e-6
    """One-way latency of the DPU↔host RPC socket (PCIe hop)."""

    rpc_socket_bandwidth: float = 0.45e9
    """Throughput of the kernel-socket RPC path across PCIe — the
    control plane and the DMA-failure fallback path ride this."""

    host_write_buffer_bytes: int = 80 * 1024 * 1024
    """Host-side write-buffer pool (Fig. 4): DMA'd request data parks
    here until BlueStore consumes it."""

    dpu_memcpy_bandwidth: float = 3.0e9
    """DPU-side staging copy rate (ARM cores into DMA-able buffers)."""

    staging_buffers: int = 4
    """2 MB staging buffers per node (bounds pipeline depth)."""

    comm_channel_negotiate_latency: float = 1.2e-3
    """DOCA CommChannel memory-region negotiation round trip (paid once
    per buffer when the MR cache is enabled, per transfer otherwise)."""

    # -- RPC reliability (see repro.core.rpc) -----------------------------------
    rpc_timeout_seconds: float = 5.0
    """Per-attempt reply timeout of the DPU↔host RPC; attempt *k* waits
    ``rpc_timeout_seconds × rpc_backoff_factor^k``; it must be positive."""

    rpc_max_retries: int = 4
    """Retries after the first attempt before a call fails RpcError."""

    rpc_backoff_factor: float = 2.0
    """Exponential backoff multiplier between RPC attempts."""

    # -- client robustness (see repro.rados.client) ------------------------------
    client_op_timeout: float | None = None
    """Per-op client timeout; ``None`` keeps the legacy wait-forever
    behaviour (and its exact event sequence).  Chaos runs set it so no
    client op can hang on a dead OSD."""

    client_max_attempts: int = 5
    """Attempts (first send + resends) before an op fails -ETIMEDOUT."""

    client_retry_backoff: float = 0.5
    """Backoff before resend attempt *k* is ``backoff × k`` seconds."""

    # -- monitor failure detection (see repro.rados.monitor) ----------------------
    mon_down_grace: float = 5.0
    """Beacon silence before an OSD is marked down."""

    mon_out_interval: float = 30.0
    """Down time before an OSD is marked out (CRUSH reweight 0)."""

    mon_check_period: float = 1.0
    """Failure-detector sweep period."""

    mon_failure_reporters: int = 2
    """Distinct heartbeat reporters needed to mark a peer down early."""

    recovery_tick: float = 1.0
    """Recovery manager detection-loop period per OSD."""


@dataclass(frozen=True)
class DocephProfile(HardwareProfile):
    """DoCeph feature switches layered on the hardware profile."""

    pipelining: bool = True
    """Overlap segment staging with DMA transmission (§3.3, Fig. 4)."""

    mr_cache: bool = True
    """Reuse pre-established memory regions instead of renegotiating
    the CommChannel per transfer (§3.3)."""

    cooldown_seconds: float = 2.0
    """DMA disable window after a failure."""

    zero_copy: bool = False
    """Skip the DPU-side staging memcpy into DMA-able buffers (Palladium-
    style zero-copy fabric: NIC buffers are DMA-registered, so requests
    move host↔DPU without a bounce-buffer copy charge)."""
