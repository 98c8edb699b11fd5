"""DoCeph: the paper's contribution.

The transparent ProxyObjectStore on the DPU, the lightweight RPC
control plane, DOCA-style DMA with memory-region caching, pipelined
segmented transfers, the host-side BlueStore server, and the adaptive
fallback/cooldown machinery.
"""

from .doca import CommChannel, DocaDma, MemoryRegion
from .fallback import FallbackController, PROBE_BYTES
from .host_server import HostProxyServer
from .pipeline import DmaPipeline, RequestTiming, segment_sizes
from .proxy_objectstore import (
    BreakdownLog,
    BreakdownView,
    ProxyObjectStore,
    WriteBreakdown,
)
from .rpc import DEFERRED, PROXY_CATEGORY, RpcChannel, RpcError, RpcRequest

__all__ = [
    "BreakdownLog",
    "BreakdownView",
    "CommChannel",
    "DEFERRED",
    "DmaPipeline",
    "DocaDma",
    "FallbackController",
    "HostProxyServer",
    "MemoryRegion",
    "PROBE_BYTES",
    "PROXY_CATEGORY",
    "ProxyObjectStore",
    "RequestTiming",
    "RpcChannel",
    "RpcError",
    "RpcRequest",
    "WriteBreakdown",
    "segment_sizes",
]
