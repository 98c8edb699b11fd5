"""The host-side proxy server.

The thin remnant of Ceph left on the host under DoCeph (§3.1): it owns
the real BlueStore and exposes it to the DPU over two channels —

* the **RPC listener** (event-driven, §4) for control-plane ops and
  transaction commits;
* the **DMA completion poller** whose per-segment handling cost is
  charged by the pipeline's ``completion_thread`` hook;
* the **write-buffer pool** (Fig. 4): DMA'd request data parks here
  until BlueStore consumes it, providing natural backpressure.

Everything here runs on host CPU under the ``proxy`` category, so the
experiments can show exactly how little host CPU survives the offload
(BlueStore + this server ≈ the paper's 5–6 %).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..hw.cpu import SimThread
from ..hw.node import ClusterNode
from ..objectstore.api import NoSuchObject, Transaction
from ..objectstore.bluestore import BlueStore
from ..sim import Container
from .doca import CommChannel
from .rpc import DEFERRED, PROXY_CATEGORY, RPC_ARGS, RpcChannel, RpcRequest

if TYPE_CHECKING:
    from ..cluster.config import HardwareProfile

__all__ = ["HostProxyServer"]


class HostProxyServer:
    """Host side of the ProxyObjectStore split."""

    def __init__(
        self, node: ClusterNode, store: BlueStore, profile: HardwareProfile
    ) -> None:
        self.node = node
        self.store = store
        self.profile = profile
        self.env = node.env

        self.rpc = RpcChannel(node, profile)
        self.comm = CommChannel(node, profile.comm_channel_negotiate_latency)
        self.write_buffers = Container(
            self.env,
            capacity=profile.host_write_buffer_bytes,
            init=profile.host_write_buffer_bytes,
        )
        #: Polling thread servicing DMA completions (plugged into the
        #: pipeline as its completion hook).
        self.poll_thread = SimThread(
            node.host_cpu, f"{node.name}.proxy-poll", PROXY_CATEGORY
        )
        #: Thread executing BlueStore submissions on behalf of the DPU.
        self.exec_thread = SimThread(
            node.host_cpu, f"{node.name}.proxy-exec", PROXY_CATEGORY
        )

        self.rpc.register_handler("queue_txn", self._handle_queue_txn)
        self.rpc.register_handler("stat", self._handle_stat)
        self.rpc.register_handler("exists", self._handle_exists)
        self.rpc.register_handler("list", self._handle_list)
        self.rpc.register_handler("read", self._handle_read)
        self.rpc.register_handler("bulk", self._handle_bulk)

        #: Set by the ProxyObjectStore once its pipelines exist; used to
        #: stream read data back (host → DPU direction).
        self.read_pipeline: Any = None

        # statistics
        self.txns_executed = 0
        self.control_ops = 0

    # ---------------------------------------------------------------- handlers
    def _handle_queue_txn(
        self, req: RpcRequest, thread: SimThread
    ) -> Generator[Any, Any, None]:
        """Commit a transaction whose bulk data already arrived via DMA
        (or the fallback socket).  Async: BlueStore commit must not
        block the RPC listener."""
        txn = Transaction.decode(req.payload)
        # the parent span does not survive the wire encoding; re-attach
        # the one carried by the RPC request so BlueStore's commit span
        # parents under the rpc.queue_txn attempt
        txn.span_ctx = req.span_ctx
        req.reply = DEFERRED
        self.env.process(
            self._execute_txn(req, txn), name=f"{self.node.name}.proxy-txn"
        )
        if False:  # generator form
            yield

    def _execute_txn(
        self, req: RpcRequest, txn: Transaction
    ) -> Generator[Any, Any, None]:
        try:
            info = yield from self.store.queue_transaction(txn, self.exec_thread)
            req.reply = {"host_write": info.device_time,
                         "commit_time": info.total_time}
        except Exception as exc:  # noqa: BLE001 - reported to the DPU
            req.error = str(exc)
        finally:
            if txn.data_len:
                # release the parked request data (Fig. 4 write buffers)
                yield self.write_buffers.put(txn.data_len)
        self.txns_executed += 1
        self.rpc.respond(req)

    def _handle_bulk(
        self, req: RpcRequest, thread: SimThread
    ) -> Generator[Any, Any, None]:
        """Fallback-path data landing: bytes are already accounted by the
        socket costs; nothing else to do."""
        req.reply = {"ok": True}
        if False:
            yield

    def _handle_stat(
        self, req: RpcRequest, thread: SimThread
    ) -> Generator[Any, Any, None]:
        coll, oid = RPC_ARGS["stat"].decode(req.payload)
        self.control_ops += 1
        st = yield from self.store.stat(coll, oid, thread)
        # attrs is always 0; the reply keeps it so its shape is unchanged
        req.reply = {"size": st.size, "attrs": st.attrs,
                     "version": st.version, "content": st.content_id}

    def _handle_exists(
        self, req: RpcRequest, thread: SimThread
    ) -> Generator[Any, Any, None]:
        coll, oid = RPC_ARGS["exists"].decode(req.payload)
        self.control_ops += 1
        ok = yield from self.store.exists(coll, oid, thread)
        req.reply = {"exists": ok}

    def _handle_list(
        self, req: RpcRequest, thread: SimThread
    ) -> Generator[Any, Any, None]:
        (coll,) = RPC_ARGS["list"].decode(req.payload)
        self.control_ops += 1
        names = yield from self.store.list_objects(coll, thread)
        req.reply = {"names": names}

    def _handle_read(
        self, req: RpcRequest, thread: SimThread
    ) -> Generator[Any, Any, None]:
        """Read path (§5.5): host reads from BlueStore, then streams the
        data back to the DPU through the reverse DMA pipeline.  Async."""
        coll, oid, offset, length = RPC_ARGS["read"].decode(req.payload)
        req.reply = DEFERRED
        self.env.process(
            self._execute_read(req, coll, oid, offset, length),
            name=f"{self.node.name}.proxy-read",
        )
        if False:
            yield

    def _execute_read(
        self, req: RpcRequest, coll: str, oid: str, offset: int, length: int
    ) -> Generator[Any, Any, None]:
        try:
            blob = yield from self.store.read(
                coll, oid, offset, length, self.exec_thread,
                span_ctx=req.span_ctx,
            )
            content = blob.parent_id or 0
            if blob.length and self.read_pipeline is not None:
                timing = yield from self.read_pipeline.push(
                    blob.length, self.exec_thread, span_ctx=req.span_ctx
                )
                req.reply = {"length": blob.length, "timing": timing,
                             "content": content}
            else:
                req.reply = {"length": blob.length, "timing": None,
                             "content": content}
        except NoSuchObject as exc:
            req.error = f"ENOENT: {exc}"
        except Exception as exc:  # noqa: BLE001
            req.error = str(exc)
        self.rpc.respond(req)

    def __repr__(self) -> str:
        return f"<HostProxyServer {self.node.name} txns={self.txns_executed}>"
