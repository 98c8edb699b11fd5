"""The Ceph-style async messenger layer.

This is the communication-intensive component the paper offloads to the
DPU: typed wire messages with real encode/decode, worker-thread event
loops with TCP stack CPU accounting, per-connection ordered delivery,
dispatch throttling, and heartbeat traffic.
"""

from .adversary import WireAdversary
from .heartbeat import HeartbeatAgent
from .message import (
    Message,
    MOSDBeacon,
    MOSDPGPull,
    MOSDPGPush,
    MOSDPGPushReply,
    MessageType,
    MMonGetMap,
    MMonMapReply,
    MOSDOp,
    MOSDOpReply,
    MOSDPing,
    MOSDRepOp,
    MOSDRepOpReply,
    OpType,
    WIRE_OVERHEAD,
    decode_message,
)
from .messenger import (
    AsyncMessenger,
    Connection,
    Dispatcher,
    MessengerCostModel,
    MsgrDirectory,
    WireFrame,
    MSGR_CATEGORY,
)

__all__ = [
    "AsyncMessenger",
    "Connection",
    "Dispatcher",
    "WireAdversary",
    "WireFrame",
    "HeartbeatAgent",
    "MSGR_CATEGORY",
    "Message",
    "MessageType",
    "MessengerCostModel",
    "MMonGetMap",
    "MMonMapReply",
    "MOSDOp",
    "MOSDOpReply",
    "MOSDBeacon",
    "MOSDPGPull",
    "MOSDPGPush",
    "MOSDPGPushReply",
    "MOSDPing",
    "MOSDRepOp",
    "MOSDRepOpReply",
    "MsgrDirectory",
    "OpType",
    "WIRE_OVERHEAD",
    "decode_message",
]
