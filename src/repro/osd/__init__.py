"""The OSD daemon: dispatch, prioritized op queue, primary-copy
replication, heartbeats, monitor beacons and recovery."""

from .daemon import OSD_CATEGORY, OsdConfig, OsdDaemon
from .opqueue import (
    CLIENT_OP,
    RECOVERY_OP,
    STRICT_THRESHOLD,
    SUB_OP,
    QosSpec,
    WeightedPriorityQueue,
)
from .pg import PlacementGroup
from .recovery import RecoveryManager

__all__ = [
    "CLIENT_OP",
    "OSD_CATEGORY",
    "OsdConfig",
    "OsdDaemon",
    "PlacementGroup",
    "QosSpec",
    "RECOVERY_OP",
    "RecoveryManager",
    "STRICT_THRESHOLD",
    "SUB_OP",
    "WeightedPriorityQueue",
]
