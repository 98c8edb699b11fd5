"""RADOS: pools, placement groups, the OSDMap, the monitor, and the
librados-style client."""

from .client import OpResult, RadosClient, RadosError
from .monitor import Monitor
from .osdmap import OsdInfo, OsdMap, OsdState
from .types import (
    PgId,
    Pool,
    ceph_stable_mod,
    object_to_pg,
    pg_to_crush_input,
)

__all__ = [
    "Monitor",
    "OpResult",
    "OsdInfo",
    "OsdMap",
    "OsdState",
    "PgId",
    "Pool",
    "RadosClient",
    "RadosError",
    "ceph_stable_mod",
    "object_to_pg",
    "pg_to_crush_input",
]
