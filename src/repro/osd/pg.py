"""Placement-group state tracked by an OSD.

A PG here is the unit of replication bookkeeping: which OSDs serve it,
whether this OSD is primary, and per-PG traffic statistics.  (Full Ceph
peering/backfill state machines are out of scope — the paper's workload
never leaves the active+clean state.)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..rados.types import PgId

__all__ = ["PlacementGroup"]


@dataclass(slots=True)
class PlacementGroup:
    """One PG as seen by one OSD."""

    pgid: PgId
    acting: list[int]
    whoami: int

    #: False while this OSD's copy is being recovered from a peer.
    clean: bool = True

    ops: int = 0
    bytes_written: int = 0
    bytes_read: int = 0

    @property
    def collection(self) -> str:
        """The backing ObjectStore collection name."""
        return str(self.pgid)

    @property
    def replicas(self) -> list[int]:
        """Acting-set members other than the primary."""
        return self.acting[1:]

    def record_write(self, nbytes: int) -> None:
        self.ops += 1
        self.bytes_written += nbytes

    def record_read(self, nbytes: int) -> None:
        self.ops += 1
        self.bytes_read += nbytes
