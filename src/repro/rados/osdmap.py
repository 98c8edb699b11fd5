"""The OSDMap: epoch-versioned view of cluster membership and placement.

Mirrors the role of Ceph's OSDMap: it binds pool definitions to the
CRUSH map and answers "which OSDs serve this PG, and who is primary?"
Epochs increase on every mutation (OSD up/down/in/out, pool create), and
daemons compare epochs to detect staleness — the monitor distributes new
epochs, and tests exercise failure-driven remapping through exactly this
interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from ..crush import CrushMap
from .types import PgId, Pool, object_to_pg, pg_to_crush_input

__all__ = ["OsdMap", "OsdState", "OsdInfo"]


class OsdState(Enum):
    """Liveness/membership of one OSD."""

    UP_IN = "up+in"
    DOWN_IN = "down+in"
    DOWN_OUT = "down+out"


@dataclass
class OsdInfo:
    """Per-OSD record in the map."""

    osd_id: int
    state: OsdState = OsdState.UP_IN
    address: str = ""  # network address of the serving messenger


@dataclass
class OsdMap:
    """Cluster map: pools + CRUSH + OSD states, versioned by epoch."""

    crush: CrushMap
    epoch: int = 1
    pools: dict[int, Pool] = field(default_factory=dict)
    osds: dict[int, OsdInfo] = field(default_factory=dict)
    #: Memoized acting sets for the current epoch.  Placement is a pure
    #: function of (crush weights, pool definition, OSD states), and
    #: every mutation of those bumps ``epoch`` — so entries stay valid
    #: exactly as long as the epoch does.  CRUSH's straw2 hashing is the
    #: hottest pure computation in a bench run; this cache removes it
    #: from the steady state without perturbing any event.
    _acting_cache: dict = field(default_factory=dict, repr=False,
                                compare=False)
    _acting_epoch: int = field(default=-1, repr=False, compare=False)
    #: PG → {osd_id: (holds_full_copy, content_gen)}.  The
    #: monitor-tracked record of which OSDs hold a PG's data (Ceph's pg
    #: map / past-intervals role reduced to the questions recovery
    #: needs: who may I pull from, who is behind, and is it safe to
    #: discard my copy?).  A *full* holder has the complete object set
    #: as of its last clean membership; a *partial* holder accepted
    #: writes for a PG it never recovered (an interim primary serving
    #: while the full holders were down).  ``content_gen`` is the PG's
    #: content generation the holder's copy reflects: writes that some
    #: registered full holder did not receive bump the generation
    #: (:meth:`bump_pg_gen`), so a holder with a lower generation than a
    #: peer is known to miss acked writes — it must merge before it may
    #: serve as a discard survivor, and members pull whenever a peer's
    #: generation exceeds theirs.  Holder changes never bump the epoch —
    #: placement does not depend on them.
    pg_holders: dict = field(default_factory=dict, repr=False,
                             compare=False)
    #: PG → highest content generation ever issued (monotonic).
    pg_gens: dict = field(default_factory=dict, repr=False, compare=False)

    # -- membership ------------------------------------------------------------
    def add_osd(self, osd_id: int, address: str) -> None:
        if osd_id in self.osds:
            raise ValueError(f"osd.{osd_id} already in map")
        self.osds[osd_id] = OsdInfo(osd_id, OsdState.UP_IN, address)
        self.epoch += 1

    def mark_down(self, osd_id: int) -> None:
        """Mark an OSD down (still in; PGs degraded but not remapped)."""
        info = self._info(osd_id)
        if info.state == OsdState.UP_IN:
            info.state = OsdState.DOWN_IN
            self.epoch += 1

    def mark_out(self, osd_id: int) -> None:
        """Mark an OSD out: CRUSH stops mapping data to it."""
        info = self._info(osd_id)
        if info.state != OsdState.DOWN_OUT:
            info.state = OsdState.DOWN_OUT
            self.crush.set_reweight(osd_id, 0.0)
            self.epoch += 1

    def mark_up(self, osd_id: int, address: str | None = None) -> None:
        info = self._info(osd_id)
        if info.state != OsdState.UP_IN:
            info.state = OsdState.UP_IN
            self.crush.set_reweight(osd_id, 1.0)
            if address is not None:
                info.address = address
            self.epoch += 1

    def is_up(self, osd_id: int) -> bool:
        info = self.osds.get(osd_id)
        return info is not None and info.state == OsdState.UP_IN

    def address_of(self, osd_id: int) -> str:
        return self._info(osd_id).address

    def _info(self, osd_id: int) -> OsdInfo:
        try:
            return self.osds[osd_id]
        except KeyError:
            raise ValueError(f"unknown osd.{osd_id}") from None

    # -- pools -------------------------------------------------------------------
    def create_pool(self, pool: Pool) -> None:
        if pool.id in self.pools:
            raise ValueError(f"duplicate pool id {pool.id}")
        if any(p.name == pool.name for p in self.pools.values()):
            raise ValueError(f"duplicate pool name {pool.name}")
        self.pools[pool.id] = pool
        self.epoch += 1

    def pool_by_name(self, name: str) -> Pool:
        for pool in self.pools.values():
            if pool.name == name:
                return pool
        raise ValueError(f"unknown pool: {name}")

    # -- placement ----------------------------------------------------------------
    def object_to_pg(self, pool_name: str, object_name: str) -> PgId:
        return object_to_pg(self.pool_by_name(pool_name), object_name)

    def pg_to_osds(self, pgid: PgId) -> list[int]:
        """Acting set of a PG: up OSDs only, CRUSH order preserved."""
        if self._acting_epoch != self.epoch:
            self._acting_cache.clear()
            self._acting_epoch = self.epoch
        cached = self._acting_cache.get(pgid)
        if cached is None:
            pool = self.pools[pgid.pool]
            raw = self.crush.map_x(
                pool.rule_name, pg_to_crush_input(pgid), pool.size
            )
            cached = tuple(osd for osd in raw if self.is_up(osd))
            self._acting_cache[pgid] = cached
        # a fresh list per call: callers may slice or mutate their copy
        return list(cached)

    # -- data holders -------------------------------------------------------------
    def record_pg_holder(
        self,
        pgid: PgId,
        osd_id: int,
        full: bool | None = True,
        gen: int | None = None,
    ) -> None:
        """Register ``osd_id`` as holding data for ``pgid``.

        ``full=False`` marks a partial holder (it accepted some writes
        but never recovered the whole PG); registering full never
        downgrades to partial, and ``full=None`` keeps the current
        flag.  ``gen`` raises the holder's content generation (never
        lowers it); ``None`` keeps the current generation (0 for a new
        entry)."""
        holders = self.pg_holders.setdefault(pgid, {})
        old_full, old_gen = holders.get(osd_id, (False, 0))
        if full is None:
            full = old_full
        holders[osd_id] = (
            full or old_full,
            old_gen if gen is None else max(gen, old_gen),
        )

    def drop_pg_holder(self, pgid: PgId, osd_id: int) -> None:
        """Forget ``osd_id``'s copy (it was discarded or merged away)."""
        holders = self.pg_holders.get(pgid)
        if holders is not None:
            holders.pop(osd_id, None)

    def bump_pg_gen(self, pgid: PgId) -> int:
        """Allocate the next content generation for ``pgid``.

        Called for a write that some registered full holder will not
        receive (an interim write on a non-member, or a degraded write
        while a full holder is down): copies without it are stale from
        now on."""
        gen = self.pg_gens.get(pgid, 0) + 1
        self.pg_gens[pgid] = gen
        return gen

    def pg_gen(self, pgid: PgId) -> int:
        """Highest content generation ever issued for ``pgid``."""
        return self.pg_gens.get(pgid, 0)

    def holder_gen(self, pgid: PgId, osd_id: int) -> int:
        """The content generation ``osd_id``'s copy reflects (0 if
        unregistered)."""
        entry = self.pg_holders.get(pgid, {}).get(osd_id)
        return entry[1] if entry is not None else 0

    def holders_of(self, pgid: PgId) -> list[int]:
        """Every OSD believed to hold data for ``pgid`` (sorted)."""
        return sorted(self.pg_holders.get(pgid, {}))

    def full_holders_of(self, pgid: PgId) -> list[int]:
        """Holders with a complete copy (sorted)."""
        holders = self.pg_holders.get(pgid, {})
        return sorted(o for o, (full, _gen) in holders.items() if full)

    def pg_primary(self, pgid: PgId) -> int:
        """The primary OSD of a PG (first in the acting set)."""
        acting = self.pg_to_osds(pgid)
        if not acting:
            raise ValueError(f"PG {pgid} has no acting set")
        return acting[0]

    def all_pgs(self, pool_name: str) -> list[PgId]:
        pool = self.pool_by_name(pool_name)
        return [PgId(pool.id, seed) for seed in range(pool.pg_num)]
