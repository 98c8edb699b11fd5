"""Core RADOS types: pools, placement groups, object→PG mapping.

Implements the exact hashing pipeline Ceph uses to locate an object:

1. ``ps = ceph_stable_mod(rjenkins(object name), pg_num, pg_num_mask)``
   — the placement seed within the pool,
2. ``pgid = (pool, ps)``,
3. ``pps = crush_hash32_2(ps, pool)`` — the CRUSH input for the PG,
4. ``crush.map_x(rule, pps, pool.size)`` — the acting set.

``ceph_stable_mod`` is the trick that lets ``pg_num`` grow without
remapping every object (only PGs in the split range move).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..util.rjenkins import ceph_str_hash_rjenkins, crush_hash32_2

__all__ = ["Pool", "PgId", "ceph_stable_mod", "object_to_pg", "pg_to_crush_input"]


def ceph_stable_mod(x: int, b: int, bmask: int) -> int:
    """Ceph's stable modulo: consistent placement across pg_num growth.

    ``b`` is pg_num, ``bmask`` is the next power of two minus one.
    For pg_num a power of two this is plain masking; otherwise values
    that would land past ``b`` fold back into the lower half, so
    growing ``b`` toward the next power of two only moves the folded
    range.
    """
    if b <= 0:
        raise ValueError(f"pg_num must be positive, got {b}")
    if x & bmask < b:
        return x & bmask
    return x & (bmask >> 1)


def _pg_num_mask(pg_num: int) -> int:
    mask = 1
    while mask < pg_num:
        mask <<= 1
    return mask - 1


@dataclass(frozen=True)
class Pool:
    """A RADOS pool: replication factor, PG count, CRUSH rule."""

    id: int
    name: str
    pg_num: int = 128
    size: int = 2  # replica count (the paper's 2-node testbed uses 2)
    min_size: int = 1
    rule_name: str = "replicated_rule"
    #: ``ceph_stable_mod``'s mask: next power of two above pg_num, minus 1.
    pg_mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.pg_num < 1:
            raise ValueError("pg_num must be >= 1")
        if not 1 <= self.min_size <= self.size:
            raise ValueError("need 1 <= min_size <= size")
        object.__setattr__(self, "pg_mask", _pg_num_mask(self.pg_num))


@dataclass(frozen=True, order=True, slots=True)
class PgId:
    """A placement group identity: (pool id, placement seed)."""

    pool: int
    seed: int

    def __str__(self) -> str:
        return f"{self.pool}.{self.seed:x}"


@lru_cache(maxsize=256)
def _place(pool_id: int, pg_num: int, pg_mask: int, object_name: str) -> PgId:
    # pure in its arguments, and client and primary each place the same
    # name within a few events of each other: over 10 sim-s, 256 entries
    # hit 4 585 times to 4 096 entries' 4 652 on the QoS mix, and as often
    # on 4 MB DoCeph writes
    raw = ceph_str_hash_rjenkins(object_name)
    return PgId(pool_id, ceph_stable_mod(raw, pg_num, pg_mask))


def object_to_pg(pool: Pool, object_name: str) -> PgId:
    """Map an object name to its PG within ``pool``."""
    return _place(pool.id, pool.pg_num, pool.pg_mask, object_name)


def pg_to_crush_input(pgid: PgId) -> int:
    """The CRUSH ``x`` for a PG (Ceph's 'pps': placement seed × pool)."""
    return crush_hash32_2(pgid.seed, pgid.pool)
