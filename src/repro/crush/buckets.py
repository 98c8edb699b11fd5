"""CRUSH bucket types.

Implements the straw2 bucket (Ceph's default since Hammer) exactly as in
``crush/mapper.c``: each item draws a pseudo-random "straw" from the
rjenkins hash of ``(input x, item id, trial r)``, scaled by
``ln(u) / weight``; the item with the maximal draw wins.  Straw2's key
property — changing one item's weight only moves inputs to or from that
item — is what makes CRUSH rebalancing minimal, and is covered by a
dedicated test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..util.rjenkins import crush_hash32_3

__all__ = ["BucketItem", "Straw2Bucket"]


@dataclass(frozen=True)
class BucketItem:
    """One child of a bucket: a device (id >= 0) or a bucket (id < 0)."""

    id: int
    weight: float

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"negative CRUSH weight for item {self.id}")


@dataclass
class Straw2Bucket:
    """A straw2 bucket: weighted selection with minimal data movement."""

    id: int
    name: str
    type_name: str  # e.g. "root", "host"
    items: list[BucketItem] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.id >= 0:
            raise ValueError("bucket ids must be negative (devices are >= 0)")

    @property
    def weight(self) -> float:
        """Total weight of all children."""
        return sum(item.weight for item in self.items)

    def add_item(self, item_id: int, weight: float) -> None:
        if any(i.id == item_id for i in self.items):
            raise ValueError(f"duplicate item {item_id} in bucket {self.name}")
        self.items.append(BucketItem(item_id, weight))

    def choose(self, x: int, r: int) -> int:
        """Select one child for input ``x`` at trial ``r`` (straw2 draw).

        Returns the chosen item id; raises if the bucket is empty or all
        weights are zero.
        """
        best_id: int | None = None
        best_draw = -math.inf
        for item in self.items:
            if item.weight <= 0:
                continue
            u = crush_hash32_3(x, item.id & 0xFFFFFFFF, r) & 0xFFFF
            # ln of a uniform (0, 1] draw, scaled by weight: equivalent to
            # an exponential race, giving weight-proportional win odds.
            draw = math.log((u + 1) / 65536.0) / item.weight
            if draw > best_draw:
                best_draw = draw
                best_id = item.id
        if best_id is None:
            raise ValueError(f"bucket {self.name} has no selectable items")
        return best_id
