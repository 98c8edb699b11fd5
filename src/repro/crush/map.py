"""The CRUSH map: device/bucket hierarchy plus rule evaluation.

Implements the subset of CRUSH that RADOS replication pools use:

* a hierarchy of straw2 buckets (root → host → osd in our testbeds),
* per-device reweight (0 = out, used for failure handling),
* ``firstn`` rules with ``take`` / ``chooseleaf`` / ``emit`` steps and
  collision/retry semantics (``choose_total_tries``).

``map_x`` deterministically maps an input (a placement-group
pseudo-seed) to an ordered list of distinct OSDs spread across the
failure domain, which is exactly what the OSDMap needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .buckets import Straw2Bucket

__all__ = ["CrushMap", "CrushRule", "ChooseStep"]


@dataclass(frozen=True)
class ChooseStep:
    """One rule step: pick ``num`` subtrees of ``bucket_type`` and descend
    to leaves (``chooseleaf``).  ``num == 0`` means "pool size"."""

    num: int
    bucket_type: str


@dataclass
class CrushRule:
    """A replication rule: start at ``root_name``, then run the steps."""

    name: str
    root_name: str
    steps: list[ChooseStep] = field(default_factory=list)


class CrushMap:
    """Hierarchy + rules + device reweights."""

    #: Matches Ceph's default choose_total_tries tunable.
    CHOOSE_TOTAL_TRIES = 50

    def __init__(self) -> None:
        self._buckets: dict[int, Straw2Bucket] = {}
        self._by_name: dict[str, Straw2Bucket] = {}
        self._device_weights: dict[int, float] = {}
        self._reweights: dict[int, float] = {}
        self._rules: dict[str, CrushRule] = {}
        self._next_bucket_id = -1

    # -- construction -----------------------------------------------------------
    def add_bucket(self, name: str, type_name: str) -> Straw2Bucket:
        """Create an empty straw2 bucket and return it."""
        if name in self._by_name:
            raise ValueError(f"duplicate bucket name: {name}")
        bucket_id = self._next_bucket_id
        self._next_bucket_id -= 1
        bucket = Straw2Bucket(bucket_id, name, type_name)
        self._buckets[bucket_id] = bucket
        self._by_name[name] = bucket
        return bucket

    def add_device(self, parent: str, osd_id: int, weight: float = 1.0) -> None:
        """Register OSD ``osd_id`` under bucket ``parent``."""
        if osd_id < 0:
            raise ValueError("device ids must be >= 0")
        if osd_id in self._device_weights:
            raise ValueError(f"duplicate device: osd.{osd_id}")
        self.bucket(parent).add_item(osd_id, weight)
        self._device_weights[osd_id] = weight
        self._reweights[osd_id] = 1.0

    def link_bucket(self, parent: str, child: str) -> None:
        """Attach bucket ``child`` under ``parent`` with its subtree weight."""
        child_bucket = self.bucket(child)
        self.bucket(parent).add_item(child_bucket.id, child_bucket.weight)

    def add_rule(self, rule: CrushRule) -> None:
        if rule.name in self._rules:
            raise ValueError(f"duplicate rule: {rule.name}")
        if rule.root_name not in self._by_name:
            raise ValueError(f"rule {rule.name}: unknown root {rule.root_name}")
        self._rules[rule.name] = rule

    @staticmethod
    def replicated_rule() -> CrushRule:
        """The standard RADOS replicated rule ``replicated_rule``: take
        ``default``, chooseleaf firstn 0 type host, emit."""
        return CrushRule(
            name="replicated_rule",
            root_name="default",
            steps=[ChooseStep(num=0, bucket_type="host")],
        )

    # -- lookups ---------------------------------------------------------------
    def bucket(self, name: str) -> Straw2Bucket:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown bucket: {name}") from None

    def rule(self, name: str) -> CrushRule:
        try:
            return self._rules[name]
        except KeyError:
            raise ValueError(f"unknown rule: {name}") from None

    # -- reweight / failure handling ------------------------------------------------
    def set_reweight(self, osd_id: int, reweight: float) -> None:
        """Override a device's effective weight multiplier in [0, 1].

        ``0`` marks the device out (the monitor does this on failure)."""
        if osd_id not in self._device_weights:
            raise ValueError(f"unknown device: osd.{osd_id}")
        if not 0.0 <= reweight <= 1.0:
            raise ValueError(f"reweight must be in [0, 1], got {reweight}")
        self._reweights[osd_id] = reweight

    def is_selectable(self, osd_id: int) -> bool:
        return self._reweights.get(osd_id, 0.0) > 0.0

    # -- mapping -----------------------------------------------------------------
    def map_x(self, rule_name: str, x: int, num_rep: int) -> list[int]:
        """Map input ``x`` to up to ``num_rep`` distinct OSDs.

        Implements firstn chooseleaf with collision retry.  May return
        fewer than ``num_rep`` devices if the hierarchy cannot satisfy
        the failure-domain constraint (like real CRUSH).
        """
        rule = self.rule(rule_name)
        root = self.bucket(rule.root_name)
        result: list[int] = []
        for step in rule.steps:
            want = step.num if step.num > 0 else num_rep
            result.extend(
                self._chooseleaf_firstn(root, x, want, step.bucket_type, result)
            )
        return result[:num_rep]

    def _chooseleaf_firstn(
        self,
        root: Straw2Bucket,
        x: int,
        num: int,
        domain_type: str,
        already: list[int],
    ) -> list[int]:
        chosen: list[int] = []
        chosen_domains: set[int] = set()
        rep = 0
        tries = 0
        while len(chosen) < num and tries < self.CHOOSE_TOTAL_TRIES:
            r = rep + tries
            tries += 1
            domain = self._descend_to_type(root, x, r, domain_type)
            if domain is None or domain.id in chosen_domains:
                continue
            leaf = self._descend_to_leaf(domain, x, r)
            if leaf is None or leaf in chosen or leaf in already:
                continue
            chosen.append(leaf)
            chosen_domains.add(domain.id)
            rep += 1
        return chosen

    def _descend_to_type(
        self, bucket: Straw2Bucket, x: int, r: int, type_name: str
    ) -> Optional[Straw2Bucket]:
        """Walk down from ``bucket`` until reaching a bucket of
        ``type_name`` (straw2 choice at every level)."""
        current = bucket
        for _ in range(16):  # hierarchy depth guard
            if current.type_name == type_name:
                return current
            try:
                child_id = current.choose(x, r)
            except ValueError:
                return None
            if child_id >= 0:
                return None  # hit a device before the wanted type
            current = self._buckets[child_id]
        return None

    def _descend_to_leaf(
        self, bucket: Straw2Bucket, x: int, r: int
    ) -> Optional[int]:
        """Walk from ``bucket`` down to a selectable device."""
        current = bucket
        for _ in range(16):
            try:
                child_id = current.choose(x, r)
            except ValueError:
                return None
            if child_id >= 0:
                return child_id if self.is_selectable(child_id) else None
            current = self._buckets[child_id]
        return None

    def __repr__(self) -> str:
        return (
            f"<CrushMap {len(self._device_weights)} devices,"
            f" {len(self._buckets)} buckets, {len(self._rules)} rules>"
        )
