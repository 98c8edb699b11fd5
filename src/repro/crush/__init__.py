"""CRUSH: Controlled Replication Under Scalable Hashing.

A from-scratch implementation of the placement algorithm Ceph uses to
map placement groups onto OSDs (straw2 buckets, firstn replicated
rules, device reweights) — see Weil et al., "CRUSH: Controlled,
scalable, decentralized placement of replicated data", SC'06.
"""

from .buckets import BucketItem, Straw2Bucket
from .map import ChooseStep, CrushMap, CrushRule

__all__ = [
    "BucketItem",
    "ChooseStep",
    "CrushMap",
    "CrushRule",
    "Straw2Bucket",
]
