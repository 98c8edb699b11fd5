"""Shared utilities: Ceph-compatible hashing, SHA-256 fingerprints,
bufferlist encoding, percentiles, and deterministic RNG streams."""

from .bufferlist import BufferList, DataBlob, EncodeError
from .digest import sha256_hex
from .rjenkins import (
    ceph_str_hash_rjenkins,
    crush_hash32_2,
    crush_hash32_3,
)
from .rng import SeededRng
from .stats import percentile

__all__ = [
    "BufferList",
    "DataBlob",
    "EncodeError",
    "SeededRng",
    "ceph_str_hash_rjenkins",
    "crush_hash32_2",
    "crush_hash32_3",
    "percentile",
    "sha256_hex",
]
