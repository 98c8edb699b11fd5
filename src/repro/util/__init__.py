"""Shared utilities: Ceph-compatible hashing, SHA-256 fingerprints,
bufferlist encoding, statistics accumulators, and deterministic RNG
streams."""

from .bufferlist import BufferDecoder, BufferList, DataBlob, EncodeError
from .digest import sha256_hex
from .rjenkins import (
    ceph_str_hash_rjenkins,
    crush_hash32,
    crush_hash32_2,
    crush_hash32_3,
    crush_hash32_4,
)
from .rng import SeededRng
from .stats import Histogram, RunningStats, TimeSeries, percentile

__all__ = [
    "BufferDecoder",
    "BufferList",
    "DataBlob",
    "EncodeError",
    "Histogram",
    "RunningStats",
    "SeededRng",
    "TimeSeries",
    "ceph_str_hash_rjenkins",
    "crush_hash32",
    "crush_hash32_2",
    "crush_hash32_3",
    "crush_hash32_4",
    "percentile",
    "sha256_hex",
]
