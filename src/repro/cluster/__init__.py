"""Cluster assembly, calibrated hardware profiles, offload strategies."""

from .builder import (
    BENCH_POOL,
    Cluster,
    build_baseline_cluster,
    build_doceph_cluster,
)
from .config import DocephProfile, GIGABIT, HUNDRED_GIG, HardwareProfile
from .strategy import (
    STRATEGY_NAMES,
    OffloadStrategy,
    get_strategy,
)

__all__ = [
    "BENCH_POOL",
    "Cluster",
    "DocephProfile",
    "GIGABIT",
    "HUNDRED_GIG",
    "HardwareProfile",
    "OffloadStrategy",
    "STRATEGY_NAMES",
    "build_baseline_cluster",
    "build_doceph_cluster",
    "get_strategy",
]
