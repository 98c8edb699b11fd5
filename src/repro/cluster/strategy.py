"""Pluggable bulk-data offload strategies (the design-space axis).

The paper hard-codes one point in the offload design space — move the
whole OSD (messenger included) onto the DPU.  Related work maps the
rest: PnO-TCP offloads only the TCP stack to an off-path SmartNIC (the
host still handles the data), and Palladium builds zero-copy DMA
fabrics with no bounce-buffer copy.  This module factors that choice
into one small interface so experiments sweep *strategy* like any other
parameter:

* ``baseline``  — no offload; the full Ceph stack burns host CPU.
* ``tcp-only``  — PnO-TCP: storage-node TCP *stack processing*
  (syscalls, segmentation, softirq, wakeups) moves to the NIC, but the
  host still pays the user↔kernel data copy; topology stays baseline.
* ``full-osd``  — DoCeph as published: OSD + messenger on the DPU,
  BlueStore + proxy on the host, staged DMA in between.
* ``zero-copy`` — DoCeph with a Palladium-style registered-buffer
  fabric: the DPU staging memcpy disappears (``zero_copy=True``).

The client node always runs the stock TCP model: only ``tcp-only``
changes ``tcp``, and it pins ``client_tcp`` to the stock costs, so a
sweep varies only the storage side.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Optional

from ..faults import FaultPlan
from ..sim import Environment
from .builder import Cluster, build_baseline_cluster, build_doceph_cluster
from .config import DocephProfile, HardwareProfile

__all__ = ["OffloadStrategy", "STRATEGY_NAMES", "get_strategy"]


class OffloadStrategy:
    """One point in the offload design space.

    ``make_profile(**overrides)`` yields the strategy's hardware
    profile (overrides applied on top); ``build(env, ...)`` assembles
    the matching cluster topology.
    """

    __slots__ = ("name", "summary", "_profile_fn", "_build_fn")

    def __init__(
        self,
        name: str,
        summary: str,
        profile_fn: Callable[[], HardwareProfile],
        build_fn: Callable[..., Cluster],
    ) -> None:
        self.name = name
        self.summary = summary
        self._profile_fn = profile_fn
        self._build_fn = build_fn

    def make_profile(self, **overrides: Any) -> HardwareProfile:
        """The strategy's profile with ``overrides`` applied on top."""
        profile = self._profile_fn()
        if overrides:
            profile = replace(profile, **overrides)
        return profile

    def build(
        self,
        env: Environment,
        profile: Optional[HardwareProfile] = None,
        fault_plan: Optional[FaultPlan] = None,
        tracer: Any = None,
    ) -> Cluster:
        """Assemble this strategy's cluster (``profile`` defaults to
        :meth:`make_profile`)."""
        if profile is None:
            profile = self.make_profile()
        return self._build_fn(env, profile, fault_plan=fault_plan,
                              tracer=tracer)

    def __repr__(self) -> str:
        return f"<OffloadStrategy {self.name}>"


def _tcp_only_profile() -> HardwareProfile:
    base = HardwareProfile()
    return replace(base, tcp=base.tcp.stack_free(), client_tcp=base.tcp)


def _zero_copy_profile() -> DocephProfile:
    return DocephProfile(zero_copy=True)


_REGISTRY: dict[str, OffloadStrategy] = {
    s.name: s
    for s in (
        OffloadStrategy(
            "baseline",
            "no offload: full Ceph stack on host CPUs",
            HardwareProfile, build_baseline_cluster,
        ),
        OffloadStrategy(
            "tcp-only",
            "PnO-TCP: NIC runs the TCP stack, host keeps data handling",
            _tcp_only_profile, build_baseline_cluster,
        ),
        OffloadStrategy(
            "full-osd",
            "DoCeph: OSD+messenger on the DPU, staged DMA to the host",
            DocephProfile, build_doceph_cluster,
        ),
        OffloadStrategy(
            "zero-copy",
            "DoCeph + registered-buffer fabric: no staging memcpy",
            _zero_copy_profile, build_doceph_cluster,
        ),
    )
}

#: Stable sweep order (cheapest topology first).
STRATEGY_NAMES: tuple[str, ...] = (
    "baseline", "tcp-only", "full-osd", "zero-copy",
)


def get_strategy(name: str) -> OffloadStrategy:
    """Look up a strategy by name (raises ``KeyError`` with the valid
    set listed)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown offload strategy {name!r}; "
            f"choose from {', '.join(STRATEGY_NAMES)}"
        ) from None
