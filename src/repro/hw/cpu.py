"""CPU complex model with per-thread-category accounting.

The paper's headline observable is *where CPU cycles are burned*:
Figure 5 breaks Ceph CPU usage down by thread category (``msgr-worker-*``,
``bstore_*``, ``tp_osd_tp``) and Table 2 counts context switches per
component.  This module provides exactly that observable:

* :class:`CpuComplex` — ``cores`` identical cores with a perf factor
  (BlueField-3 ARM cores are modelled as slower than host EPYC cores).
  Work is expressed in *reference-CPU seconds*; a core with ``perf=0.5``
  takes twice the wall time and accrues twice the busy core-seconds.
  ``execute(category, work)`` is the one charge path.
* :class:`SimThread` — a named thread with a category.  Threads
  ``charge()`` CPU work (which queues on cores) and record context
  switches; both are booked to the thread's category.
* :class:`CpuAccounting` — cumulative busy-seconds and context-switch
  counts keyed by category only, with a snapshot/diff API for 1 Hz
  utilization sampling (the way the paper samples with htop).  It is
  the one CPU ledger; ``CpuSampler`` windows read it and compute every
  utilization figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Generator, Optional

from ..sim import Environment, Resource
from ..sim.exceptions import SimulationError

__all__ = ["CpuAccounting", "CpuComplex", "SimThread", "CpuSnapshot"]


@dataclass(slots=True)
class CpuSnapshot:
    """Immutable copy of accounting totals at one instant."""

    time: float
    busy_by_category: dict[str, float]
    ctx_by_category: dict[str, int]

    def busy_since(self, earlier: "CpuSnapshot") -> dict[str, float]:
        """Busy-seconds per category accrued between two snapshots."""
        keys = sorted(set(self.busy_by_category) | set(earlier.busy_by_category))
        return {
            k: self.busy_by_category.get(k, 0.0)
            - earlier.busy_by_category.get(k, 0.0)
            for k in keys
        }


class CpuAccounting:
    """Cumulative per-category busy time and context-switch counts."""

    __slots__ = ("busy_by_category", "ctx_by_category")

    def __init__(self) -> None:
        self.busy_by_category: dict[str, float] = {}
        self.ctx_by_category: dict[str, int] = {}

    def add_busy(self, category: str, seconds: float) -> None:
        self.busy_by_category[category] = (
            self.busy_by_category.get(category, 0.0) + seconds
        )

    def add_ctx(self, category: str, count: int = 1) -> None:
        self.ctx_by_category[category] = (
            self.ctx_by_category.get(category, 0) + count
        )

    def snapshot(self, now: float) -> CpuSnapshot:
        return CpuSnapshot(
            time=now,
            busy_by_category=dict(self.busy_by_category),
            ctx_by_category=dict(self.ctx_by_category),
        )


class CpuComplex:
    """A set of identical cores plus its accounting ledger.

    Parameters
    ----------
    env:
        Simulation environment.
    name:
        e.g. ``"node0.host"`` or ``"node0.dpu"``.
    cores:
        Number of cores usable by the modelled software.
    perf:
        Per-core performance relative to the reference core (host EPYC
        core = 1.0; BF3 ARM Cortex-A78 ≈ 0.45).
    ctx_switch_cost:
        CPU seconds charged per recorded context switch (direct cost of
        the mode transition; cache-pollution indirect costs are folded
        into the TCP per-byte constants).
    """

    __slots__ = (
        "env",
        "name",
        "cores",
        "perf",
        "ctx_switch_cost",
        "_core_pool",
        "accounting",
        "_start_time",
    )

    def __init__(
        self,
        env: Environment,
        name: str,
        cores: int,
        perf: float = 1.0,
        ctx_switch_cost: float = 2.0e-6,
    ) -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        if perf <= 0:
            raise SimulationError(f"perf must be positive, got {perf}")
        self.env = env
        self.name = name
        self.cores = cores
        self.perf = perf
        self.ctx_switch_cost = ctx_switch_cost
        self._core_pool = Resource(env, capacity=cores,
                                   recycle_requests=True)
        self.accounting = CpuAccounting()
        self._start_time = env.now

    # -- execution -------------------------------------------------------------
    def execute(
        self, category: str, work: float
    ) -> Generator[Any, Any, None]:
        """Run ``work`` reference-seconds of CPU work on one core.

        Yields until a core is free, then holds it for the scaled wall
        time and accounts the busy core-seconds to ``category``.
        """
        if work < 0:
            raise SimulationError(f"negative CPU work: {work}")
        if work == 0:
            return
        wall = work / self.perf
        pool = self._core_pool
        req = pool.request()
        try:
            yield req
            yield req.hold(wall)
            self.accounting.add_busy(category, wall)
        finally:
            pool.finish(req)

    def record_ctx_switches(
        self, category: str, count: int = 1
    ) -> Generator[Any, Any, None]:
        """Record ``count`` context switches and charge their direct cost.

        Returns the :meth:`execute` generator directly (callers
        ``yield from`` it), avoiding an extra delegating frame on a very
        hot path.
        """
        self.accounting.add_ctx(category, count)
        cost = count * self.ctx_switch_cost
        if cost > 0:
            return self.execute(category, cost)
        return iter(())  # type: ignore[return-value]

    # -- observables -------------------------------------------------------------
    def busy_cores(self, elapsed: Optional[float] = None) -> float:
        """Average number of busy cores (the 'normalized to a single
        core' axis of Figure 5)."""
        if elapsed is None:
            elapsed = self.env.now - self._start_time
        if elapsed <= 0:
            return 0.0
        return sum(self.accounting.busy_by_category.values()) / elapsed

    def __repr__(self) -> str:
        return f"<CpuComplex {self.name} cores={self.cores} perf={self.perf}>"


class SimThread:
    """A named thread: the unit of CPU accounting.

    A thread belongs to exactly one :class:`CpuComplex` and one category
    (Ceph thread-naming convention: ``msgr-worker``, ``bstore_kv``,
    ``tp_osd_tp``, …).  Model code calls:

    * ``yield from thread.charge(work)`` — burn CPU,
    * ``yield from thread.ctx_switch(n)`` — record context switches.

    Both are booked to the thread's category; the name labels spans and
    reprs.
    """

    __slots__ = ("cpu", "name", "category")

    def __init__(self, cpu: CpuComplex, name: str, category: str) -> None:
        self.cpu = cpu
        self.name = name
        self.category = category

    @property
    def env(self) -> Environment:
        return self.cpu.env

    def charge(self, work: float) -> Generator[Any, Any, None]:
        """Execute ``work`` reference-seconds of CPU work.

        Returns the underlying generator directly — each ``yield from
        thread.charge(w)`` then drives :meth:`CpuComplex.execute` with
        no wrapper frame in between (every park/resume would otherwise
        traverse it).
        """
        return self.cpu.execute(self.category, work)

    def ctx_switch(self, count: int = 1) -> Generator[Any, Any, None]:
        """Record context switches (with their direct CPU cost)."""
        return self.cpu.record_ctx_switches(self.category, count)

    def __repr__(self) -> str:
        return f"<SimThread {self.name} ({self.category}) on {self.cpu.name}>"
