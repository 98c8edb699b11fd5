"""Client-side admission control: bounded per-tenant in-flight windows.

Open-loop arrivals do not self-limit, so under overload the client
would otherwise queue unbounded work and every tenant's latency would
diverge together.  The controller gives each tenant a fixed window of
in-flight ops; arrivals beyond it are shed *before* any simulation
event fires (:class:`~repro.rados.client.RadosClient` raises
``-EAGAIN``), which keeps shedding free of timing side effects and
makes goodput-vs-offered a meaningful overload metric.

Duck-typed against ``RadosClient.admission``: only ``try_acquire`` and
``release`` are called from the op path.
"""

from __future__ import annotations

__all__ = ["AdmissionController"]


class AdmissionController:
    """Per-tenant in-flight window.

    It counts nothing but what is in flight: sheds are tallied by
    ``RadosClient.ops_shed`` and ``TenantStats.shed``, admissions by
    ``TenantStats.admitted``.
    """

    __slots__ = ("_window", "_inflight")

    def __init__(self) -> None:
        self._window: dict[str, int] = {}
        self._inflight: dict[str, int] = {}

    def set_window(self, tenant: str, window: int) -> None:
        """Install (or resize) ``tenant``'s in-flight window."""
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self._window[tenant] = window

    def inflight(self, tenant: str) -> int:
        """Currently admitted-but-uncompleted ops for ``tenant``."""
        return self._inflight.get(tenant, 0)

    def try_acquire(self, tenant: str) -> bool:
        """Admit one op, or return False if the window is full.

        Tenants without a configured window are never shed.
        """
        window = self._window.get(tenant)
        inflight = self._inflight.get(tenant, 0)
        if window is not None and inflight >= window:
            return False
        self._inflight[tenant] = inflight + 1
        return True

    def release(self, tenant: str) -> None:
        """Return one in-flight slot (op completed or failed)."""
        inflight = self._inflight.get(tenant, 0)
        if inflight <= 0:
            raise RuntimeError(f"release without acquire for {tenant!r}")
        self._inflight[tenant] = inflight - 1
