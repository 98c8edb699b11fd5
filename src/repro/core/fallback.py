"""Adaptive fallback and cooldown (§4, robustness).

On a DMA failure the proxy immediately reroutes the failed segment —
and everything that follows — through the socket RPC path, preserving
already-completed segments.  An atomic cooldown flag plus expiration
timestamp keeps *all* traffic on the RPC path for a fixed window; after
expiry the next request first issues a small **probe** transfer, and
only a successful probe re-arms the DMA path.

State machine (one controller shared by all requests on a node)::

    ARMED ──failure──▶ COOLDOWN ──expiry──▶ PROBE_DUE ──begin_probe──▶
    PROBING ──probe ok──▶ ARMED
            └─probe fail─▶ COOLDOWN (restarted)

``dma_allowed`` is true only in ARMED.  The transition into PROBING is
guarded: with many concurrent requests, all of them observe
``probe_due()`` true the instant the cooldown expires, but only the one
that wins :meth:`begin_probe` issues the probe transfer — everyone else
stays on the RPC path until the probe resolves.  (Without the guard,
*n* concurrent writers issued *n* duplicate probes per expiry.)
"""

from __future__ import annotations

__all__ = ["FallbackController", "PROBE_BYTES"]

#: Size of the test transfer used to re-validate the DMA path.
PROBE_BYTES = 4096


class FallbackController:
    """Cooldown state machine shared by all requests on one node."""

    def __init__(self, cooldown_seconds: float) -> None:
        self.cooldown_seconds = cooldown_seconds
        self._cooldown_until = -float("inf")
        self._needs_probe = False
        self._probe_inflight = False
        self._outage_start: float | None = None

        # statistics
        self.failures = 0
        self.fallback_segments = 0
        self.probes_attempted = 0
        self.probes_succeeded = 0
        #: begin_probe() calls refused because a probe was already out.
        self.probes_suppressed = 0
        #: Per-outage seconds from first failure to the re-arming probe.
        self.recovery_latencies: list[float] = []

    # -- state queries -----------------------------------------------------------
    def dma_allowed(self, now: float) -> bool:
        """May a normal segment use DMA right now?"""
        return now >= self._cooldown_until and not self._needs_probe

    def probe_due(self, now: float) -> bool:
        """Cooldown expired but DMA not yet revalidated."""
        return self._needs_probe and now >= self._cooldown_until

    # -- transitions -----------------------------------------------------------
    def record_failure(self, now: float) -> None:
        """A DMA transfer failed: start (or restart) the cooldown."""
        self.failures += 1
        self._cooldown_until = now + self.cooldown_seconds
        self._needs_probe = True
        if self._outage_start is None:
            self._outage_start = now

    def record_fallback_segment(self) -> None:
        self.fallback_segments += 1

    def begin_probe(self, now: float) -> bool:
        """Try to claim the single probe slot for this cooldown expiry.

        Returns ``True`` for exactly one caller per expiry; that caller
        MUST follow up with :meth:`record_probe`.  Everyone else gets
        ``False`` and should treat DMA as still disallowed.
        """
        if not self.probe_due(now):
            return False
        if self._probe_inflight:
            self.probes_suppressed += 1
            return False
        self._probe_inflight = True
        return True

    def record_probe(self, success: bool, now: float) -> None:
        """Outcome of a test transfer after cooldown expiry."""
        self._probe_inflight = False
        self.probes_attempted += 1
        if success:
            self.probes_succeeded += 1
            self._needs_probe = False
            if self._outage_start is not None:
                self.recovery_latencies.append(now - self._outage_start)
                self._outage_start = None
        else:
            # still broken: back to cooldown
            self._cooldown_until = now + self.cooldown_seconds

    def __repr__(self) -> str:
        return (
            f"<FallbackController failures={self.failures}"
            f" fallback_segments={self.fallback_segments}"
            f" probes={self.probes_succeeded}/{self.probes_attempted}>"
        )
