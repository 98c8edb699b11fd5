"""OSD heartbeat traffic.

Ceph OSDs ping their peers at regular intervals; the paper calls out
heartbeats as part of the messenger's steady CPU load.  The
:class:`HeartbeatAgent` generates that background traffic and tracks
last-seen times per peer.

A single loop recomputes the peer set from the OSDMap every
``interval``, so peers marked down/out stop being pinged and rejoining
peers are picked up on the next map epoch.  :meth:`failed_peer_ids`
reports currently-up peers that have been silent past ``grace``; OSDs
fold that list into their monitor beacons so the monitor can mark
unreachable peers down early.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator

from ..sim.exceptions import Interrupt
from .message import MOSDPing
from .messenger import AsyncMessenger

if TYPE_CHECKING:
    from ..rados.osdmap import OsdMap

__all__ = ["HeartbeatAgent"]


class HeartbeatAgent:
    """Periodic pinger + last-seen tracker for one daemon."""

    __slots__ = (
        "messenger",
        "peer_addrs",
        "interval",
        "grace",
        "osdmap",
        "whoami",
        "last_seen",
        "_tid",
        "_last_tid_in",
        "_peer_ids",
        "_proc",
    )

    def __init__(
        self,
        messenger: AsyncMessenger,
        osdmap: OsdMap,
        whoami: int,
        interval: float = 1.0,
        grace: float = 4.0,
    ) -> None:
        self.messenger = messenger
        self.osdmap = osdmap
        self.whoami = whoami
        self.interval = interval
        self.grace = grace
        #: Addresses of the current peer set, sorted.
        self.peer_addrs: list[str] = []
        self.last_seen: dict[str, float] = {}
        self._tid = 0
        #: (src, is_reply) → highest tid seen, so a ping delayed or
        #: replayed past a newer one cannot masquerade as fresh liveness
        self._last_tid_in: dict[tuple[str, bool], int] = {}
        #: addr → osd id for the current peer set.
        self._peer_ids: dict[str, int] = {}
        self._proc: Any = messenger.env.process(
            self._loop(), name=f"hb:{messenger.name}"
        )

    def stop(self) -> None:
        """Halt all ping traffic (daemon crash/shutdown)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("heartbeat stop")
        self._proc = None

    def _map_peers(self) -> dict[str, int]:
        """addr → osd id for every *up* OSD in the map except ourselves."""
        peers: dict[str, int] = {}
        for osd_id in self.osdmap.osds:
            if osd_id == self.whoami or not self.osdmap.is_up(osd_id):
                continue
            peers[self.osdmap.address_of(osd_id)] = osd_id
        return peers

    def _loop(self) -> Generator[Any, Any, None]:
        env = self.messenger.env
        try:
            while True:
                peers = self._map_peers()
                now = env.now
                for addr in sorted(peers):
                    if addr not in self.last_seen:
                        # seed on first sight so a just-added peer is not
                        # instantly reported as failed
                        self.last_seen[addr] = now
                    self._tid += 1
                    self.messenger.send_message(
                        MOSDPing(tid=self._tid, stamp=now), addr
                    )
                self._peer_ids = peers
                self.peer_addrs = sorted(peers)
                yield env.timeout(self.interval)
        except Interrupt:
            return

    # -- called by the owner's dispatcher ---------------------------------
    def handle_ping(self, msg: MOSDPing) -> MOSDPing | None:
        """Process an incoming ping; returns the reply to send (or
        ``None`` if the ping was itself a reply).

        ``last_seen`` only moves forward for pings *newer* than any
        already seen from that peer (per direction): a reply delayed by
        wire jitter past a later one, or re-delivered across a
        connection reset, proves nothing the newer ping did not.
        ``tid == 1`` is always fresh — it marks a restarted peer whose
        counter began again.  Stale *requests* are still answered so
        the peer's view of us stays live."""
        key = (msg.src, msg.is_reply)
        last = self._last_tid_in.get(key, 0)
        if msg.tid > last or msg.tid == 1:
            self._last_tid_in[key] = msg.tid
            self.last_seen[msg.src] = self.messenger.env.now
        if msg.is_reply:
            return None
        return MOSDPing(tid=msg.tid, is_reply=True, stamp=msg.stamp)

    def stale_peers(self, now: float) -> list[str]:
        """Peers silent for longer than the grace window."""
        return [
            addr
            for addr in self.peer_addrs
            if now - self.last_seen.get(addr, -float("inf")) > self.grace
        ]

    def failed_peer_ids(self, now: float) -> list[int]:
        """OSD ids of map-up peers silent past ``grace``."""
        return sorted(self._peer_ids[addr] for addr in self.stale_peers(now))
