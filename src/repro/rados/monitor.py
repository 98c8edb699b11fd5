"""The monitor daemon: cluster-map authority and failure detector.

Serves OSDMap fetches over the messenger and runs a beacon-based
failure detector: OSDs send :class:`~repro.msgr.message.MOSDBeacon`
periodically; silence beyond ``down_grace`` marks an OSD down, and
beyond ``out_interval`` marks it out (removing it from CRUSH placement),
which remaps its PGs.  ``last_beacon`` is seeded for every known OSD at
monitor construction (and lazily for OSDs added later), so an OSD that
crashes before its first beacon is still detected.

Beacons also carry peer failure reports (``MOSDBeacon.failed_peers``,
the heartbeat agent's stale-peer list).  Reports from distinct live
reporters accumulate per target; reaching the reporter quorum marks the
target down immediately — faster than waiting out ``down_grace``, and
the only detection path for asymmetric reachability.  While a live
quorum stands against an OSD, its own beacons do *not* mark it up
(anti-flap during partitions); reports expire after ``down_grace`` once
reporters stop renewing them.

Simulation note: map *contents* propagate by shared reference — every
daemon holds the same live :class:`~repro.rados.osdmap.OsdMap` object,
so an epoch bump is instantly visible cluster-wide (the simulated
equivalent of prompt map distribution).  Map *fetches* at boot still go
over the wire so client bring-up exercises the messenger.
"""

from __future__ import annotations

from typing import Any, Generator

from ..msgr.message import (
    Message,
    MMonGetMap,
    MMonMapReply,
    MOSDBeacon,
    MOSDPing,
)
from ..msgr.messenger import AsyncMessenger, Connection
from .osdmap import OsdMap, OsdState

__all__ = ["Monitor"]


class Monitor:
    """MON daemon bound to one messenger."""

    def __init__(
        self,
        messenger: AsyncMessenger,
        osdmap: OsdMap,
        down_grace: float = 5.0,
        out_interval: float = 30.0,
        check_period: float = 1.0,
        failure_reporters: int = 2,
    ) -> None:
        self.messenger = messenger
        self.osdmap = osdmap
        self.down_grace = down_grace
        self.out_interval = out_interval
        self.failure_reporters = failure_reporters
        self.env = messenger.env
        # seed at registration time: an OSD that never beacons must still
        # trip the grace timer (satellite bugfix)
        self.last_beacon: dict[int, float] = {
            osd_id: self.env.now for osd_id in osdmap.osds
        }
        #: target osd → {reporter osd: report time}
        self._failure_reports: dict[int, dict[int, float]] = {}
        #: osd → highest beacon tid accepted (stale-straggler guard)
        self._beacon_seq: dict[int, int] = {}
        self.osds_marked_down = 0
        self.osds_marked_out = 0
        self.osds_marked_up = 0
        self.report_down_events = 0
        messenger.register_dispatcher(self)
        self._detector = self.env.process(
            self._failure_detector(check_period), name="mon.failure-detector"
        )

    @property
    def address(self) -> str:
        return self.messenger.address

    # ---------------------------------------------------------------- dispatch
    def ms_dispatch(
        self, msg: Message, conn: Connection
    ) -> Generator[Any, Any, None]:
        if isinstance(msg, MMonGetMap):
            reply = MMonMapReply(
                tid=msg.tid,
                epoch=self.osdmap.epoch,
                map_bytes=self._map_size(),
            )
            reply.attachment = self.osdmap
            self.messenger.send_message(reply, msg.src)
        elif isinstance(msg, MOSDBeacon):
            self._handle_beacon(msg)
        elif isinstance(msg, MOSDPing) and not msg.is_reply:
            self.messenger.send_message(
                MOSDPing(tid=msg.tid, is_reply=True, stamp=msg.stamp), msg.src
            )
        release = getattr(msg, "throttle_release", None)
        if release is not None:
            release()
        if False:  # keep generator form expected by the messenger
            yield

    def _handle_beacon(self, msg: MOSDBeacon) -> None:
        now = self.env.now
        # A beacon delayed past a newer one (wire jitter) or replayed
        # across a connection reset carries an outdated failed_peers
        # snapshot — acting on it would flap the map on stale evidence.
        # tid 1 is always fresh: a restarted daemon's counter begins
        # again, and its first beacon must not be mistaken for history.
        last = self._beacon_seq.get(msg.osd_id, 0)
        if 1 < msg.tid <= last:
            return
        self._beacon_seq[msg.osd_id] = msg.tid
        self.last_beacon[msg.osd_id] = now
        for target in msg.failed_peers:
            if target != msg.osd_id and target in self.osdmap.osds:
                self._failure_reports.setdefault(target, {})[msg.osd_id] = now
        if msg.osd_id in self.osdmap.osds and not self.osdmap.is_up(
            msg.osd_id
        ):
            # A beacon from a down OSD brings it back into service —
            # unless a live quorum of peers still reports it unreachable
            # (one-way reachability during a partition must not flap the
            # map up and down every beacon).
            if not self._reported_down(msg.osd_id, now):
                self.osdmap.mark_up(msg.osd_id)
                self.osds_marked_up += 1
                self._failure_reports.pop(msg.osd_id, None)

    def _map_size(self) -> int:
        """Approximate encoded OSDMap size (grows with cluster size)."""
        return 1024 + 256 * len(self.osdmap.osds)

    # ---------------------------------------------------------------- reports
    def _live_reports(self, target: int, now: float) -> dict[int, float]:
        """Unexpired reports against ``target`` from up reporters."""
        reports = self._failure_reports.get(target, {})
        return {
            reporter: stamp
            for reporter, stamp in reports.items()
            if now - stamp <= self.down_grace
            and reporter in self.osdmap.osds
            and self.osdmap.is_up(reporter)
        }

    def _quorum(self) -> int:
        up = sum(1 for o in self.osdmap.osds if self.osdmap.is_up(o))
        return max(1, min(self.failure_reporters, up - 1))

    def _reported_down(self, target: int, now: float) -> bool:
        return len(self._live_reports(target, now)) >= self._quorum()

    # ---------------------------------------------------------------- detector
    def _failure_detector(self, period: float) -> Generator[Any, Any, None]:
        while True:
            yield self.env.timeout(period)
            now = self.env.now
            # prune expired reports so memory stays bounded
            for target in list(self._failure_reports):
                live = {
                    r: t
                    for r, t in self._failure_reports[target].items()
                    if now - t <= self.down_grace
                }
                if live:
                    self._failure_reports[target] = live
                else:
                    del self._failure_reports[target]
            for osd_id, info in list(self.osdmap.osds.items()):
                last = self.last_beacon.setdefault(osd_id, now)
                silent = now - last
                if info.state == OsdState.UP_IN:
                    if silent > self.down_grace:
                        self.osdmap.mark_down(osd_id)
                        self.osds_marked_down += 1
                    elif self._reported_down(osd_id, now):
                        # peers can't reach it even though its beacons
                        # still arrive (or its grace hasn't expired yet)
                        self.osdmap.mark_down(osd_id)
                        self.osds_marked_down += 1
                        self.report_down_events += 1
                if (
                    info.state == OsdState.DOWN_IN
                    and silent > self.out_interval
                ):
                    self.osdmap.mark_out(osd_id)
                    self.osds_marked_out += 1

    def __repr__(self) -> str:
        return f"<Monitor @{self.address} epoch={self.osdmap.epoch}>"
