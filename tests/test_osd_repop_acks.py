"""The primary's count of replica acks for one replicated write."""

from repro.osd.daemon import _InFlightWrite
from repro.sim import Environment


def test_a_replica_that_answers_twice_is_counted_once():
    """A sub-op retransmitted after a wire reset is applied and answered
    again: the second reply must neither ack another replica's share
    nor fail, and a reply from an OSD the sub-op never went to is
    ignored."""
    env = Environment()
    inflight = _InFlightWrite(["osd.1", "osd.2"], env)
    inflight.ack("osd.1")
    inflight.ack("osd.1")
    inflight.ack("osd.9", ok=False)
    acks = list(inflight.acks.values())
    assert [ev.triggered for ev in acks] == [True, False]
    assert not inflight.failed
    inflight.ack("osd.2", ok=False)
    assert all(ev.triggered for ev in acks) and inflight.failed
    env.run()
