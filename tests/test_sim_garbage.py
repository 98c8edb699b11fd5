"""Steady state mints no cyclic garbage.

``Environment.run`` suspends the cyclic collector, so whatever a
completed op leaves behind that only the collector could free stays
until the run returns: before this test existed that was ~240 objects
per 4 MB DoCeph write (bound-method cycles on finished processes and
machines) and the reason peak RSS grew with replay length.  Each of the
four benchmark scenario builds is replayed for 1 and for 3 simulated
seconds with the collector off; the number of unreachable objects
``gc.collect()`` then finds may be anything (end-of-run leftovers are a
constant) but must not grow with the number of ops.

The same replays show the wire path's free lists bounded: rx chunk
machines are recycled through their pipe (``BandwidthPipe.rx_chunk`` /
``rx_release``), so the number alive is set by how many frames are in
flight at once, not by how many have been sent.
"""

from __future__ import annotations

import gc

import pytest

from repro.bench.radosbench import run_rados_bench
from repro.cluster.builder import build_baseline_cluster, build_doceph_cluster
from repro.cluster.config import DocephProfile
from repro.faults import FaultPlan
from repro.hw.net import _RX_FREE_MAX, BandwidthPipe, _RxChunk
from repro.qos.runner import run_qos
from repro.qos.tenants import default_tenants
from repro.sim import Environment

MB = 1 << 20


def _baseline(env):
    return build_baseline_cluster(env)


def _doceph(env):
    return build_doceph_cluster(env)


def _doceph_faulty(env):
    return build_doceph_cluster(
        env,
        DocephProfile(cooldown_seconds=0.5, rpc_timeout_seconds=0.5),
        fault_plan=FaultPlan.parse("dma,p=0.3", seed=0),
    )


def _replay(build, sim_s: float):
    """(ops completed, whatever must stay alive) for one replay."""
    env = Environment()
    if build is None:
        result = run_qos(
            "full-osd", default_tenants(4, rate=80.0), seed=0,
            duration=sim_s, env=env,
        )
        return result.bench.completed_ops, (env, result)
    cluster = build(env)
    result = run_rados_bench(
        cluster, object_size=4 * MB, clients=16, duration=sim_s, warmup=0.5
    )
    return result.completed_ops, (env, cluster, result)


def _unreachable_after(build, sim_s: float) -> tuple[int, int, int]:
    """(ops, unreachable objects, live rx chunk machines) with the
    collector off for the whole replay and the environment, cluster and
    result still referenced — so only true cyclic garbage is counted,
    not the live model."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        ops, alive = _replay(build, sim_s)
        unreachable = gc.collect()
        env = alive[0]  # count this replay's objects, nobody's leftovers
        live = [obj for obj in gc.get_objects()
                if type(obj) in (_RxChunk, BandwidthPipe) and obj.env is env]
        chunks = sum(type(obj) is _RxChunk for obj in live)
        assert all(
            len(obj._rx_free) <= _RX_FREE_MAX
            for obj in live if type(obj) is BandwidthPipe
        )
        del alive, live, env
    finally:
        if was_enabled:
            gc.enable()
    return ops, unreachable, chunks


@pytest.mark.parametrize(
    "build",
    [_baseline, _doceph, _doceph_faulty, None],
    ids=["baseline", "doceph", "doceph-dma-faults", "qos-full-osd"],
)
def test_unreachable_objects_do_not_grow_with_replay_length(build):
    short_ops, short, short_chunks = _unreachable_after(build, 1.0)
    long_ops, long, long_chunks = _unreachable_after(build, 3.0)
    extra_ops = long_ops - short_ops
    assert extra_ops > 100  # the longer replay really did more work
    # Per-op cycles are the failure: even one object per additional op
    # is too many (the parent commit left 140-240).
    assert long - short < extra_ops, (
        f"{short} unreachable objects after {short_ops} ops, "
        f"{long} after {long_ops}"
    )
    # Three times the frames, the same chunk machines: the live count
    # follows peak concurrency (a frame is 17 chunks), not replay length
    # (each extra op would have minted 34 and more).
    assert 0 < long_chunks < short_chunks + 17, (short_chunks, long_chunks)
