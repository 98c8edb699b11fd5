"""Memory guards: a replay keeps only what the run still needs.

* the traced bytes a DoCeph or a Baseline bench retains per client op,
  as the slope between two points of a live run;
* the RPC dedup records, which must all be gone once every call ended;
* the SHA-256 helper, which must not map OpenSSL to hash a few bytes.
"""

import hashlib
import os
import pathlib
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.bench import run_rados_bench
from repro.chaos import run_chaos
from repro.cluster import (
    DocephProfile,
    build_baseline_cluster,
    build_doceph_cluster,
)
from repro.core import RpcChannel
from repro.faults import FaultPlan
from repro.sim import Environment
from repro.util import sha256_hex

MB = 1 << 20


def _retained_per_op(build):
    """Slope of traced memory between 2 and 8 sim-s of a 4 MB bench (16
    clients) on ``build(env)``'s cluster, per client op completed in
    between."""
    env = Environment()
    cluster = build(env)
    samples = []

    def probe():
        for t in (2.0, 8.0):
            yield env.timeout(t - env.now)
            samples.append((tracemalloc.get_traced_memory()[0],
                            cluster.client.ops_completed))

    tracemalloc.start()
    try:
        env.process(probe())
        run_rados_bench(cluster, object_size=4 * MB, clients=16,
                        duration=8.0, warmup=0.5)
    finally:
        tracemalloc.stop()
    (bytes0, ops0), (bytes1, ops1) = samples
    assert ops1 - ops0 > 500
    return (bytes1 - bytes0) / (ops1 - ops0)


def test_doceph_bench_retains_at_most_1400_bytes_per_client_op():
    """Each op legitimately leaves onodes, extents and two packed write
    breakdowns behind; a dedup record kept after its reply, a KV key
    per object, or a breakdown object per write pushes it past the
    bound."""
    per_op = _retained_per_op(build_doceph_cluster)
    assert per_op <= 1400, f"{per_op:.0f} bytes retained per client op"


def test_baseline_bench_retains_at_most_950_bytes_per_client_op():
    """The Baseline build never enters the proxy: its bound guards the
    onodes, their extents and the WAL alone."""
    per_op = _retained_per_op(build_baseline_cluster)
    assert per_op <= 950, f"{per_op:.0f} bytes retained per client op"


@pytest.fixture
def channels(monkeypatch):
    """Every :class:`RpcChannel` built while the test runs."""
    built = []
    init = RpcChannel.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(RpcChannel, "__init__", recording_init)
    return built


def _bench(plan=None):
    """A short DoCeph bench; returns the faults the plan injected."""
    env = Environment()
    profile = DocephProfile(rpc_timeout_seconds=0.5)
    cluster = build_doceph_cluster(env, profile, fault_plan=plan)
    run_rados_bench(cluster, object_size=MB, clients=4, duration=3.0,
                    warmup=0.5)
    return {} if plan is None else plan.injected


def _chaos():
    """One OSD crash (at ~2 s) under writes; returns the incidents."""
    report = run_chaos(mode="doceph", seed=0, duration=2.0, clients=2,
                       crashes=1, partitions=0)
    return {"crash": sum(kind == "crash" for kind, *_ in report.incidents)}


@pytest.mark.parametrize("run, injected", [
    pytest.param(_bench, set(), id="clean"),
    pytest.param(lambda: _bench(FaultPlan.parse(
        "rpc:request_loss,p=0.02;rpc:reply_loss,p=0.02;"
        "rpc:delay,p=0.05,delay=0.001")),
        {"rpc.request_loss", "rpc.reply_loss", "rpc.delay"},
        id="rpc-faults"),
    pytest.param(_chaos, {"crash"}, id="chaos-crash"),
])
def test_no_dedup_record_outlives_its_call(channels, run, injected):
    assert {k for k, n in run().items() if n} == injected
    assert channels and sum(c.calls for c in channels) > 100
    for channel in channels:
        assert channel._done == {}, channel
        assert not (channel._queued or channel._abandoned
                    or channel._inflight), channel


def test_simulation_digest_leaves_openssl_unloaded():
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from repro.sim import Environment\n"
        "from repro.trace import simulation_digest\n"
        "simulation_digest(Environment())\n"
        "sys.exit('_hashlib' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr or "_hashlib was imported"


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_sha256_hex_equals_hashlib(blob):
    assert sha256_hex(blob) == hashlib.sha256(blob).hexdigest()
