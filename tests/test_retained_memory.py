"""Memory guards: a replay keeps only what the run still needs.

* the traced bytes a DoCeph or a Baseline bench retains per client op,
  as the slope between two points of a live run;
* the open-loop QoS runner, which keeps an op's process only while the
  op is in flight;
* the event heap, which sheds the watchdogs that lost to their replies
  instead of keeping them to their deadlines;
* a written object's onode, one int record whose runs are checked
  against the allocator's extents on fragmented devices;
* the RPC dedup records, which must all be gone once every call ended;
* the SHA-256 helper, which must not map OpenSSL to hash a few bytes;
* the modules a replay imports, which must not load ``decimal``.
"""

import gc
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
from repro.bench.metrics import CpuSampler
from repro.chaos import run_chaos
from repro.cluster import (
    DocephProfile,
    build_baseline_cluster,
    build_doceph_cluster,
)
from repro.core import RpcChannel
from repro.faults import FaultPlan
from repro.hw import CpuComplex, SimThread, SsdDevice
from repro.objectstore import BlueStore, BlueStoreConfig, Transaction
from repro.qos import default_tenants, run_qos
from repro.sim import Environment, Process, Timeout
from repro.sim import core
from repro.util import DataBlob, sha256_hex

from .test_allocator_kv import UNIT, _DenseBitWalk, _used_blocks

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


def test_doceph_bench_retains_at_most_950_bytes_per_client_op():
    """Each op legitimately leaves onodes, extents and two packed write
    breakdowns behind (~710 B); a dedup record kept after its reply, a
    KV key per object, a breakdown object per write, or a watchdog left
    pending to its deadline pushes it past the bound."""
    per_op = _retained_per_op(build_doceph_cluster)
    assert per_op <= 950, f"{per_op:.0f} bytes retained per client op"


def test_baseline_bench_retains_at_most_950_bytes_per_client_op():
    """The Baseline build never enters the proxy: its bound guards the
    onodes, their extents and the WAL alone."""
    per_op = _retained_per_op(build_baseline_cluster)
    assert per_op <= 950, f"{per_op:.0f} bytes retained per client op"


def test_qos_window_closes_holding_no_finished_op(monkeypatch):
    """When the arrival window closes, ``run_qos`` holds the process of
    an op in flight and of no finished op: the drain waits on in-flight
    ops only, so keeping finished ones (and their names) until the run
    ends would be ~160 B per offered op for nothing."""
    seen = []
    stop = CpuSampler.stop

    def closing_stop(self):
        if not seen:  # the first of the two samplers stops at t_close
            gc.collect()
            ops = [o for o in gc.get_objects()
                   if isinstance(o, Process) and o.name.startswith("qos-t")]
            seen.append((sum(o.processed for o in ops), len(ops)))
        return stop(self)

    monkeypatch.setattr(CpuSampler, "stop", closing_stop)
    result = run_qos("full-osd", default_tenants(2, rate=80.0),
                     seed=0, duration=2.0, prepopulate=8)
    finished, held = seen[0]
    assert sum(t.completed for t in result.tenants) > 200
    assert finished == 0, f"{finished} finished op processes of {held} held"


def test_heap_is_never_half_cancelled_watchdogs(monkeypatch):
    """Each op's watchdog is cancelled once the reply wins, and the
    heap is compacted as soon as cancelled entries could make up half
    of it: left to their 1-10 s deadlines they were ~2 400 entries and
    0.6 MB at the end of a full-length ``mix64k_qos`` replay."""
    seen = []
    cancel = Timeout.cancel

    def watched_cancel(self):
        cancel(self)
        queue = self.env._queue
        seen.append((sum(e[3].callbacks is core._CANCELLED for e in queue),
                     len(queue)))

    monkeypatch.setattr(Timeout, "cancel", watched_cancel)
    run_qos("full-osd", default_tenants(2, rate=80.0),
            seed=0, duration=2.0, prepopulate=8)
    assert len(seen) > 500
    assert all(held == 0 or 2 * held < size for held, size in seen)


def _store(capacity, alloc_unit):
    env = Environment()
    cpu = CpuComplex(env, "host", cores=4)
    ssd = SsdDevice(env, "ssd", write_bandwidth=1e9, write_latency=50e-6)
    store = BlueStore(env, "bs", cpu, ssd, BlueStoreConfig(
        device_capacity=capacity, alloc_unit=alloc_unit))
    store.mkfs()
    store.collections["pg"] = {}
    thread = SimThread(cpu, "tp_osd_tp-0", "tp_osd_tp")

    def commit(*txns):
        def submit():
            for txn in txns:
                yield from store.queue_transaction(txn, thread)
        env.run(until=env.process(submit()))

    return store, commit


def _write(oid, nbytes):
    return Transaction().write("pg", oid, 0, nbytes, DataBlob(nbytes))


def _retained(objects):
    """Traced bytes after a collection, the collection's table aside."""
    gc.collect()
    return tracemalloc.get_traced_memory()[0] - sys.getsizeof(objects)


def test_single_run_object_retains_at_most_150_bytes():
    """A 64 KB object written to a fresh store is one run.  Its record
    (size, version, content id and run in one int) and oid stay under
    150 B, the collection's table aside; an ``Onode`` with three ints
    and a packed run beside them was ~230 B.  Grown to three runs, the
    object keeps one int, and each further run adds at most 16 B."""
    store, commit = _store(1 << 30, 65536)
    objects = store.collections["pg"]
    commit(*(_write(f"obj-{i}", 65536) for i in range(200)))
    samples = []
    tracemalloc.start()
    try:
        samples.append(_retained(objects))
        commit(*(_write(f"obj-{i}", 65536) for i in range(200, 1200)))
        samples.append(_retained(objects))
        for runs in (2, 3):
            commit(*(_write(f"obj-{i}", runs * 65536)
                     for i in range(200, 1200)))
        samples.append(_retained(objects))
    finally:
        tracemalloc.stop()
    per_object = (samples[1] - samples[0]) / 1000
    assert per_object <= 150, f"{per_object:.0f} bytes retained per object"
    per_run = (samples[2] - samples[1]) / 2000
    assert per_run <= 16, f"{per_run:.0f} bytes retained per further run"
    assert isinstance(objects["obj-7"], int)
    assert isinstance(objects["obj-700"], int)
    assert len(store.onode("pg", "obj-700").extents) == 3


_store_op = st.one_of(
    # write object i out to this many blocks (grows it when larger)
    st.tuples(st.just("write"), st.integers(min_value=0, max_value=7),
              st.integers(min_value=1, max_value=12)),
    st.tuples(st.just("remove"), st.integers(min_value=0, max_value=7)),
)


@given(blocks=st.sampled_from((48, 67)),
       ops=st.lists(_store_op, min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_packed_runs_equal_the_allocators_extents(blocks, ops):
    """On a device fragmented into one-block holes, every onode's runs
    decode to the extents the dense reference walk hands out, in order;
    ``allocated`` is their sum, a single run is a bare int, and a remove
    gives back the free count and the used blocks of the walk."""
    store, commit = _store(blocks * UNIT, UNIT)
    objects = store.collections["pg"]
    ref = _DenseBitWalk(blocks)
    model = {}  # oid -> the reference's extents, in allocation order

    def write(oid, nbytes):
        held = sum(e.length for e in model.get(oid, ()))
        if nbytes > held + ref.free_blocks * UNIT:
            return
        commit(_write(oid, nbytes))
        if nbytes > held:
            model.setdefault(oid, []).extend(ref.allocate(nbytes - held))
        onode = store.onode("pg", oid)
        assert onode.extents == tuple(model[oid])
        assert onode.allocated == sum(e.length for e in model[oid])
        assert isinstance(onode.runs, int) == (len(model[oid]) == 1)

    def remove(oid):
        commit(Transaction().remove("pg", oid))
        ref.free(model.pop(oid))
        assert store.allocator.free_bytes == ref.free_blocks * UNIT
        assert _used_blocks(store.allocator) == ref.used_blocks()

    for b in range(blocks):
        write(f"fill-{b}", UNIT)
    for b in range(0, blocks, 2):
        remove(f"fill-{b}")
    write("big", 3 * UNIT)
    assert len(model["big"]) == 3
    for op in ops:
        oid = f"obj-{op[1]}"
        if op[0] == "write":
            write(oid, op[2] * UNIT)
        elif oid in model:
            remove(oid)
    for oid in list(model):
        remove(oid)
    assert store.allocator.free_bytes == store.allocator.capacity
    assert objects == {}


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


def test_replay_modules_leave_decimal_unloaded():
    """``statistics`` pulls in ``decimal`` and ``fractions`` (~0.55 MB
    of every replay's peak RSS); the modules a replay imports load
    neither."""
    src = pathlib.Path(repro.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import repro.bench.experiments, repro.qos.runner\n"
        "import repro.trace, repro.cluster.builder\n"
        "loaded = [m for m in ('decimal', 'fractions') if m in sys.modules]\n"
        "sys.exit(' '.join(loaded) or None)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
def test_sha256_hex_equals_hashlib(blob):
    assert sha256_hex(blob) == hashlib.sha256(blob).hexdigest()
