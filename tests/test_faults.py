"""Tests for the unified fault-injection subsystem (repro.faults) and
the recovery machinery it exercises: RPC timeout/retry, the fallback
probe guard, and per-layer failure accounting.

Seeded tests run under the one fixed ``SEED`` below.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import run_rados_bench
from repro.cluster import DocephProfile, build_doceph_cluster
from repro.core import (
    CommChannel,
    DocaDma,
    FallbackController,
    DmaPipeline,
    RpcChannel,
    RpcError,
)
from repro.faults import (
    FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    format_fault_specs,
    parse_fault_specs,
)
from repro.hw import (
    BandwidthPipe,
    ClusterNode,
    CpuComplex,
    DmaEngine,
    DmaError,
    Network,
    SimThread,
    SsdDevice,
    StorageError,
)
from repro.sim import Environment, Interrupt
from repro.util import BufferList

MB = 1 << 20

SEED = 0


# --------------------------------------------------------------- spec parsing


def test_parse_single_layer_defaults():
    (spec,) = parse_fault_specs("dma")
    assert spec.layer == "dma"
    assert spec.kind == "error"  # layer default kind
    assert spec.probability == 1.0
    assert spec.window is None and spec.nth is None and spec.burst == 1


def test_parse_full_plan():
    specs = parse_fault_specs(
        "dma,p=0.02;rpc:reply_loss,nth=3,burst=2;"
        "net:degrade,window=4-5,factor=8;storage,nodes=node0|node1"
    )
    assert [s.layer for s in specs] == ["dma", "rpc", "net", "storage"]
    assert specs[0].probability == 0.02
    assert specs[1].kind == "reply_loss"
    assert specs[1].nth == 3 and specs[1].burst == 2
    assert specs[2].window == (4.0, 5.0) and specs[2].factor == 8.0
    assert specs[3].nodes == ("node0", "node1")


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        parse_fault_specs("")
    with pytest.raises(ValueError):
        parse_fault_specs("dma,p")  # option without value
    with pytest.raises(ValueError):
        parse_fault_specs("dma,window=5")  # window needs start-end
    with pytest.raises(ValueError):
        parse_fault_specs("dma,bogus=1")
    with pytest.raises(ValueError):
        parse_fault_specs("warp")  # unknown layer
    with pytest.raises(ValueError):
        parse_fault_specs("dma:reply_loss")  # kind from another layer


def test_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(layer="dma", probability=1.5)
    with pytest.raises(ValueError):
        FaultSpec(layer="dma", window=(5.0, 5.0))
    with pytest.raises(ValueError):
        FaultSpec(layer="dma", nth=0)
    with pytest.raises(ValueError):
        FaultSpec(layer="dma", burst=0)
    with pytest.raises(ValueError):
        FaultSpec(layer="net", factor=0.5)
    for layer, kinds in FAULT_KINDS.items():
        for kind in kinds:
            if kind == "partition":
                # partitions are sustained windows between node groups
                FaultSpec(layer=layer, kind=kind, window=(1.0, 2.0),
                          nodes=("node0",))
                with pytest.raises(ValueError):
                    FaultSpec(layer=layer, kind=kind)  # needs window+nodes
            else:
                FaultSpec(layer=layer, kind=kind)  # all valid combos build


def test_parse_adversary_kinds_round_trip():
    text = (
        "net:corrupt,p=0.2;net:dup,p=0.1,burst=2;net:reorder,nth=3;"
        "net:truncate,p=0.05;net:jitter,p=0.3,delay=0.002"
    )
    specs = parse_fault_specs(text)
    assert [s.kind for s in specs] == [
        "corrupt", "dup", "reorder", "truncate", "jitter",
    ]
    assert all(s.layer == "net" for s in specs)
    # format → parse is the identity (the corpus relies on this)
    assert tuple(parse_fault_specs(format_fault_specs(specs))) == tuple(specs)


def test_pipe_injector_excludes_adversary_kinds():
    """Frame-level adversary specs must never leak into the chunk-level
    NIC pipe injector (and vice versa): each consumes from its own
    stream and acts at a different layer of the model."""
    plan = FaultPlan.parse(
        "net:corrupt,p=1;net:jitter,p=1,delay=0.001;"
        "net:degrade,window=0-1,factor=2",
        seed=SEED,
    )
    pipe = plan.injector("net", "node0")
    assert [s.kind for s in pipe.specs] == ["degrade"]
    adversary = plan.adversary_injector("node0")
    assert sorted(s.kind for s in adversary.specs) == ["corrupt", "jitter"]


# --------------------------------------------------------------- injector semantics


def test_injector_window_gates_firing():
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec(layer="dma", window=(2.0, 4.0)),
    ])
    inj = plan.injector("dma", "n")
    assert inj.fire(1.9) is None
    assert inj.fire(2.0) is not None  # inclusive start
    assert inj.fire(3.999) is not None
    assert inj.fire(4.0) is None  # exclusive end
    assert plan.injected == {"dma.error": 2}


def test_injector_nth_and_burst():
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec(layer="dma", nth=3, burst=2),
    ])
    inj = plan.injector("dma", "n")
    fired = [inj.fire(0.0) is not None for _ in range(6)]
    # op 3 (nth) and op 4 (burst continuation) fail, nothing else
    assert fired == [False, False, True, True, False, False]
    assert plan.injected["dma.error"] == 2


def test_random_hit_starts_a_burst():
    """A probabilistic hit also fails the next ``burst - 1`` operations."""
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec(layer="dma", probability=0.2, burst=3),
    ])
    inj = plan.injector("dma", "n")
    fired = "".join("x" if inj.fire(0.0) else "." for _ in range(300))
    # the last run may be cut short by the end of the sequence
    runs = [len(run) for run in fired.rstrip("x").split(".") if run]
    assert runs and min(runs) >= 3


def test_injector_kind_filtering():
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec(layer="rpc", kind="reply_loss", nth=1),
    ])
    inj = plan.injector("rpc", "n")
    assert inj.fire(0.0, kind="request_loss") is None
    assert inj.fire(0.0, kind="reply_loss") is not None
    assert inj.fire(0.0, kind="reply_loss") is None  # nth already consumed


def test_injector_node_scoping():
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec(layer="dma", nodes=("node1",)),
    ])
    assert plan.injector("dma", "node0").fire(0.0) is None
    assert plan.injector("dma", "node1").fire(0.0) is not None


def test_plan_determinism_at_injector_level():
    """Two plans with the same seed and specs fire identically."""
    mk = lambda: FaultPlan(seed=SEED, specs=[
        FaultSpec(layer="dma", probability=0.3),
    ])
    a, b = mk(), mk()
    seq_a = [a.injector("dma", "n").fire(0.0) is not None
             for _ in range(200)]
    seq_b = [b.injector("dma", "n").fire(0.0) is not None
             for _ in range(200)]
    assert seq_a == seq_b
    assert a.snapshot() == b.snapshot()
    assert 0 < sum(seq_a) < 200  # p=0.3 actually fires sometimes


def test_injector_streams_independent_per_scope():
    """node0's schedule must not shift when node1 starts firing ops."""
    plan_a = FaultPlan(seed=SEED, specs=[FaultSpec("dma", probability=0.3)])
    seq_solo = [plan_a.injector("dma", "node0").fire(0.0) is not None
                for _ in range(100)]
    plan_b = FaultPlan(seed=SEED, specs=[FaultSpec("dma", probability=0.3)])
    inj0 = plan_b.injector("dma", "node0")
    inj1 = plan_b.injector("dma", "node1")
    seq_interleaved = []
    for _ in range(100):
        inj1.fire(0.0)  # interleave traffic on another node
        seq_interleaved.append(inj0.fire(0.0) is not None)
    assert seq_solo == seq_interleaved


# --------------------------------------------------------------- hardware layers


def test_dma_layer_raises_and_accounts_failed_bytes():
    env = Environment()
    dma = DmaEngine(env, "d", bandwidth=1e9, setup_latency=1e-3)
    plan = FaultPlan(seed=SEED, specs=[FaultSpec("dma", nth=2)])
    plan.attach_dma(dma, "n")

    def work():
        yield from dma.transfer(1 * MB)
        with pytest.raises(DmaError):
            yield from dma.transfer(1 * MB)
        yield from dma.transfer(1 * MB)

    p = env.process(work())
    env.run(until=p)
    assert dma.failures == 1
    assert dma.failed_bytes == 1 * MB
    assert dma.bytes_transferred == 2 * MB
    assert plan.injected_bytes["dma.error"] == 1 * MB


def test_dma_busy_time_conservation_under_faults():
    """busy_time == setup_time + (transferred + failed) / bandwidth —
    failed transfers hold the channel exactly as long as clean ones."""
    env = Environment()
    bw = 1e9
    dma = DmaEngine(env, "d", bandwidth=bw, setup_latency=1e-3)
    plan = FaultPlan(seed=SEED, specs=[FaultSpec("dma", probability=0.5)])
    plan.attach_dma(dma, "n")

    def work():
        for _ in range(40):
            try:
                yield from dma.transfer(1 * MB)
            except DmaError:
                pass

    p = env.process(work())
    env.run(until=p)
    assert dma.failures > 0 and dma.transfers > 0  # p=0.5 hit both ways
    expected = dma.setup_time + (dma.bytes_transferred + dma.failed_bytes) / bw
    assert dma.busy_time == pytest.approx(expected, rel=1e-9)
    assert dma.failures + dma.transfers == 40
    assert dma.bytes_transferred + dma.failed_bytes == 40 * MB


def test_storage_layer_raises_storage_error():
    env = Environment()
    ssd = SsdDevice(env, "s")
    plan = FaultPlan(seed=SEED, specs=[FaultSpec("storage", nth=1)])
    plan.attach_storage(ssd, "n")

    def work():
        with pytest.raises(StorageError):
            yield from ssd.write(1 * MB)
        yield from ssd.write(1 * MB)

    p = env.process(work())
    env.run(until=p)
    assert ssd.io_errors == 1
    assert ssd.failed_bytes == 1 * MB
    assert ssd.writes == 1  # only the successful write counts
    assert ssd.bytes_written == 1 * MB
    assert ssd.busy_time > 0  # the failed I/O still held the device


def test_net_degrade_stretches_serialization():
    def timed_transmit(plan):
        env = Environment()
        pipe = BandwidthPipe(env, "p", bandwidth_bps=8e9)
        if plan is not None:
            plan.attach_net(
                type("N", (), {"tx": pipe, "rx": pipe})(), "n"
            )

        def work():
            yield from pipe.transmit(4 * MB)

        p = env.process(work())
        env.run(until=p)
        return env.now, pipe

    clean_time, _ = timed_transmit(None)
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("net", kind="degrade", factor=4.0),
    ])
    slow_time, pipe = timed_transmit(plan)
    assert slow_time == pytest.approx(4.0 * clean_time)
    assert pipe.degraded_chunks == 16  # 4 MB / 256 KB chunks, all hit
    assert pipe.bytes_transferred == 4 * MB


# --------------------------------------------------------------- rpc reliability


def make_rpc(env, profile=None):
    profile = profile or DocephProfile()
    network = Network(env)
    host_cpu = CpuComplex(env, "n.host", cores=8)
    dpu_cpu = CpuComplex(env, "n.dpu", cores=8, perf=0.45)
    ssd = SsdDevice(env, "n.ssd")
    dma = DmaEngine(env, "n.dma")
    node = ClusterNode(
        env, network, "n", host_cpu, ssd, nic_bandwidth=100e9,
        tcp=profile.tcp, dpu_cpu=dpu_cpu, dma=dma,
    )
    channel = RpcChannel(node, profile)

    def echo(req, t):
        req.reply = {"ok": True}
        if False:
            yield

    channel.register_handler("echo", echo)
    thread = SimThread(node.dpu_cpu, "caller", "proxy")
    return node, channel, thread


def _one_call(env, channel, thread):
    def work():
        req = yield from channel.call("echo", BufferList(), thread)
        return req.reply

    p = env.process(work())
    env.run(until=p)
    return p.value


def test_rpc_reply_loss_recovers_via_timeout_and_retry():
    """A lost reply must not hang the caller: the attempt times out and
    the retry succeeds (at-least-once handler execution)."""
    env = Environment()
    profile = DocephProfile(rpc_timeout_seconds=0.5)
    node, channel, thread = make_rpc(env, profile)
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="reply_loss", nth=1),
    ])
    plan.attach_rpc(channel, "n")

    reply = _one_call(env, channel, thread)
    assert reply == {"ok": True}
    assert channel.reply_losses == 1
    assert channel.timeouts == 1
    assert channel.retries == 1
    assert channel.calls == 1
    # the retry was answered from the dedup cache, not re-executed
    assert channel.duplicates_suppressed == 1
    assert env.now >= 0.5  # the first attempt's timeout elapsed


def test_rpc_request_loss_recovers_and_backs_off():
    env = Environment()
    profile = DocephProfile(rpc_timeout_seconds=0.5, rpc_backoff_factor=2.0)
    node, channel, thread = make_rpc(env, profile)
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="request_loss", nth=1, burst=2),
    ])
    plan.attach_rpc(channel, "n")

    reply = _one_call(env, channel, thread)
    assert reply == {"ok": True}
    assert channel.request_losses == 2
    assert channel.timeouts == 2
    assert channel.retries == 2
    # exponential backoff: attempts waited 0.5 then 1.0 seconds
    assert env.now >= 0.5 + 1.0


def test_rpc_exhausted_retries_raise_instead_of_hanging():
    env = Environment()
    profile = DocephProfile(rpc_timeout_seconds=0.25, rpc_max_retries=2)
    node, channel, thread = make_rpc(env, profile)
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="request_loss"),  # p=1: every attempt lost
    ])
    plan.attach_rpc(channel, "n")

    def work():
        with pytest.raises(RpcError, match="no reply"):
            yield from channel.call("echo", BufferList(), thread)

    p = env.process(work())
    env.run(until=p)
    assert channel.timeouts == 3  # initial + 2 retries
    assert channel.errors == 1


def test_rpc_delay_fault_slows_delivery():
    env = Environment()
    node, channel, thread = make_rpc(env)
    base_env = Environment()
    base_node, base_channel, base_thread = make_rpc(base_env)
    _one_call(base_env, base_channel, base_thread)

    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="delay", nth=1, delay=0.2),
    ])
    plan.attach_rpc(channel, "n")
    _one_call(env, channel, thread)
    assert channel.delays == 1
    assert env.now == pytest.approx(base_env.now + 0.2)


def test_rpc_caller_charged_for_reply_receive():
    """Regression: RpcChannel.call must charge the caller's complex for
    receiving the reply (kernel socket read), not just for the send."""
    env = Environment()
    node, channel, thread = make_rpc(env)
    tcp = channel.profile.tcp
    _one_call(env, channel, thread)
    busy = node.dpu_cpu.accounting.busy_by_category.get("proxy", 0.0)
    wire = 32  # empty payload + header
    # send path alone would be less than send + receive; the receive
    # charge is what the old code dropped.
    assert busy >= tcp.send_cpu(wire) + tcp.recv_cpu(64)
    ctx = node.dpu_cpu.accounting.ctx_by_category.get("proxy", 0)
    assert ctx >= tcp.send_ctx(wire) + tcp.recv_ctx(64)


def _dedup_state(channel):
    """Everything the server keeps per request id for deduplication."""
    return (channel._done, channel._queued, channel._abandoned,
            channel._inflight)


def _counting_rpc(env, profile, plan):
    """An RPC rig whose ``commit`` and ``slow`` handlers count their runs;
    ``slow`` holds the listener for one simulated second."""
    node, channel, thread = make_rpc(env, profile)
    runs = {"commit": 0, "slow": 0}

    def commit(req, t):
        runs["commit"] += 1
        req.reply = {"committed": True}
        if False:
            yield

    def slow(req, t):
        runs["slow"] += 1
        yield env.timeout(1.0)
        req.reply = {"slow": True}

    channel.register_handler("commit", commit)
    channel.register_handler("slow", slow)
    plan.attach_rpc(channel, "n")
    return node, channel, thread, runs


def test_rpc_retry_after_thousands_of_other_calls_runs_the_handler_once():
    """A retry dequeued after more than 4 096 newer calls completed still
    gets the recorded outcome: the record lives until the caller has its
    reply, not until newer outcomes push it out of a bounded cache."""
    env = Environment()
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="reply_loss", nth=1),
    ])
    node, channel, thread, runs = _counting_rpc(
        env, DocephProfile(rpc_timeout_seconds=1.0), plan)
    others = SimThread(node.dpu_cpu, "others", "proxy")

    def victim():
        req = yield from channel.call("commit", BufferList(), thread)
        return req.reply

    def filler():
        for _ in range(4200):
            yield from channel.call("echo", BufferList(), others)
        return env.now

    p = env.process(victim())
    f = env.process(filler())
    env.run(until=p)
    assert p.value == {"committed": True}
    assert channel.reply_losses == 1 and channel.retries == 1
    # all 4 200 other calls completed before the retry was sent
    assert f.triggered and f.value < 1.0
    assert runs["commit"] == 1
    assert channel.duplicates_suppressed == 1
    assert not any(_dedup_state(channel))


def _queued_retry_rig(env):
    """``commit`` runs at once but its reply is lost; its retry then
    queues behind a ``slow`` call until t≈1.05, long after the caller's
    0.1 s + 0.2 s of attempts are spent."""
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="reply_loss", nth=1),
    ])
    profile = DocephProfile(rpc_timeout_seconds=0.1, rpc_max_retries=1)
    node, channel, thread, runs = _counting_rpc(env, profile, plan)
    others = SimThread(node.dpu_cpu, "others", "proxy")

    def slow_caller():
        yield env.timeout(0.05)
        with pytest.raises(RpcError):
            yield from channel.call("slow", BufferList(), others)

    env.process(slow_caller())
    return channel, thread, runs


def test_rpc_gave_up_call_keeps_its_outcome_for_a_queued_retry():
    env = Environment()
    channel, thread, runs = _queued_retry_rig(env)

    def victim():
        with pytest.raises(RpcError, match="no reply"):
            yield from channel.call("commit", BufferList(), thread)
        # the retry is still queued behind ``slow``: the outcome stays
        assert channel._queued and channel._done
        return env.now

    p = env.process(victim())
    env.run()
    assert p.value < 1.0
    assert runs == {"commit": 1, "slow": 1}
    assert channel.duplicates_suppressed == 2  # both queued retries
    assert not any(_dedup_state(channel))


def test_rpc_interrupted_caller_keeps_its_outcome_for_a_queued_retry():
    """An OSD crash interrupts the calling process mid-call: its queued
    retry must still be answered from the record, then the record goes."""
    env = Environment()
    channel, thread, runs = _queued_retry_rig(env)

    def victim():
        try:
            yield from channel.call("commit", BufferList(), thread)
        except Interrupt:
            return env.now

    p = env.process(victim())

    def crash():
        yield env.timeout(0.2)  # the retry is queued behind ``slow``
        p.interrupt("osd crash")

    env.process(crash())
    env.run()
    assert p.value == pytest.approx(0.2)
    assert runs == {"commit": 1, "slow": 1}
    assert not any(_dedup_state(channel))


def test_rpc_dedup_record_ends_with_every_kind_of_call():
    """Reply, handler error, give-up with nothing queued, and an
    interrupt while the handler still runs: none leaves a record."""
    env = Environment()
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="request_loss", nth=3, burst=2),
    ])
    profile = DocephProfile(rpc_timeout_seconds=0.1, rpc_max_retries=1)
    node, channel, thread, runs = _counting_rpc(env, profile, plan)

    def fail(req, t):
        raise RuntimeError("boom")
        yield

    channel.register_handler("fail", fail)
    outcomes = []

    def caller():
        req = yield from channel.call("commit", BufferList(), thread)
        outcomes.append(req.reply)
        with pytest.raises(RpcError, match="boom"):
            yield from channel.call("fail", BufferList(), thread)
        outcomes.append("error")
        # requests 3 and 4 are lost: both attempts time out
        with pytest.raises(RpcError, match="no reply"):
            yield from channel.call("commit", BufferList(), thread)
        outcomes.append("gave up")

    env.run(until=env.process(caller()))
    assert outcomes == [{"committed": True}, "error", "gave up"]
    assert not any(_dedup_state(channel))

    def slow_caller():
        try:
            yield from channel.call("slow", BufferList(), thread)
        except Interrupt:
            pass

    p = env.process(slow_caller())

    def crash():
        yield env.timeout(0.05)  # ``slow`` is running on the listener
        assert channel._inflight
        p.interrupt("osd crash")

    env.process(crash())
    env.run()
    assert runs == {"commit": 1, "slow": 1}
    assert not any(_dedup_state(channel))


# --------------------------------------------------------------- probe guard


def make_pipeline(env, plan=None, cooldown=0.5, dma_kwargs=None):
    profile = DocephProfile()
    network = Network(env)
    host_cpu = CpuComplex(env, "n.host", cores=8)
    dpu_cpu = CpuComplex(env, "n.dpu", cores=8, perf=0.45)
    ssd = SsdDevice(env, "n.ssd")
    dma = DmaEngine(env, "n.dma", **(dma_kwargs or {}))
    node = ClusterNode(
        env, network, "n", host_cpu, ssd, nic_bandwidth=100e9,
        tcp=profile.tcp, dpu_cpu=dpu_cpu, dma=dma,
    )
    channel = RpcChannel(node, profile)

    def bulk_handler(req, t):
        req.reply = {"ok": True}
        if False:
            yield

    channel.register_handler("bulk", bulk_handler)
    if plan is not None:
        plan.attach_dma(dma, "n")
    comm = CommChannel(node, profile.comm_channel_negotiate_latency)
    doca = DocaDma(node, comm, mr_cache_enabled=True)
    fb = FallbackController(cooldown_seconds=cooldown)
    stage_thread = SimThread(node.dpu_cpu, "stage", "proxy")
    pipe = DmaPipeline(
        env, doca, channel, fb,
        stage_thread=stage_thread,
        memcpy_bandwidth=3e9,
        segment_bytes=2 * MB,
        n_buffers=4,
        pipelined=True,
    )
    return node, pipe, fb


def test_exactly_one_probe_per_expiry_with_8_writers():
    """All concurrent writers see probe_due() at cooldown expiry, but
    the guard lets exactly one through; the rest stay on RPC."""
    env = Environment()
    # slow DMA setup so the probe window is long enough that other
    # writers provably arrive while it is in flight
    plan = FaultPlan(seed=SEED, specs=[FaultSpec("dma", nth=1)])
    node, pipe, fb = make_pipeline(
        env, plan, cooldown=0.5,
        dma_kwargs={"setup_latency": 50e-3, "bandwidth": 1e9},
    )
    threads = [SimThread(node.dpu_cpu, f"w{i}", "proxy") for i in range(8)]

    def writer(thread):
        while env.now < 2.0:
            yield from pipe.push(2 * MB, thread)

    procs = [env.process(writer(t)) for t in threads]
    for p in procs:
        env.run(until=p)

    assert fb.failures == 1  # the nth=1 injected failure
    # exactly one probe revalidated the path for the one cooldown expiry
    assert fb.probes_attempted == 1
    assert fb.probes_succeeded == 1
    # ... and the guard provably turned concurrent duplicates away
    assert fb.probes_suppressed >= 1
    assert len(fb.recovery_latencies) == 1
    assert fb.recovery_latencies[0] >= 0.5  # at least the cooldown


def test_failed_probe_restarts_cooldown_and_later_probe_rearms():
    env = Environment()
    # ops: #1 fails (trips cooldown), #2 is the first probe -> fails,
    # #3 is the second probe -> succeeds
    plan = FaultPlan(seed=SEED, specs=[FaultSpec("dma", nth=1, burst=2)])
    node, pipe, fb = make_pipeline(env, plan, cooldown=0.2)
    thread = SimThread(node.dpu_cpu, "w", "proxy")

    def work():
        while env.now < 2.0:
            yield from pipe.push(2 * MB, thread)

    p = env.process(work())
    env.run(until=p)
    assert fb.failures == 1
    assert fb.probes_attempted == 2
    assert fb.probes_succeeded == 1
    assert not fb._probe_inflight  # the probe slot was released
    # single outage, recovered once, spanning both cooldowns
    assert len(fb.recovery_latencies) == 1
    assert fb.recovery_latencies[0] >= 0.4


def test_recovery_latency_runs_from_the_first_failure_of_an_outage():
    fb = FallbackController(cooldown_seconds=1.0)
    fb.record_failure(1.0)
    fb.record_failure(1.5)  # same outage: the cooldown restarts
    assert fb.begin_probe(2.5)
    fb.record_probe(True, 2.5)
    assert fb.recovery_latencies == [1.5]


# --------------------------------------------------------------- state machine


@given(st.lists(
    st.sampled_from(["fail", "probe_ok", "probe_fail", "tick"]),
    max_size=50,
))
@settings(max_examples=200, deadline=None)
def test_fallback_controller_state_machine(ops):
    """Invariants for any event sequence: DMA never allowed during
    cooldown or while a probe is owed; the probe slot is exclusive; only
    a successful probe re-arms DMA."""
    fb = FallbackController(cooldown_seconds=1.0)
    now = 0.0
    for op in ops:
        now += 0.4
        if op == "fail":
            fb.record_failure(now)
            assert not fb.dma_allowed(now)
        elif op in ("probe_ok", "probe_fail"):
            if fb.begin_probe(now):
                # the slot is exclusive until record_probe releases it
                assert not fb.begin_probe(now)
                fb.record_probe(op == "probe_ok", now)
                if op == "probe_ok":
                    assert fb.dma_allowed(now)  # success re-arms
                else:
                    assert not fb.dma_allowed(now)  # failure: new cooldown
        # global invariants
        if now < fb._cooldown_until:
            assert not fb.dma_allowed(now)
            assert not fb.probe_due(now)
        if fb.probe_due(now):
            assert not fb.dma_allowed(now)
        if fb.dma_allowed(now):
            assert not fb.probe_due(now)
    assert fb.probes_succeeded <= fb.probes_attempted
    assert len(fb.recovery_latencies) == fb.probes_succeeded


# --------------------------------------------------------------- end to end


def _bench_with_plan(plan, duration=4.0, clients=4):
    env = Environment()
    profile = DocephProfile(cooldown_seconds=0.5, rpc_timeout_seconds=0.5)
    cluster = build_doceph_cluster(env, profile, fault_plan=plan)
    return run_rados_bench(
        cluster, object_size=1 * MB, clients=clients,
        duration=duration, warmup=1.0,
    )


def test_e2e_rpc_reply_loss_does_not_stall_the_bench():
    plan = FaultPlan(seed=SEED, specs=[
        FaultSpec("rpc", kind="reply_loss", nth=5, burst=2),
    ])
    result = _bench_with_plan(plan)
    assert result.completed_ops > 0
    report = result.faults
    # nth/burst fire per node scope: 2 losses on each of the 2 nodes
    assert report.rpc_reply_losses == 4
    assert report.injected["rpc.reply_loss"] == 4
    assert report.rpc_timeouts >= 4
    assert report.rpc_retries >= 4
    assert report.rpc_duplicates_suppressed >= 4
    assert report.rpc_errors == 0  # retries recovered every loss


def test_e2e_same_seed_reproduces_bytewise():
    """The tentpole's acceptance bar: the same plan seed twice yields
    byte-identical fault counters AND bench metrics."""
    mk = lambda: FaultPlan(seed=SEED, specs=[
        FaultSpec("dma", probability=0.2),
        FaultSpec("rpc", kind="reply_loss", probability=0.02),
    ])
    r1 = _bench_with_plan(mk())
    r2 = _bench_with_plan(mk())
    assert r1.faults.as_dict() == r2.faults.as_dict()
    assert r1.faults.total_injected > 0
    assert r1.completed_ops == r2.completed_ops
    assert r1.iops == r2.iops
    assert r1.avg_latency == r2.avg_latency
    assert r1.latencies == r2.latencies
    assert r1.host_utilization_pct == r2.host_utilization_pct


def test_e2e_fault_free_run_reports_all_zero():
    result = _bench_with_plan(None, duration=2.0)
    report = result.faults
    assert report.total_injected == 0
    assert report.dma_failures == 0
    assert report.fallback_segments == 0
    assert report.rpc_timeouts == 0
    assert report.storage_io_errors == 0
    assert report.net_degraded_chunks == 0
