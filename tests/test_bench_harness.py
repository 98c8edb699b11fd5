"""Tests for the benchmark harness: CPU windows/sampler, report
rendering, and the experiment drivers' reference data."""

import pytest

from repro.bench import (
    CpuSampler,
    CpuWindow,
    MB,
    PAPER,
    SIZES,
    format_table,
    run_rados_bench,
)
from repro.bench.experiments import Table3Row
from repro.cluster import build_baseline_cluster
from repro.hw import CpuComplex, SimThread
from repro.sim import Environment


# ---------------------------------------------------------------- CpuWindow


def make_busy_cpu(env, spec):
    """spec: {category: busy_seconds} charged sequentially."""
    cpu = CpuComplex(env, "c", cores=4)

    def proc():
        for cat, amount in spec.items():
            t = SimThread(cpu, f"{cat}-t", cat)
            yield from t.charge(amount)

    env.process(proc())
    env.run()
    return cpu


def test_cpu_window_between_snapshots():
    env = Environment()
    cpu = make_busy_cpu(env, {"msgr-worker": 2.0, "bstore": 0.5})
    start = CpuWindow.between(
        cpu,
        cpu.accounting.snapshot(0.0).__class__(
            time=0.0, busy_by_category={}, ctx_by_category={}
        ),
        cpu.accounting.snapshot(env.now),
    )
    assert start.elapsed == pytest.approx(2.5)
    assert start.total_busy == pytest.approx(2.5)
    assert start.busy_cores == pytest.approx(1.0)
    assert start.utilization_pct == pytest.approx(100.0)
    assert start.category_share("msgr-worker") == pytest.approx(0.8)
    assert start.breakdown()["bstore"] == pytest.approx(0.2)


def test_cpu_window_empty():
    w = CpuWindow("x", elapsed=0.0, busy_by_category={}, ctx_by_category={})
    assert w.busy_cores == 0.0
    assert w.category_share("anything") == 0.0
    assert w.breakdown() == {}
    assert w.ctx_rate("x") == 0.0


def test_cpu_window_merge_averages():
    a = CpuWindow("a", 10.0, {"msgr-worker": 5.0}, {"msgr-worker": 100})
    b = CpuWindow("b", 10.0, {"msgr-worker": 3.0, "bstore": 1.0},
                  {"msgr-worker": 50})
    merged = CpuWindow.merge([a, b])
    assert merged.busy_by_category["msgr-worker"] == pytest.approx(4.0)
    assert merged.busy_by_category["bstore"] == pytest.approx(0.5)
    assert merged.ctx_by_category["msgr-worker"] == 75
    with pytest.raises(ValueError):
        CpuWindow.merge([])


def test_cpu_sampler_collects_per_second_series():
    env = Environment()
    cpu = CpuComplex(env, "c", cores=2)
    thread = SimThread(cpu, "t", "cat")

    def worker():
        while True:
            yield from thread.charge(0.5)
            yield env.timeout(0.5)

    env.process(worker())
    sampler = CpuSampler(env, [cpu], period=1.0)
    sampler.start()
    env.run(until=5.5)
    windows = sampler.stop()
    samples = sampler.samples["c"]
    assert len(samples) == 5
    # 0.5 busy core per second → 50 % single-core-normalized
    for s in samples:
        assert s == pytest.approx(50.0, abs=2.0)
    # the full-window figure is slightly under 50 % because the charge
    # in flight at the cut-off accounts only at completion
    assert windows[0].utilization_pct == pytest.approx(50.0, abs=6.0)


def test_cpu_sampler_stop_before_start():
    env = Environment()
    sampler = CpuSampler(env, [])
    with pytest.raises(RuntimeError):
        sampler.stop()


# ---------------------------------------------------------------- reporting


def test_format_table_alignment():
    text = format_table(["a", "long-header"], [[1, 2], ["wide-cell", 3]],
                        title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "long-header" in lines[1]
    # all rows have equal rendered width
    widths = {len(line) for line in lines[1:]}
    assert len(widths) == 1


def test_table3_row_normalization():
    row = Table3Row(object_size=MB, host_write=0.01, dma=0.01,
                    dma_wait=0.02, others=0.06, total=0.1)
    n = row.normalized()
    assert n["host_write"] == pytest.approx(0.1)
    assert n["dma_wait"] == pytest.approx(0.2)
    assert sum(n.values()) == pytest.approx(1.0)
    zero = Table3Row(object_size=MB, host_write=0, dma=0, dma_wait=0,
                     others=0, total=0)
    assert zero.normalized()["others"] == 0


# ---------------------------------------------------------------- PAPER data


def test_paper_reference_tables_are_consistent():
    """Sanity-check the transcribed reference values."""
    assert set(PAPER["fig7_baseline_cpu_pct"]) == set(SIZES)
    assert set(PAPER["fig10_doceph_iops"]) == set(SIZES)
    for size in SIZES:
        t3 = PAPER["table3"][size]
        # components sum approximately to the total (paper rounding)
        s = t3["host_write"] + t3["dma"] + t3["dma_wait"] + t3["others"]
        assert s == pytest.approx(t3["total"], rel=0.06)
        # baseline beats DoCeph in IOPS everywhere
        assert (PAPER["fig10_baseline_iops"][size]
                >= PAPER["fig10_doceph_iops"][size])
        # DoCeph's CPU is always far below baseline's
        assert (PAPER["fig7_doceph_cpu_pct"][size]
                < 0.1 * PAPER["fig7_baseline_cpu_pct"][size])


def test_paper_ctx_ratio_close_to_ten():
    ctx = PAPER["table2_ctx"]
    assert ctx["messenger"] / ctx["objectstore"] == pytest.approx(9.95, abs=0.05)


# ---------------------------------------------------------------- radosbench


def test_run_rados_bench_result_consistency():
    env = Environment()
    cluster = build_baseline_cluster(env)
    r = run_rados_bench(cluster, object_size=1 * MB, clients=4,
                        duration=3.0, warmup=1.0)
    assert r.completed_ops == len(r.latencies)
    assert r.completed_ops > 0
    # throughput/iops relationship
    assert r.throughput_bytes == pytest.approx(r.iops * r.object_size)
    # cpu windows exist for both storage nodes
    assert len(r.host_cpu) == 2
    assert r.host_utilization_pct > 0


# ---------------------------------------------------------- bench block keys

#: Key paths every bench block carries (``[]`` marks a list element).
_BLOCK_KEYS = (
    ".clients", ".completed_ops", ".cpu", ".cpu.ceph_breakdown",
    ".cpu.ceph_breakdown.msgr-worker", ".cpu.ceph_breakdown.proxy",
    ".cpu.ceph_breakdown.tp_osd_tp", ".cpu.ceph_utilization_pct",
    ".cpu.host_utilization_pct", ".duration_s", ".faults", ".faults.dma",
    ".faults.dma.failed_bytes", ".faults.dma.failures", ".faults.fallback",
    ".faults.fallback.failures", ".faults.fallback.fallback_segments",
    ".faults.fallback.mean_recovery_latency",
    ".faults.fallback.probes_attempted", ".faults.fallback.probes_succeeded",
    ".faults.fallback.probes_suppressed", ".faults.fallback.recoveries",
    ".faults.injected", ".faults.injected_bytes", ".faults.net",
    ".faults.net.degraded_chunks", ".faults.rpc", ".faults.rpc.delays",
    ".faults.rpc.duplicates_suppressed", ".faults.rpc.errors",
    ".faults.rpc.reply_losses", ".faults.rpc.request_losses",
    ".faults.rpc.retries", ".faults.rpc.timeouts", ".faults.storage",
    ".faults.storage.failed_bytes", ".faults.storage.io_errors", ".iops",
    ".latency_s", ".latency_s.max", ".latency_s.mean", ".latency_s.p50",
    ".latency_s.p90", ".latency_s.p99", ".object_size", ".throughput_MBps",
)

#: What a faulted, traced DoCeph run adds to the block.
_FAULTED_TRACED_KEYS = (
    ".faults.injected.dma.error", ".faults.injected_bytes.dma.error",
    ".trace", ".trace.critical_path_mean_s",
    *(f".trace.critical_path_mean_s.{span}" for span in (
        "bstore.commit", "client.WRITE", "client.attempt", "dma.fallback",
        "dma.segment", "msgr.recv", "msgr.send", "osd.op", "osd.repop",
        "proxy.dispatch", "rpc.bulk", "rpc.queue_txn")),
    ".trace.errors", ".trace.fingerprint", ".trace.spans", ".trace.traces",
    ".trace.unfinished",
)

#: What ``qos_payload`` adds to the block.
_QOS_KEYS = (
    ".fingerprint", ".qos", ".qos.duration_s", ".qos.jain_goodput",
    ".qos.jain_weighted_goodput", ".qos.ops_shed", ".qos.overload_factor",
    ".qos.queue", ".qos.queue.limit_deferrals",
    ".qos.queue.reservation_served", ".qos.queue.tagged_enqueued",
    ".qos.queue.weight_served", ".qos.seed",
    ".qos.strategy", ".qos.tenants",
    *(f".qos.tenants[].{key}" for key in (
        "admitted_ops", "arrival", "completed_late_ops", "completed_ops",
        "failed_ops", "goodput_iops", "latency_s", "latency_s.max",
        "latency_s.mean", "latency_s.p50", "latency_s.p90", "latency_s.p99",
        "limit_iops", "name", "offered_iops", "offered_ops",
        "reservation_attainment", "reservation_iops", "shed_ops",
        "throughput_MBps", "weight")),
)


def _key_paths(node, prefix=""):
    """Every dict key path under ``node``, sorted; list elements share
    ``[]``."""
    paths = set()
    if isinstance(node, dict):
        for key, value in node.items():
            paths.add(f"{prefix}.{key}")
            paths.update(_key_paths(value, f"{prefix}.{key}"))
    elif isinstance(node, list):
        for value in node:
            paths.update(_key_paths(value, prefix + "[]"))
    return sorted(paths)


def test_bench_block_key_paths_are_pinned():
    """``bench_result_dict`` is the one producer of the bench block, and
    every ``BENCH_*.json`` reader reads these names: a renamed, dropped
    or added key fails here, whatever its value."""
    from repro.bench import bench_result_dict
    from repro.cluster import build_doceph_cluster
    from repro.faults import FaultPlan
    from repro.qos import default_tenants, qos_payload, run_qos
    from repro.trace import Tracer

    env = Environment()
    cluster = build_doceph_cluster(
        env, fault_plan=FaultPlan.parse("dma,p=0.3", seed=0),
        tracer=Tracer())
    bench = bench_result_dict(run_rados_bench(
        cluster, object_size=1 * MB, clients=2, duration=1.0, warmup=0.5))
    assert _key_paths(bench) == sorted(
        _BLOCK_KEYS + _FAULTED_TRACED_KEYS)

    tenants = default_tenants(2, reservation=10.0, rate=40.0,
                              object_size=16 << 10, window=8)
    qos = qos_payload(run_qos("full-osd", tenants, seed=1, duration=1.0,
                              prepopulate=4))
    assert _key_paths(qos) == sorted(_BLOCK_KEYS + _QOS_KEYS)


def test_seeded_runs_write_byte_identical_results():
    """Two identical seeded runs serialize to the same bytes: no field of
    a bench or qos result payload reads the host clock."""
    import json

    from repro.bench.reporting import bench_result_dict
    from repro.qos import default_tenants, qos_payload, run_qos

    def bench():
        env = Environment()
        r = run_rados_bench(build_baseline_cluster(env), object_size=1 * MB,
                            clients=2, duration=1.0, warmup=0.5)
        return json.dumps(bench_result_dict(r))

    def qos():
        tenants = default_tenants(2, reservation=10.0, rate=40.0,
                                  object_size=16 << 10, window=8)
        return json.dumps(qos_payload(run_qos(
            "full-osd", tenants, seed=1, duration=1.0, prepopulate=4)))

    for run in (bench, qos):
        assert run() == run()
