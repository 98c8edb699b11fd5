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
    # latency stats agree with the raw list
    assert r.avg_latency == pytest.approx(
        sum(r.latencies) / len(r.latencies)
    )
    assert r.latency_percentile(0) == pytest.approx(min(r.latencies))
    assert r.latency_percentile(100) == pytest.approx(max(r.latencies))
    # per-second op counts sum to completed ops
    total_per_second = sum(s.total for _, s in r.per_second_ops.buckets())
    assert total_per_second == r.completed_ops
    # cpu windows exist for both storage nodes
    assert len(r.host_cpu) == 2
    assert r.host_utilization_pct > 0


# ---------------------------------------------------------------- schema


def test_bench_schema_accepts_canonical_dict():
    from repro.bench import bench_result_dict
    from repro.bench.schema import validate_bench_result, validate_payload

    env = Environment()
    cluster = build_baseline_cluster(env)
    r = run_rados_bench(cluster, object_size=1 * MB, clients=2,
                        duration=2.0, warmup=0.5)
    d = bench_result_dict(r)
    validate_bench_result(d)  # must not raise
    assert validate_payload({"points": [{"baseline": d}]}) == 1


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


def test_bench_schema_rejects_drift():
    from repro.bench.schema import SchemaError, validate_bench_result

    good = {
        "object_size": 4096, "clients": 1, "duration_s": 1.0,
        "iops": 10.0, "throughput_MBps": 0.04, "completed_ops": 10,
        "latency_s": {"mean": 0.1, "p50": 0.1, "p90": 0.1, "p99": 0.1,
                      "max": 0.1},
        "cpu": {"host_utilization_pct": 5.0},
    }
    validate_bench_result(good)
    for mutant, msg in (
        ({**good, "latency_s": {**good["latency_s"], "p95": 0.1}},
         "unknown latency key"),
        ({**good, "iops": "fast"}, "wrong type"),
        ({k: v for k, v in good.items() if k != "completed_ops"},
         "missing key"),
    ):
        with pytest.raises(SchemaError):
            validate_bench_result(mutant)


def test_write_bench_json_validates_payload(tmp_path):
    from repro.bench import write_bench_json
    from repro.bench.schema import SchemaError

    bad = {"points": [{"baseline": {"iops": 1.0, "latency_s": {}}}]}
    with pytest.raises(SchemaError):
        write_bench_json("nope", bad, out_dir=tmp_path)
    assert not list(tmp_path.iterdir())


def test_committed_artifacts_pass_schema():
    import json
    import pathlib

    from repro.bench.schema import validate_payload

    results = pathlib.Path("benchmarks/results")
    checked = 0
    for path in sorted(results.glob("BENCH_*.json")):
        payload = json.loads(path.read_text())
        checked += validate_payload(payload)
    assert checked >= 10  # every committed bench block is schema-clean
