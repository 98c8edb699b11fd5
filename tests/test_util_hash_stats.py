"""Tests for rjenkins hashes, sample statistics, and RNG streams."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    SeededRng,
    ceph_str_hash_rjenkins,
    crush_hash32_2,
    crush_hash32_3,
    percentile,
)
from repro.util.stats import latency_summary


# ---------------------------------------------------------------- rjenkins


def test_hash_outputs_are_32bit():
    for h in (
        crush_hash32_2(1, 2),
        crush_hash32_3(1, 2, 3),
        ceph_str_hash_rjenkins("object-name"),
    ):
        assert 0 <= h <= 0xFFFFFFFF


def test_hash_deterministic():
    assert crush_hash32_3(7, 8, 9) == crush_hash32_3(7, 8, 9)
    assert ceph_str_hash_rjenkins("abc") == ceph_str_hash_rjenkins(b"abc")


def test_hash_sensitive_to_inputs():
    assert crush_hash32_2(1, 2) != crush_hash32_2(2, 1)
    assert crush_hash32_3(1, 2, 3) != crush_hash32_3(1, 2, 4)
    assert ceph_str_hash_rjenkins("a") != ceph_str_hash_rjenkins("b")


def test_str_hash_handles_all_tail_lengths():
    """The 12-byte block loop plus every tail-switch arm."""
    seen = set()
    for n in range(0, 26):
        h = ceph_str_hash_rjenkins("x" * n)
        assert 0 <= h <= 0xFFFFFFFF
        seen.add(h)
    # All lengths should hash differently (no systematic collisions).
    assert len(seen) == 26


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=200)
def test_crush_hash_masks_to_32bit(x):
    assert 0 <= crush_hash32_2(x, 7) <= 0xFFFFFFFF
    assert crush_hash32_2(x, 7) == crush_hash32_2(x + 2**32, 7)  # masking


def test_hash_distribution_is_roughly_uniform():
    """Bucketing 40k object names into 16 bins: each within 20% of mean."""
    bins = [0] * 16
    for i in range(40_000):
        bins[ceph_str_hash_rjenkins(f"obj-{i}") % 16] += 1
    mean = sum(bins) / len(bins)
    for b in bins:
        assert abs(b - mean) / mean < 0.2


# ---------------------------------------------------------------- stats


def test_percentile_interpolation():
    data = [1.0, 2.0, 3.0, 4.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 100) == 4.0
    assert percentile(data, 50) == pytest.approx(2.5)


def test_percentile_errors():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_latency_summary_of_no_samples_is_zero():
    assert latency_summary([]) == dict.fromkeys(
        ("mean", "p50", "p90", "p99", "max"), 0.0)


@given(st.lists(st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
                min_size=1, max_size=300))
@settings(max_examples=150)
def test_latency_summary_matches_brute_force(samples):
    """The one latency summary equals a brute-force reference, and the
    bench block and a qos tenant block cut from the same samples are the
    same block."""
    from repro.bench.radosbench import BenchResult
    from repro.bench.reporting import bench_result_dict
    from repro.qos.runner import _tenant_dict
    from repro.qos.tenants import TenantSpec
    from repro.qos.workload import TenantStats

    ordered = sorted(samples)
    assert latency_summary(samples) == {
        "mean": math.fsum(samples) / len(samples),
        "p50": percentile(ordered, 50),
        "p90": percentile(ordered, 90),
        "p99": percentile(ordered, 99),
        "max": max(samples),
    }
    bench = BenchResult(object_size=1, clients=1, duration=1.0, iops=0.0,
                        throughput_bytes=0.0, latencies=list(samples))
    assert bench.completed_ops == len(samples)
    assert bench.avg_latency == latency_summary(samples)["mean"]
    tenant = _tenant_dict(TenantSpec(name="t", rate=1.0),
                          TenantStats(name="t", latencies=list(samples)), 1.0)
    assert bench_result_dict(bench)["latency_s"] == tenant["latency_s"]


# ---------------------------------------------------------------- rng


def test_rng_streams_are_deterministic():
    a = SeededRng(42).stream("clients").random()
    b = SeededRng(42).stream("clients").random()
    assert a == b


def test_rng_streams_independent_of_creation_order():
    r1 = SeededRng(42)
    r1.stream("x")
    v1 = r1.stream("clients").random()
    r2 = SeededRng(42)
    v2 = r2.stream("clients").random()
    assert v1 == v2


def test_rng_different_names_differ():
    r = SeededRng(42)
    assert r.stream("a").random() != r.stream("b").random()


def test_rng_child_trees():
    c1 = SeededRng(42).child("node0").stream("faults").random()
    c2 = SeededRng(42).child("node0").stream("faults").random()
    c3 = SeededRng(42).child("node1").stream("faults").random()
    assert c1 == c2
    assert c1 != c3
