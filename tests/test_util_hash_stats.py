"""Tests for rjenkins hashes, stats accumulators, and RNG streams."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    RunningStats,
    SeededRng,
    TimeSeries,
    ceph_str_hash_rjenkins,
    crush_hash32_2,
    crush_hash32_3,
    percentile,
)


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


def test_running_stats_basic():
    s = RunningStats()
    for v in [2.0, 4.0, 6.0]:
        s.add(v)
    assert s.count == 3
    assert s.mean == pytest.approx(4.0)
    assert s.total == pytest.approx(12.0)
    assert s.min == 2.0
    assert s.max == 6.0
    assert s.variance == pytest.approx(4.0)


def test_running_stats_empty():
    s = RunningStats()
    assert s.mean == 0.0
    assert s.variance == 0.0


def test_running_stats_merge_matches_bulk():
    rng = random.Random(7)
    values = [rng.gauss(10, 3) for _ in range(500)]
    bulk = RunningStats()
    for v in values:
        bulk.add(v)
    a, b = RunningStats(), RunningStats()
    for v in values[:137]:
        a.add(v)
    for v in values[137:]:
        b.add(v)
    a.merge(b)
    assert a.count == bulk.count
    assert a.mean == pytest.approx(bulk.mean)
    assert a.variance == pytest.approx(bulk.variance)
    assert a.min == bulk.min and a.max == bulk.max


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=2, max_size=200))
@settings(max_examples=100)
def test_running_stats_matches_naive(values):
    s = RunningStats()
    for v in values:
        s.add(v)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    assert s.mean == pytest.approx(mean, rel=1e-9, abs=1e-6)
    assert s.variance == pytest.approx(var, rel=1e-6, abs=1e-6)


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


def test_timeseries_bucketing():
    ts = TimeSeries(interval=1.0)
    ts.add(0.5, 10)
    ts.add(0.9, 20)
    ts.add(2.1, 5)
    assert [(t, s.total) for t, s in ts.buckets()] == [(0.0, 30.0),
                                                        (2.0, 5.0)]
    assert ts.counts() == [(0.0, 2), (2.0, 1)]
    assert ts.buckets()[0][1].mean == 15.0


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
