"""Tests for the CRUSH implementation (straw2, hierarchy, rules)."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crush import CrushMap, CrushRule, ChooseStep, Straw2Bucket


def build_map(hosts=4, osds_per_host=2, weight=1.0):
    """root 'default' -> host buckets -> osd devices."""
    cmap = CrushMap()
    cmap.add_bucket("default", "root")
    osd_id = 0
    for h in range(hosts):
        host = f"host{h}"
        cmap.add_bucket(host, "host")
        for _ in range(osds_per_host):
            cmap.add_device(host, osd_id, weight)
            osd_id += 1
        cmap.link_bucket("default", host)
    cmap.add_rule(CrushMap.replicated_rule())
    return cmap


# ---------------------------------------------------------------- buckets


def test_straw2_requires_negative_id():
    with pytest.raises(ValueError):
        Straw2Bucket(1, "bad", "host")


def test_straw2_duplicate_item_rejected():
    b = Straw2Bucket(-1, "b", "host")
    b.add_item(0, 1.0)
    with pytest.raises(ValueError):
        b.add_item(0, 1.0)


def test_straw2_empty_choose_raises():
    b = Straw2Bucket(-1, "b", "host")
    with pytest.raises(ValueError):
        b.choose(1, 0)


def test_straw2_zero_weight_never_chosen():
    b = Straw2Bucket(-1, "b", "host")
    b.add_item(0, 0.0)
    b.add_item(1, 1.0)
    for x in range(200):
        assert b.choose(x, 0) == 1


def test_straw2_deterministic():
    b = Straw2Bucket(-1, "b", "host")
    for i in range(5):
        b.add_item(i, 1.0)
    assert [b.choose(x, 0) for x in range(50)] == [
        b.choose(x, 0) for x in range(50)
    ]


def test_straw2_weight_proportional_distribution():
    """Item with 3x weight receives ~3x the inputs."""
    b = Straw2Bucket(-1, "b", "host")
    b.add_item(0, 1.0)
    b.add_item(1, 3.0)
    counts = collections.Counter(b.choose(x, 0) for x in range(20_000))
    ratio = counts[1] / counts[0]
    assert 2.5 < ratio < 3.6



def test_straw2_stability_on_item_addition():
    """Straw2's defining property: adding an item only steals inputs for
    itself; it never shuffles inputs between pre-existing items."""
    before = Straw2Bucket(-1, "b", "host")
    for i in range(4):
        before.add_item(i, 1.0)
    after = Straw2Bucket(-1, "b", "host")
    for i in range(5):
        after.add_item(i, 1.0)

    moved_wrongly = 0
    moved_to_new = 0
    for x in range(10_000):
        a, b_ = before.choose(x, 0), after.choose(x, 0)
        if a != b_:
            if b_ == 4:
                moved_to_new += 1
            else:
                moved_wrongly += 1
    assert moved_wrongly == 0
    # New item should receive roughly 1/5 of inputs.
    assert 0.15 < moved_to_new / 10_000 < 0.25


# ---------------------------------------------------------------- map


def test_map_returns_distinct_osds_across_hosts():
    cmap = build_map(hosts=4, osds_per_host=2)
    for x in range(500):
        osds = cmap.map_x("replicated_rule", x, 3)
        assert len(osds) == 3
        assert len(set(osds)) == 3
        hosts = {osd // 2 for osd in osds}
        assert len(hosts) == 3  # failure-domain separation


def test_map_deterministic():
    cmap = build_map()
    a = [cmap.map_x("replicated_rule", x, 2) for x in range(100)]
    b = [cmap.map_x("replicated_rule", x, 2) for x in range(100)]
    assert a == b


def test_map_single_replica():
    cmap = build_map(hosts=2, osds_per_host=1)
    for x in range(100):
        osds = cmap.map_x("replicated_rule", x, 1)
        assert len(osds) == 1


def test_map_distribution_roughly_uniform():
    cmap = build_map(hosts=4, osds_per_host=2)
    counts = collections.Counter()
    for x in range(8_000):
        for osd in cmap.map_x("replicated_rule", x, 2):
            counts[osd] += 1
    mean = sum(counts.values()) / len(counts)
    for osd, c in counts.items():
        assert abs(c - mean) / mean < 0.25, f"osd.{osd} skewed: {c} vs {mean}"


def test_out_device_excluded():
    cmap = build_map(hosts=3, osds_per_host=1)
    cmap.set_reweight(1, 0.0)
    for x in range(300):
        osds = cmap.map_x("replicated_rule", x, 2)
        assert 1 not in osds
        assert len(osds) == 2


def test_reweight_validation():
    cmap = build_map()
    with pytest.raises(ValueError):
        cmap.set_reweight(999, 0.5)
    with pytest.raises(ValueError):
        cmap.set_reweight(0, 1.5)


def test_insufficient_domains_returns_short():
    """2 hosts cannot satisfy 3 host-separated replicas."""
    cmap = build_map(hosts=2, osds_per_host=4)
    osds = cmap.map_x("replicated_rule", 42, 3)
    assert len(osds) == 2


def test_rebalancing_is_minimal_on_host_addition():
    """Adding a host moves only ~its fair share of PGs."""
    def mapping(hosts):
        cmap = build_map(hosts=hosts, osds_per_host=1)
        return {x: tuple(cmap.map_x("replicated_rule", x, 2))
                for x in range(4000)}

    before = mapping(4)
    after = mapping(5)
    moved = sum(
        1
        for x in before
        for osd in after[x]
        if osd not in before[x]
    )
    total_slots = 2 * 4000
    # Fair share for the new host is 2/5 of slots × (new host fraction);
    # allow generous margin but far less than a full reshuffle.
    assert moved / total_slots < 0.35


def test_duplicate_names_and_devices_rejected():
    cmap = CrushMap()
    cmap.add_bucket("default", "root")
    with pytest.raises(ValueError):
        cmap.add_bucket("default", "root")
    cmap.add_bucket("host0", "host")
    cmap.add_device("host0", 0)
    with pytest.raises(ValueError):
        cmap.add_device("host0", 0)
    with pytest.raises(ValueError):
        cmap.add_device("host0", -3)


def test_unknown_lookups_raise():
    cmap = CrushMap()
    with pytest.raises(ValueError):
        cmap.bucket("nope")
    with pytest.raises(ValueError):
        cmap.rule("nope")
    cmap.add_bucket("default", "root")
    with pytest.raises(ValueError):
        cmap.add_rule(CrushRule("r", "missing-root", [ChooseStep(0, "host")]))


def test_duplicate_rule_rejected():
    cmap = build_map()
    with pytest.raises(ValueError):
        cmap.add_rule(CrushMap.replicated_rule())


# ---------------------------------------------------------------- properties


@given(
    x=st.integers(min_value=0, max_value=2**31 - 1),
    num_rep=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=100, deadline=None)
def test_map_properties(x, num_rep):
    """For any input: results are distinct, valid, host-separated."""
    cmap = build_map(hosts=4, osds_per_host=2)
    osds = cmap.map_x("replicated_rule", x, num_rep)
    assert len(osds) == num_rep
    assert len(set(osds)) == len(osds)
    assert all(0 <= o < 8 for o in osds)
    hosts = [o // 2 for o in osds]
    assert len(set(hosts)) == len(hosts)
