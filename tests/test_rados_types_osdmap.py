"""Tests for RADOS types, object→PG mapping, and the OSDMap."""

import collections

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crush import CrushMap
from repro.rados import (
    OsdMap,
    OsdState,
    PgId,
    Pool,
    ceph_stable_mod,
    object_to_pg,
    pg_to_crush_input,
)


def make_osdmap(nodes=4, pg_num=64, size=2):
    cmap = CrushMap()
    cmap.add_bucket("default", "root")
    for i in range(nodes):
        cmap.add_bucket(f"host{i}", "host")
        cmap.add_device(f"host{i}", i)
        cmap.link_bucket("default", f"host{i}")
    cmap.add_rule(CrushMap.replicated_rule())
    osdmap = OsdMap(crush=cmap)
    osdmap.create_pool(Pool(id=1, name="bench", pg_num=pg_num, size=size))
    for i in range(nodes):
        osdmap.add_osd(i, address=f"node{i}")
    return osdmap


# ---------------------------------------------------------------- types


def test_stable_mod_within_range():
    for x in range(0, 1000, 7):
        assert 0 <= ceph_stable_mod(x, 12, 15) < 12


def test_stable_mod_is_plain_mask_for_pow2():
    assert ceph_stable_mod(0xABCDEF, 16, 15) == 0xABCDEF & 15


def test_stable_mod_rejects_bad_pgnum():
    with pytest.raises(ValueError):
        ceph_stable_mod(5, 0, 0)


def test_stable_mod_stability_under_growth():
    """Growing pg_num toward the next power of two only remaps objects
    whose seed falls in the newly-unfolded range."""
    b_old, b_new = 12, 16
    mask = 15
    for x in range(5000):
        old = ceph_stable_mod(x, b_old, mask)
        new = ceph_stable_mod(x, b_new, mask)
        if old != new:
            assert new >= b_old  # only folded seeds unfold


def test_pool_validation():
    with pytest.raises(ValueError):
        Pool(id=1, name="p", pg_num=0)
    with pytest.raises(ValueError):
        Pool(id=1, name="p", size=2, min_size=3)


def test_object_to_pg_deterministic_and_in_range():
    pool = Pool(id=3, name="p", pg_num=100)
    seen = set()
    for i in range(1000):
        pgid = object_to_pg(pool, f"obj-{i}")
        assert pgid == object_to_pg(pool, f"obj-{i}")
        assert pgid.pool == 3
        assert 0 <= pgid.seed < 100
        seen.add(pgid.seed)
    # 1000 objects over 100 PGs should touch most PGs
    assert len(seen) > 90


def test_pg_mask_is_the_next_power_of_two_minus_one():
    for pg_num, mask in ((1, 0), (2, 1), (3, 3), (48, 63), (64, 63),
                         (65, 127), (128, 127)):
        pool = Pool(id=1, name="p", pg_num=pg_num)
        assert pool.pg_mask == mask
        # derived, not identity: equal pools stay equal and printable
        assert pool == Pool(id=1, name="p", pg_num=pg_num)
        assert "pg_mask" not in repr(pool)


def test_object_to_pg_memo_is_keyed_by_pool_shape():
    """Client and primary place the same name; the memo must not hand
    one pool's answer to another with the same id or the same pg_num."""
    from repro.util.rjenkins import ceph_str_hash_rjenkins

    pools = [Pool(id=1, name="p", pg_num=48), Pool(id=1, name="p", pg_num=64),
             Pool(id=2, name="q", pg_num=48)]
    for _ in range(2):  # second pass is served from the memo
        for pool in pools:
            for i in range(50):
                name = f"bench_{i}"
                want = ceph_stable_mod(ceph_str_hash_rjenkins(name),
                                       pool.pg_num, pool.pg_mask)
                assert object_to_pg(pool, name) == PgId(pool.id, want)


def test_pg_distribution_roughly_uniform():
    pool = Pool(id=1, name="p", pg_num=32)
    counts = collections.Counter(
        object_to_pg(pool, f"bench_{i}").seed for i in range(16_000)
    )
    mean = 16_000 / 32
    for c in counts.values():
        assert abs(c - mean) / mean < 0.3


def test_pgid_string():
    assert str(PgId(2, 0x1A)) == "2.1a"


@given(st.text(min_size=1, max_size=30))
@settings(max_examples=200)
def test_object_to_pg_property(name):
    pool = Pool(id=1, name="p", pg_num=48)
    pgid = object_to_pg(pool, name)
    assert 0 <= pgid.seed < 48
    assert pg_to_crush_input(pgid) == pg_to_crush_input(pgid)


# ---------------------------------------------------------------- osdmap


def test_osdmap_epoch_bumps_on_mutation():
    osdmap = make_osdmap()
    e0 = osdmap.epoch
    osdmap.mark_down(0)
    assert osdmap.epoch == e0 + 1
    osdmap.mark_down(0)  # idempotent
    assert osdmap.epoch == e0 + 1
    osdmap.mark_out(0)
    assert osdmap.epoch == e0 + 2
    osdmap.mark_up(0)
    assert osdmap.epoch == e0 + 3


def test_osdmap_duplicate_and_unknown():
    osdmap = make_osdmap()
    with pytest.raises(ValueError):
        osdmap.add_osd(0, "x")
    with pytest.raises(ValueError):
        osdmap.mark_down(99)
    with pytest.raises(ValueError):
        osdmap.create_pool(Pool(id=1, name="other"))
    with pytest.raises(ValueError):
        osdmap.create_pool(Pool(id=9, name="bench"))
    with pytest.raises(ValueError):
        osdmap.pool_by_name("nope")


def test_pg_to_osds_and_primary():
    osdmap = make_osdmap()
    for pgid in osdmap.all_pgs("bench"):
        acting = osdmap.pg_to_osds(pgid)
        assert len(acting) == 2
        assert osdmap.pg_primary(pgid) == acting[0]


def test_down_osd_excluded_from_acting_but_not_remapped():
    """DOWN+IN: the OSD drops out of acting sets (degraded) but CRUSH
    does not remap data to new devices yet."""
    osdmap = make_osdmap()
    pgs_with_0 = [
        pgid for pgid in osdmap.all_pgs("bench")
        if 0 in osdmap.pg_to_osds(pgid)
    ]
    assert pgs_with_0
    osdmap.mark_down(0)
    for pgid in pgs_with_0:
        acting = osdmap.pg_to_osds(pgid)
        assert 0 not in acting
        assert len(acting) == 1  # degraded, not yet backfilled


def test_out_osd_triggers_remap():
    """DOWN+OUT: CRUSH remaps the PGs to the surviving devices."""
    osdmap = make_osdmap()
    osdmap.mark_out(0)
    for pgid in osdmap.all_pgs("bench"):
        acting = osdmap.pg_to_osds(pgid)
        assert 0 not in acting
        assert len(acting) == 2  # fully replicated again


def test_mark_up_restores_placement():
    osdmap = make_osdmap()
    before = {pgid: osdmap.pg_to_osds(pgid)
              for pgid in osdmap.all_pgs("bench")}
    osdmap.mark_out(0)
    osdmap.mark_up(0, address="node0-new")
    after = {pgid: osdmap.pg_to_osds(pgid)
             for pgid in osdmap.all_pgs("bench")}
    assert before == after
    assert osdmap.address_of(0) == "node0-new"


def test_address_lookup():
    osdmap = make_osdmap()
    assert osdmap.address_of(2) == "node2"


def test_primary_raises_when_no_acting_set():
    osdmap = make_osdmap(nodes=2)
    osdmap.mark_down(0)
    osdmap.mark_down(1)
    pgid = osdmap.all_pgs("bench")[0]
    with pytest.raises(ValueError):
        osdmap.pg_primary(pgid)


def test_object_to_pg_via_map():
    osdmap = make_osdmap()
    pgid = osdmap.object_to_pg("bench", "obj")
    assert pgid.pool == 1
