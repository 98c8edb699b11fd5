"""Tests for hardware profiles and cluster construction options."""

import ast
import pathlib
import pytest
from dataclasses import fields, replace
import tracemalloc

from repro.cluster import (
    BENCH_POOL,
    DocephProfile,
    HUNDRED_GIG,
    HardwareProfile,
    build_baseline_cluster,
    build_doceph_cluster,
)
from repro.sim import Environment

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"


def test_profile_defaults_match_paper_testbed():
    p = HardwareProfile()
    assert p.storage_nodes == 2
    assert p.replication == 2
    assert p.net_bandwidth == HUNDRED_GIG
    assert p.dpu_cores == 16  # BF3
    assert p.dma_max_transfer == 2 * 1024 * 1024  # the 2 MB cap


def test_doceph_profile_extends_hardware_profile():
    p = DocephProfile()
    assert isinstance(p, HardwareProfile)
    assert p.pipelining and p.mr_cache and not p.zero_copy
    variant = replace(p, pipelining=False, cooldown_seconds=0.5)
    assert not variant.pipelining
    assert variant.mr_cache  # untouched fields preserved


def _is_profile(node: ast.expr) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "profile")
            or (isinstance(node, ast.Attribute) and node.attr == "profile"))


def test_every_profile_field_is_read_and_has_one_default():
    """A profile field no module reads is a knob that changes nothing,
    and ``getattr(profile, name, default)`` repeats a dataclass default
    in a second place.  Every field of ``HardwareProfile`` and
    ``DocephProfile`` is read as an attribute outside ``config.py``,
    and no module reads a profile through ``getattr`` with a default."""
    read: set[str] = set()
    defaulted = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "cluster" / "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id == "getattr" and len(node.args) == 3
                  and _is_profile(node.args[0])):
                defaulted.append(f"{path.relative_to(SRC)}:{node.lineno}")
    unread = sorted(f.name for f in fields(DocephProfile)
                    if f.name not in read)
    assert unread == []
    assert defaulted == []


def test_profiles_are_frozen():
    p = HardwareProfile()
    with pytest.raises(AttributeError):
        p.storage_nodes = 5  # type: ignore[misc]


def test_baseline_cluster_structure():
    env = Environment()
    c = build_baseline_cluster(env)
    assert c.mode == "baseline"
    assert len(c.nodes) == 2
    assert len(c.osds) == 2
    assert len(c.stores) == 2
    assert all(not n.has_dpu for n in c.nodes)
    assert c.proxy_servers == []
    assert c.ceph_cpus() == c.host_cpus()


def test_doceph_cluster_structure():
    env = Environment()
    c = build_doceph_cluster(env)
    assert c.mode == "doceph"
    assert all(n.has_dpu for n in c.nodes)
    assert len(c.proxy_servers) == 2
    assert c.ceph_cpus() == c.dpu_cpus()
    assert c.ceph_cpus() != c.host_cpus()


def test_cluster_scales_to_more_nodes():
    env = Environment()
    profile = HardwareProfile(storage_nodes=4, replication=3, pg_num=32)
    c = build_baseline_cluster(env, profile)
    boot = env.process(c.boot())
    env.run(until=boot)

    def work():
        r = yield from c.client.write_object(BENCH_POOL, "scale", 1 << 20)
        return r

    p = env.process(work())
    env.run(until=p)
    assert p.value.result == 0
    found = sum(
        1
        for store in c.stores
        for objects in store.collections.values()
        if "scale" in objects
    )
    assert found == 3  # replication factor honored on the larger cluster


def test_booted_cluster_memory_is_not_per_device():
    """Building and booting a default DoCeph cluster (two 1 TiB
    BlueStores) traces at most 1 MB: no structure sized by device
    capacity, such as a dense one-bit-per-block bitmap (2 MiB each)."""

    def build_and_boot():
        env = Environment()
        cluster = build_doceph_cluster(env)
        env.run(until=env.process(cluster.boot()))

    build_and_boot()  # first build imports the lazily loaded modules
    tracemalloc.start()
    try:
        build_and_boot()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000, f"{peak} bytes traced to build and boot"


def test_osdmap_addresses_match_nodes():
    env = Environment()
    c = build_baseline_cluster(env)
    for i, node in enumerate(c.nodes):
        assert c.osdmap.address_of(i) == node.name


def test_two_clusters_coexist_in_one_environment():
    """Each builder creates its own fabric and address directory, so two
    independent clusters can share a simulation clock (useful for
    side-by-side comparisons on one timeline)."""
    env = Environment()
    a = build_baseline_cluster(env)
    b = build_doceph_cluster(env)
    for cluster in (a, b):
        boot = env.process(cluster.boot())
        env.run(until=boot)

    def work(cluster, name):
        r = yield from cluster.client.write_object(BENCH_POOL, name, 1 << 20)
        return r.result

    pa = env.process(work(a, "obj-a"))
    pb = env.process(work(b, "obj-b"))
    env.run(until=pa)
    env.run(until=pb)
    assert pa.value == 0 and pb.value == 0
