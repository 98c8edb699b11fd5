"""The packed write-breakdown log reads back what a list would have kept.

A DoCeph bench records every write's ``WriteBreakdown`` twice: into the
proxies' columnar logs, and into plain lists kept beside them.  The
logs, the bench's chained view and Table 3's means must all equal what
the lists give, record for record and bit for bit.
"""

import statistics

import pytest

from repro.bench import run_rados_bench
from repro.cluster import build_doceph_cluster
from repro.core import BreakdownLog, BreakdownView, ProxyObjectStore
from repro.core import WriteBreakdown
from repro.sim import Environment

MB = 1 << 20


@pytest.fixture(scope="module")
def recorded():
    """A short DoCeph bench, with a list recorder beside each log."""
    lists = {}
    append, clear = BreakdownLog.append, BreakdownLog.clear

    def recording_append(self, breakdown):
        lists.setdefault(id(self), []).append(breakdown)
        append(self, breakdown)

    def recording_clear(self):
        lists[id(self)] = []
        clear(self)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BreakdownLog, "append", recording_append)
        mp.setattr(BreakdownLog, "clear", recording_clear)
        cluster = build_doceph_cluster(Environment())
        bench = run_rados_bench(cluster, object_size=MB, clients=4,
                                duration=2.0, warmup=0.5)
    stores = [osd.store for osd in cluster.osds
              if isinstance(osd.store, ProxyObjectStore)]
    return bench, stores, [lists[id(s.breakdowns)] for s in stores]


def test_each_log_yields_the_recorded_breakdowns(recorded):
    _, stores, lists = recorded
    assert len(stores) > 1 and all(lists)
    for store, expected in zip(stores, lists):
        got = list(store.breakdowns)
        assert len(store.breakdowns) == len(expected)
        assert got == expected
        for a, b in zip(got, expected):
            assert type(a.size) is int and type(a.fallback_bytes) is int
            assert repr(a) == repr(b)


def test_bench_view_chains_every_store_in_order(recorded):
    bench, _, lists = recorded
    expected = [b for log in lists for b in log]
    assert isinstance(bench.breakdowns, BreakdownView)
    assert len(bench.breakdowns) == len(expected)
    assert list(bench.breakdowns) == expected
    for part in ("host_write", "dma", "dma_wait", "others"):
        assert statistics.mean(getattr(b, part) for b in bench.breakdowns) \
            == statistics.mean(getattr(b, part) for b in expected)


def test_view_keeps_its_rows_when_the_log_moves_on():
    log = BreakdownLog()
    first = WriteBreakdown(MB, 0.5, 0.25, 0.125, 0.0, 0.0625, 4096)
    log.append(first)
    view = BreakdownView([log])
    log.append(WriteBreakdown(2 * MB, 1.0, 0.5, 0.25, 0.0, 0.125))
    assert list(view) == [first] and len(log) == 2
    log.clear()
    assert list(view) == [first] and list(log) == [] and len(log) == 0
    assert not BreakdownView()
