"""Unit tests of the benchmark harness itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e/test_harness.py``
(outside the tier-1 ``testpaths``; the last two tests replay for a few
seconds each).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from layers import LAYERS, OTHER, StackSampler, layer_of  # noqa: E402
from spans import SpanLog  # noqa: E402
from workloads import (  # noqa: E402
    SHORT_SIM_S,
    WORKLOADS,
    open_loop_accounting,
    replay,
)

from repro.qos.workload import TenantStats  # noqa: E402
from repro.trace import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------ percentiles, sample counts


def test_p99_needs_three_thousand_samples():
    assert metrics.samples_beyond(3000, 99) == 30
    assert metrics.percentile_supported(3000, 99)
    assert not metrics.percentile_supported(2999, 99)
    assert metrics.percentile_supported(60, 50)
    assert not metrics.percentile_supported(59, 50)


def test_quartiles_and_spread():
    assert metrics.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert metrics.iqr_pct([4.0, 1.0, 3.0, 2.0, 5.0]) == pytest.approx(200 / 3)
    assert metrics.iqr_pct([7.0, 7.0, 7.0]) == 0.0


# ------------------------------------------------------- layer attribution


@pytest.mark.parametrize("filename, layer", [
    ("/c/src/repro/sim/core.py", "sim"),
    ("/c/src/repro/objectstore/bluestore/store.py", "objectstore"),
    ("C:\\c\\src\\repro\\msgr\\messenger.py", "msgr"),
    ("/c/src/repro/trace.py", OTHER),
    ("/c/src/repro/bench/radosbench.py", OTHER),
    ("/c/src/repro/crush/map.py", OTHER),
    ("/repro/checkout/src/repro/util/stats.py", "util"),
    ("/usr/lib/python3.11/heapq.py", None),
    ("/c/benchmarks/e2e/harness.py", None),
    ("<string>", None),
])
def test_layer_of(filename, layer):
    assert layer_of(filename) == layer


class _Code:
    def __init__(self, filename):
        self.co_filename = filename


class _Frame:
    def __init__(self, filename, back=None):
        self.f_code = _Code(filename)
        self.f_back = back


def test_sampler_charges_innermost_repro_frame():
    sampler = StackSampler()
    harness = _Frame("/c/benchmarks/e2e/harness.py")
    sim = _Frame("/c/src/repro/sim/core.py", harness)
    hw = _Frame("/c/src/repro/hw/net.py", sim)
    stdlib = _Frame("/usr/lib/python3.11/random.py", hw)
    bench = _Frame("/c/src/repro/bench/radosbench.py", sim)
    for frame in (stdlib, hw, sim, bench, harness, None):
        sampler._on_signal(0, frame)
    assert sampler.counts["hw"] == 2       # stdlib is charged to its caller
    assert sampler.counts["sim"] == 1
    assert sampler.counts[OTHER] == 3      # bench, harness-only, no frame
    assert sampler.samples == 6
    assert sampler.self_pct()["hw"] == pytest.approx(100 / 3)
    assert set(sampler.counts) == {*LAYERS, OTHER}


def test_sampler_code_override_wins_over_filename():
    wrapper = _Frame("/c/benchmarks/e2e/checks.py",
                     _Frame("/c/src/repro/msgr/message.py"))
    sampler = StackSampler(code_layers={wrapper.f_code: "util"})
    sampler._on_signal(0, wrapper)
    assert sampler.counts["util"] == 1 and sampler.counts["msgr"] == 0


# ------------------------------------------------------------ harness spans


def test_span_parents_and_self_time():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0])
    log = SpanLog(clock=lambda: next(ticks))
    with log.span("replay", 7) as outer:           # 0 .. 9
        with log.span("phase.build", 7) as build:  # 1 .. 2
            pass
        with log.span("phase.drive", 7) as drive:  # 4 .. 5
            pass
    spans = log.spans
    assert [s.parent for s in spans] == [None, outer, outer]
    assert spans[build].duration == 1.0
    assert spans[drive].duration == 1.0
    assert spans[outer].duration == 9.0
    assert log.self_time(outer) == 7.0
    assert log.self_time(build) == 1.0
    assert log.total("phase.drive", 7) == 1.0
    assert log.total("phase.drive", 8) == 0.0


def test_span_dump_round_trips(tmp_path):
    log = SpanLog()
    log.add("phase.import", 1.0, 1.5)
    with log.span("phase.drive", 0):
        pass
    path = tmp_path / "out" / "spans.json"
    log.dump(path)
    rows = json.loads(path.read_text())
    assert [r["name"] for r in rows] == ["phase.import", "phase.drive"]
    assert rows[0] == {"name": "phase.import", "start": 1.0, "end": 1.5,
                       "parent": None, "replay": None}


# -------------------------------------------------------- failed-op accounting


def test_shed_and_late_ops_count_as_failed():
    tenants = [
        TenantStats(name="a", offered=100, completed=90, shed=6,
                    completed_late=3, failed=1),
        TenantStats(name="b", offered=50, completed=50),
    ]
    attempted, failed, errored, late = open_loop_accounting(tenants)
    assert (attempted, failed, errored, late) == (150, 10, 1, 3)
    assert metrics.ok_pct(attempted, failed) == pytest.approx(100 * 140 / 150)


def test_ok_pct_rejects_nonsense():
    assert metrics.ok_pct(10, 0) == 100.0
    with pytest.raises(ValueError):
        metrics.ok_pct(0, 0)
    with pytest.raises(ValueError):
        metrics.ok_pct(10, 11)


# ----------------------------------------------------------- BENCHMARK.json


def test_spec_names_units_and_limits():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    unit_ok = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
                  "0123456789_/%.-")
    for name in names:
        assert metrics.NAME_RE.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert 1 <= len(m["unit"]) <= 16 and set(m["unit"]) <= unit_ok, m
        assert m["better"] in ("lower", "higher")
    for m in SPEC["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]
    for bad in ("", "-x", "a b", "a/b", "x" * 65):
        assert not metrics.NAME_RE.match(bad)


# ------------------------------------------------------- runs of the program


def test_seed_reaches_the_fault_plan_and_the_tenants_only():
    def digest(name, seed):
        return replay(WORKLOADS[name], seed, SpanLog(), 0,
                      duration=SHORT_SIM_S).digest

    assert digest("w4m_fallback", 0) != digest("w4m_fallback", 1)
    assert digest("mix64k_qos", 0) != digest("mix64k_qos", 1)
    # the fault-free 4 MB write path draws no random numbers
    assert digest("w4m_baseline", 0) == digest("w4m_baseline", 1)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_quick_run_prints_every_listed_metric(trace, section):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mix64k_qos",
         "--quick", "--trace", str(trace), "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: v["unit"] for n, v in doc["metrics"].items()} == want
    for name in want:
        assert f"metric {name} " in proc.stdout


def test_critical_path_fold_matches_whole_report_summary():
    workload = WORKLOADS["w4m_fallback"]
    r = replay(workload, 0, SpanLog(), 0, duration=SHORT_SIM_S,
               tracer=Tracer(seed=0))
    report = r.bench.trace
    whole: dict[str, float] = {}
    for name, mean_s in report.critical_path_summary().items():
        layer = metrics._CRIT_LAYERS[name.split(".", 1)[0]]
        key = f"crit.{layer}_ms"
        whole[key] = whole.get(key, 0.0) + 1e3 * mean_s
    folded = metrics.critical_path_by_layer(report)
    assert set(whole) <= set(folded)
    for key, value in folded.items():
        assert value == pytest.approx(whole.get(key, 0.0), rel=1e-9, abs=1e-12)
    assert folded["crit.core_rpc_ms"] > 0.0
