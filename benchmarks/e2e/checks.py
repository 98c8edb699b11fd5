"""Checks on the benchmark itself: is it steady, and does it measure
what it says?

``selfcheck`` runs every workload twice, in opposite orders, each run
in its own process exactly as the driver would, and fails if the two
sets disagree by more than the bounds in BENCHMARK.json (simulated
metrics must be equal).  ``setup_s`` is printed and not judged, as the
driver does not judge its spread either: it is one cold start per run,
and single cold starts on one machine differ by about its bound.

``sensitivity`` perturbs one thing at a time from outside the program
and shows which metrics move: a 20 us busy-wait wrapped around one
public function (host side only: wall time, that layer's share and its
drill move, every simulated number stays put), then DoCeph with
``mr_cache=False`` (simulated side: latency and DMA wait move on
``w4m_doceph``, nothing moves on ``w4m_baseline``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Callable

from repro.msgr.message import Message
from repro.util.bufferlist import BufferList
from repro.util.wallclock import perf_counter

import metrics
from drills import DRILLS
from harness import (
    HOST_SIM_S,
    Measured,
    measure,
    sampled_replay,
    warm_up,
)
from layers import StackSampler
from spans import SpanLog
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: End-to-end metrics that are pure functions of (workload, seed).
EXACT = ("events_per_op", "sim_iops", "sim_lat_p50_ms", "sim_lat_p99_ms",
         "sim_host_cpu_pct", "ops_ok_pct")

DELAY_S = 20e-6
ROUNDS = 5
#: (class, method, layer charged, drill that calls the method).  Both
#: run thousands of times per replay; a function the replays call a
#: handful of times cannot move wall time whatever it costs.
TARGETS = (
    (BufferList, "encode_str", "util", "drill.util.us_per_bufferlist_encode"),
    (Message, "encode", "msgr", "drill.msgr.us_per_mosdop_roundtrip"),
)


def run_once(spec: dict[str, Any], workload: str, seed: int) -> dict[str, Any]:
    """One untraced run in a process of its own; returns its last line."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def selfcheck(spec: dict[str, Any]) -> int:
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sets = []
    for order in (names, names[::-1]):
        docs = {}
        for name in order:
            docs[name] = run_once(spec, name, 0)
            print(f"ran {name} seed 0", flush=True)
        sets.append(docs)

    bad = 0
    print(f"{'workload':14s} {'metric':18s} {'set A':>14s} {'set B':>14s} "
          f"{'diff %':>8s} {'bound %':>8s}")
    for name in names:
        a, b = (s[name]["metrics"] for s in sets)
        for metric, bound in bounds.items():
            va, vb = a[metric]["value"], b[metric]["value"]
            diff = abs(va - vb) / min(va, vb)
            if metric in EXACT:
                ok, limit = va == vb, "exact"
            elif metric == "setup_s":
                ok, limit = True, "shown"
            else:
                ok, limit = diff <= bound, f"{100 * bound:.1f}"
            bad += not ok
            print(f"{name:14s} {metric:18s} {va:14.6g} {vb:14.6g} "
                  f"{100 * diff:8.3f} {limit:>8s}{'' if ok else '  FAIL'}")

    for name in names:
        doc = run_once(spec, name, 1)
        # attempted/failed cover every replay of the run, and all but
        # the one full-length replay are at the run's seed
        share = 100.0 * (1.0 - doc["failed"] / doc["attempted"])
        ok = doc["correct"] and share > 99.0
        bad += not ok
        print(f"{name:14s} seed 1: correct={doc['correct']} "
              f"failed {doc['failed']} of {doc['attempted']} ops"
              f"{'' if ok else '  FAIL'}")
    print(f"selfcheck {'FAILED' if bad else 'passed'}")
    return 1 if bad else 0


# -------------------------------------------------------------- sensitivity


def delayed(fn: Callable[..., Any], delay_s: float) -> Callable[..., Any]:
    """``fn`` preceded by a busy-wait of ``delay_s`` wall seconds."""
    clock = perf_counter

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        until = clock() + delay_s
        while clock() < until:
            pass
        return fn(*args, **kwargs)

    return wrapper


def sensitivity(spec: dict[str, Any]) -> int:
    bad = 0

    def verdict(label: str, ok: bool) -> None:
        nonlocal bad
        bad += not ok
        print(f"  {'ok  ' if ok else 'FAIL'} {label}")

    host = WORKLOADS["w4m_baseline"]
    golden = json.loads((HERE / "golden" / f"{host.name}.json").read_text())
    warm_up(host, 0, SpanLog())
    print(f"(a) host side, {host.name}, +{DELAY_S * 1e6:.0f} us per call; "
          f"{ROUNDS} reference and {ROUNDS} patched {HOST_SIM_S:.0f}-sim-s "
          "replays alternate, the fastest of each counts")
    for cls, method, layer, drill in TARGETS:
        original = getattr(cls, method)
        wrapper = delayed(original, DELAY_S)
        samplers = {
            False: StackSampler(),
            # the busy-wait spins in the wrapper and in the clock it
            # polls, which is a Python function under repro/util/
            True: StackSampler(code_layers={
                wrapper.__code__: layer, perf_counter.__code__: layer,
            }),
        }
        runs: dict[bool, list[Measured]] = {False: [], True: []}
        drills = {False: DRILLS[drill][0]()}
        try:
            for i in range(2 * ROUNDS):
                patched = bool(i % 2)
                setattr(cls, method, wrapper if patched else original)
                runs[patched].append(sampled_replay(
                    host, 0, SpanLog(), i, samplers[patched],
                    duration=HOST_SIM_S,
                ))
            # the method is still patched after the last round
            drills[True] = DRILLS[drill][0]()
            full, _ = measure(host, 0, SpanLog(), 2 * ROUNDS)
        finally:
            setattr(cls, method, original)
        rates = [min(m.wall_s for m in runs[k]) / runs[k][0].sim["sim_s"]
                 for k in (False, True)]
        shares = [samplers[k].self_pct()[layer] for k in (False, True)]
        print(f" {cls.__name__}.{method}: wall_s_per_sim_s "
              f"{rates[0]:.4f} -> {rates[1]:.4f}, host.{layer}.self_pct "
              f"{shares[0]:.1f} -> {shares[1]:.1f}, {drill} "
              f"{drills[False]:.2f} -> {drills[True]:.2f}")
        verdict("wall_s_per_sim_s rose by more than 3 %",
                rates[1] > 1.03 * rates[0])
        verdict(f"host.{layer}.self_pct rose by more than 3 points",
                shares[1] > shares[0] + 3.0)
        verdict(f"{drill} rose by more than 10 us",
                drills[True] > drills[False] + 10.0)
        verdict("patched replays simulate what the reference ones do",
                all(m.digest == runs[False][0].digest
                    and m.sim == runs[False][0].sim
                    for m in runs[False] + runs[True]))
        verdict("patched full-length replay: golden_match=1",
                full.digest == golden["digest"]
                and full.sim == golden["values"])

    print("(b) simulated side: DocephProfile switches")
    for name, switch, moves in (
        ("w4m_doceph", "mr_cache", True),
        ("w4m_baseline", "mr_cache", False),
        # recorded, not judged: with the DMA channel ~99.7 % busy at this
        # load, overlapping staging with transmission buys nothing
        ("w4m_doceph", "pipelining", None),
    ):
        workload = WORKLOADS[name]
        rows = []
        for switches in (None, {switch: False}):
            m, r = measure(workload, 0, SpanLog(), 0,
                           doceph_switches=switches)
            wait = metrics.modelled(workload, r)["sim.core.dma_wait_ms_per_op"]
            rows.append((m, wait))
        (on, wait_on), (off, wait_off) = rows
        print(f" {name}, {switch}=False: sim_lat_p50_ms "
              f"{on.sim['sim_lat_p50_ms']:.3f} -> "
              f"{off.sim['sim_lat_p50_ms']:.3f}, sim.core.dma_wait_ms_per_op "
              f"{wait_on:.3f} -> {wait_off:.3f}")
        if moves:
            verdict("sim_lat_p50_ms moved by more than 1 %",
                    abs(off.sim["sim_lat_p50_ms"] / on.sim["sim_lat_p50_ms"]
                        - 1.0) > 0.01)
            verdict("sim.core.dma_wait_ms_per_op moved by more than 1 %",
                    abs(wait_off / wait_on - 1.0) > 0.01)
        elif moves is False:
            verdict("digest and every simulated value unchanged",
                    on.digest == off.digest and on.sim == off.sim)
    print(f"sensitivity {'FAILED' if bad else 'passed'}")
    return 1 if bad else 0
