"""The untraced and traced runs of one workload, and their output.

An *untraced* run yields the end-to-end metrics: imports and one
discarded short replay are set-up; one full-length replay at the
reference seed gives the simulated metrics; then identical 5-sim-s
replays at ``--seed`` repeat in this process until ``--seconds`` have
been measured, and host time is the fastest of them (see
:func:`run_untraced` for why not the median).  Replays of one length
and seed must be identical or the run fails.

A *traced* run yields the per-layer metrics from 5-sim-s replays in
three rounds of three -- one plain (the reference), one under the stack
sampler, one with the simulator's own ``Tracer`` attached -- then one
short cProfile'd replay and the layer drills.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import repro
from repro.sim import compiled
from repro.trace import Tracer
from repro.util.wallclock import perf_counter

import metrics
from drills import DRILLS
from layers import LAYERS, StackSampler, profile_calls
from spans import SpanLog
from workloads import (
    SHORT_SIM_S,
    WORKLOADS,
    Replay,
    Workload,
    qos_build_boot_phases,
    replay,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The seed of the full-length replay that yields the simulated
#: end-to-end metrics, whatever ``--seed`` is.  Those metrics are exact,
#: so the only thing another seed adds to them is a spread of our own
#: making (Poisson arrivals move the open loop's p99 by 7 % between
#: seeds); pinned, they compare bit for bit between any two runs, and
#: every run checks them against ``golden/``.
REFERENCE_SEED = 0
MIN_REPLAYS = 3
#: Simulated seconds of each replay whose host time is measured (the
#: untraced run's timing replays and every replay of a traced run):
#: about a second of wall each, so a run gets many tries at a quiet one.
HOST_SIM_S = 5.0
TRACED_ROUNDS = 3
#: Golden floats are compared to this relative tolerance rather than
#: bit for bit, so a libm that rounds ``log`` differently in the last
#: place does not read as a model change.
GOLDEN_REL_TOL = 1e-9


class HarnessError(Exception):
    """The benchmark cannot vouch for what it would measure."""


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def verify_tree() -> str:
    """Fail unless the imported simulator is this checkout's, running
    the engine that was asked for; returns the active engine's name."""
    origin = Path(repro.__file__).resolve()
    if (ROOT / "src") not in origin.parents:
        raise HarnessError(
            f"repro was imported from {origin}, not from {ROOT / 'src'}"
        )
    asked = os.environ.get("REPRO_ENGINE", "")
    if asked == "compiled" and compiled.ACTIVE_ENGINE != "compiled":
        raise HarnessError(
            "REPRO_ENGINE=compiled was requested but the compiled kernel "
            "did not load; refusing to report pure-engine numbers for it"
        )
    return compiled.ACTIVE_ENGINE


# ------------------------------------------------------------------ replays


@dataclass
class Measured:
    """What is kept of a replay once its cluster has been dropped."""

    wall_s: float
    events: int
    peak_heap: int
    digest: str
    sim: dict[str, float]
    attempted: int
    failed: int
    errored: int
    late: int
    offered_mismatch: int


def measure(
    workload: Workload, seed: int, log: SpanLog, replay_id: int,
    **kwargs: Any,
) -> tuple[Measured, Replay]:
    r = replay(workload, seed, log, replay_id, **kwargs)
    with log.span("phase.report", replay_id):
        sim = metrics.simulated(workload, r)
    return Measured(
        wall_s=r.wall_s, events=r.events, peak_heap=r.peak_heap,
        digest=r.digest, sim=sim, attempted=r.attempted, failed=r.failed,
        errored=r.errored, late=r.late,
        offered_mismatch=r.offered_mismatch,
    ), r


def warm_up(workload: Workload, seed: int, log: SpanLog) -> None:
    """The one discarded short replay that ends set-up: it fills the
    interpreter's caches so the first measured replay is not the cold
    one."""
    measure(workload, seed, log, -1, duration=SHORT_SIM_S)
    gc.collect()


# ------------------------------------------------------------------- output


class Result:
    """Metrics and verdicts of one run, printed as they are added."""

    def __init__(self, units: dict[str, str]) -> None:
        self._units = units
        self.metrics: dict[str, dict[str, Any]] = {}
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def count(self, replays: list[Measured]) -> None:
        """The ``attempted`` and ``failed`` of the result line, over
        ``replays``.  An op still in flight when an open-loop window
        closed completed correctly after it: ``ops_ok_pct`` counts it as
        not in time, but it did not fail."""
        self.attempted = sum(m.attempted for m in replays)
        self.failed = sum(m.failed - m.late for m in replays)

    def metric(self, name: str, value: float) -> None:
        unit = self._units.get(name)
        if unit is None:
            raise HarnessError(f"metric {name} is not in BENCHMARK.json")
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"metric {name} {value!r} {unit}")

    def extra(self, name: str, value: Any, unit: str = "") -> None:
        """A printed number that is not a BENCHMARK.json metric."""
        print(f"extra  {name} {value!r} {unit}".rstrip())

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"WRONG  {text}")

    def finish(self, expected: list[str]) -> int:
        missing = [n for n in expected if n not in self.metrics]
        if missing:
            self.problem(f"metrics not produced: {missing}")
        print(json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {n: self.metrics[n] for n in expected
                        if n in self.metrics},
        }))
        return 1 if self.problems else 0


def check_golden(
    result: Result, workload: Workload, m: Measured, regen: bool
) -> None:
    path = HERE / "golden" / f"{workload.name}.json"
    doc = {"seed": REFERENCE_SEED, "digest": m.digest, "values": m.sim}
    if regen:
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        print(f"golden rewritten: {path}")
        return
    golden = json.loads(path.read_text())
    diffs = [] if golden["digest"] == m.digest else ["digest"]
    for name in sorted(set(golden["values"]) | set(m.sim)):
        want, got = golden["values"].get(name), m.sim.get(name)
        if want is None or got is None or not math.isclose(
            want, got, rel_tol=GOLDEN_REL_TOL, abs_tol=0.0
        ):
            diffs.append(f"{name}: golden {want!r}, got {got!r}")
    print(f"golden_match={0 if diffs else 1}")
    if diffs:
        result.problem(
            "simulated outputs differ from golden/"
            f"{path.name} ({'; '.join(diffs)}); a change to the model "
            "regenerates it with --regen-golden in a change of its own"
        )


def check_identical(result: Result, replays: list[Measured]) -> None:
    first = replays[0]
    for i, m in enumerate(replays[1:], start=1):
        if m.digest != first.digest or m.sim != first.sim:
            result.problem(f"replay {i} differs from replay 0 of the same "
                           "length: the simulation is not deterministic")


def check_outputs(
    result: Result, workload: Workload, m: Measured, check_samples: bool
) -> None:
    if workload.loop == "closed" and m.errored:
        result.problem(f"{m.errored} ops errored or timed out")
    if m.offered_mismatch:
        result.problem(
            f"offered load is {m.offered_mismatch} arrivals off the "
            "seed's schedule"
        )
    if m.sim["ops_ok_pct"] <= 99.0:
        result.problem(f"ops_ok_pct={m.sim['ops_ok_pct']:.3f} <= 99")
    n = int(m.sim["latency_samples"])
    if check_samples and not metrics.percentile_supported(n, 99):
        result.problem(
            f"p99 of {n} samples has {metrics.samples_beyond(n, 99)} beyond "
            f"it, fewer than {metrics.MIN_BEYOND}"
        )


# ----------------------------------------------------------------- untraced


def run_untraced(
    result: Result, workload: Workload, seed: int, seconds: float,
    t0: float, import_s: float, quick: bool, regen: bool,
) -> None:
    """One full-length replay at :data:`REFERENCE_SEED` yields the
    simulated metrics; host time comes from as many :data:`HOST_SIM_S`
    replays at ``seed`` as fit in ``seconds``, and ``wall_s_per_sim_s``
    is the *fastest* of them, not the median.

    The replays do identical work, so they differ only by what else the
    machine was doing, and that only ever adds time: on the 2-core
    sandbox identical replays ranged 1.0-2.4 s within one process, in
    bursts of several seconds.  The minimum is steady as soon as one
    replay lands in a quiet spell, the median needs most of them to,
    and short replays give a run more chances than full-length ones
    would.  Median and quartiles are printed beside it."""
    log = SpanLog()
    warm_up(workload, seed, log)

    t_start = perf_counter()
    setup_s = t_start - t0
    full, _ = measure(workload, REFERENCE_SEED, log, 0,
                      duration=SHORT_SIM_S if quick else None)
    gc.collect()
    floor = 2 if quick else MIN_REPLAYS
    replays: list[Measured] = []
    while True:
        m, _ = measure(workload, seed, log, 1 + len(replays),
                       duration=SHORT_SIM_S if quick else HOST_SIM_S)
        replays.append(m)
        gc.collect()
        if (len(replays) >= floor
                and (quick or perf_counter() - t_start >= seconds)):
            break
    measured_s = perf_counter() - t_start

    result.count([full] + replays)
    check_outputs(result, workload, full, check_samples=not quick)
    check_outputs(result, workload, replays[0], check_samples=False)
    check_identical(result, replays)
    if not quick:
        check_golden(result, workload, full, regen)

    per_sim_s = [m.wall_s / m.sim["sim_s"] for m in replays]
    q1, mid, q3 = metrics.quartiles(per_sim_s)
    result.metric("setup_s", setup_s)
    result.metric("wall_s_per_sim_s", min(per_sim_s))
    result.metric("peak_rss_mb",
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    for name in ("events_per_op", "sim_iops", "sim_lat_p50_ms",
                 "sim_lat_p99_ms", "sim_host_cpu_pct", "ops_ok_pct"):
        result.metric(name, full.sim[name])

    result.extra("timing_replays", len(replays))
    result.extra("measured_s", measured_s, "s")
    result.extra("wall_s_per_sim_s.q1", q1, "s/sim-s")
    result.extra("wall_s_per_sim_s.median", mid, "s/sim-s")
    result.extra("wall_s_per_sim_s.q3", q3, "s/sim-s")
    result.extra("wall_iqr_pct", metrics.iqr_pct(per_sim_s), "%")
    result.extra("setup.import_s", import_s, "s")
    result.extra("sim_s", full.sim["sim_s"], "sim-s")
    result.extra("latency_samples", int(full.sim["latency_samples"]))
    result.extra("sim_lat_mean_ms", full.sim["sim_lat_mean_ms"], "sim-ms")
    result.extra("ops_attempted", full.attempted)
    result.extra("ops_not_ok", full.failed)
    result.extra("ops_late", full.late)
    result.extra("generator_lag_arrivals", full.offered_mismatch)
    result.extra("seeded.ops_ok_pct", replays[0].sim["ops_ok_pct"], "%")
    result.extra("seeded.events_per_op", replays[0].sim["events_per_op"],
                 "events/op")
    if "paper_err_pct" in full.sim:
        result.extra("paper_err_pct", full.sim["paper_err_pct"], "%")
    else:
        print("paper_err_pct=n/a (the paper publishes no point for "
              "this configuration: unvalidated)")


# ------------------------------------------------------------------- traced


def sampled_replay(
    workload: Workload, seed: int, log: SpanLog, replay_id: int,
    sampler: StackSampler, **kwargs: Any,
) -> Measured:
    sampler.start()
    try:
        m, _ = measure(workload, seed, log, replay_id, **kwargs)
    finally:
        sampler.stop()
    return m


def run_traced(
    result: Result, workload: Workload, seed: int, t0: float,
    import_s: float, quick: bool,
) -> None:
    log = SpanLog()
    log.add("phase.import", t0, t0 + import_s)
    duration = SHORT_SIM_S if quick else HOST_SIM_S
    warm_up(workload, seed, log)

    # Plain, sampled and traced replays alternate; each variant is
    # represented by its fastest replay, for the reason run_untraced gives.
    rounds = 1 if quick else TRACED_ROUNDS
    sampler = StackSampler()
    plains, sampleds, traceds = [], [], []
    for i in range(rounds):
        if workload.kind == "qos":
            qos_build_boot_phases(log, 3 * i)
        plains.append((measure(workload, seed, log, 3 * i,
                               duration=duration)[0], 3 * i))
        sampleds.append(sampled_replay(workload, seed, log, 3 * i + 1,
                                       sampler, duration=duration))
        m, traced_replay = measure(workload, seed, log, 3 * i + 2,
                                   duration=duration,
                                   tracer=Tracer(seed=seed))
        traceds.append(m)
        gc.collect()
    with log.span("trace.analysis"):
        modelled = metrics.modelled(workload, traced_replay)
        crit = metrics.critical_path_by_layer(traced_replay.bench.trace)
    spans_recorded = len(traced_replay.bench.trace.spans)
    del traced_replay
    gc.collect()
    plain, plain_id = min(plains, key=lambda pair: pair[0].wall_s)
    sampled = min(sampleds, key=lambda m: m.wall_s)
    traced = min(traceds, key=lambda m: m.wall_s)

    def profiled() -> Replay:
        return replay(workload, seed, log, 3 * rounds, duration=SHORT_SIM_S)

    short, calls = profile_calls(profiled)
    short_ops = short.bench.completed_ops
    del short
    gc.collect()

    result.count([plain])
    check_outputs(result, workload, plain, check_samples=False)
    check_identical(result, [m for m, _ in plains] + sampleds + traceds)

    for layer, pct in sampler.self_pct().items():
        result.metric(f"host.{layer}.self_pct", pct)
    for layer in LAYERS:
        result.metric(f"host.{layer}.calls_per_op", calls[layer] / short_ops)

    result.metric("phase.import_s", import_s)
    for name, value in metrics.phases(log, plain_id).items():
        result.metric(name, value)
    result.metric("host.events_per_wall_s", plain.events / plain.wall_s)
    result.metric("host.peak_heap", float(plain.peak_heap))
    result.metric("host.wall_iqr_pct",
                  metrics.iqr_pct([m.wall_s for m, _ in plains]))
    result.metric("host.tracer_overhead_pct",
                  100.0 * (traced.wall_s / plain.wall_s - 1.0))
    result.metric("host.sampler_overhead_pct",
                  100.0 * (sampled.wall_s / plain.wall_s - 1.0))

    for name, (drill, _unit) in DRILLS.items():
        with log.span(name):
            result.metric(name, drill())

    for name, value in {**modelled, **crit}.items():
        result.metric(name, value)

    result.extra("sampler.samples", sampler.samples)
    result.extra("tracer.spans", spans_recorded)
    result.extra("profiled.ops", short_ops)
    result.extra("plain.wall_s", plain.wall_s, "s")
    result.extra("trace.analysis_s", log.total("trace.analysis"), "s")
    out = HERE / "out" / f"spans_{workload.name}_seed{seed}.json"
    log.dump(out)
    print(f"harness spans written to {out.relative_to(ROOT)}")


# --------------------------------------------------------------------- main


def main(args: argparse.Namespace, t0: float) -> int:
    """``t0`` is run.py's clock reading before it imported anything."""
    import_s = perf_counter() - t0
    try:
        engine = verify_tree()
        spec = load_spec()
        if args.selfcheck or args.sensitivity:
            import checks

            run = checks.selfcheck if args.selfcheck else checks.sensitivity
            return run(spec)
        if args.workload not in WORKLOADS:
            raise HarnessError(
                f"unknown workload {args.workload!r}; choose from "
                f"{', '.join(WORKLOADS)}"
            )
        if args.regen_golden and (args.trace or args.quick):
            raise HarnessError("--regen-golden needs an untraced, full run")
        workload = WORKLOADS[args.workload]
        section = "per_layer" if args.trace else "end_to_end"
        result = Result({m["name"]: m["unit"] for m in spec[section]})
        print(
            f"workload={workload.name} seed={args.seed} trace={args.trace} "
            f"engine={engine} loop={workload.loop} repro={repro.__file__}"
        )
        if args.trace:
            run_traced(result, workload, args.seed, t0, import_s, args.quick)
        else:
            seconds = (spec["run_seconds"] if args.seconds is None
                       else args.seconds)
            run_untraced(result, workload, args.seed, seconds, t0, import_s,
                         args.quick, args.regen_golden)
        return result.finish([m["name"] for m in spec[section]])
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
