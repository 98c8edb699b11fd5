"""Deterministic workload replay: the scenarios every digest golden and
lint probe is taken on.

* :data:`SCENARIOS` — small, named, fully-deterministic workload
  configurations (the same cluster builders and RADOS bench driver the
  experiments use).  Replaying a scenario at a fixed seed always yields
  the same event sequence, so its :func:`~repro.trace.simulation_digest`
  is a golden value: any engine "optimization" that perturbs behavior
  changes the digest and fails loudly.
* :func:`measure` — replay a scenario and report its digest, event
  count, peak pending events and wall time (the ``perf`` CLI
  subcommand prints it).  It is a quick look, not a gate: speed claims
  are made on ``benchmarks/e2e`` (alternating parent/change pairs,
  per-layer ledger), the repository's one speed instrument.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .bench.radosbench import BenchResult, run_rados_bench
from .cluster.builder import build_baseline_cluster, build_doceph_cluster
from .cluster.config import DocephProfile
from .faults import FaultPlan
from .qos.runner import run_qos
from .qos.tenants import default_tenants
from .sim import Environment
from .trace import simulation_digest
from .util.wallclock import perf_counter

__all__ = [
    "PerfScenario",
    "PerfResult",
    "SCENARIOS",
    "run_scenario",
    "measure",
    "perf_result_dict",
    "format_perf_report",
]

KB = 1 << 10
MB = 1 << 20

#: A run with no attached fault plan; distinct from ``None`` arguments
#: inside :func:`run_scenario` so callers can force-detach.
_DETACHED = object()


@dataclass(frozen=True)
class PerfScenario:
    """One named, deterministic benchmark configuration.

    ``faults`` is a fault-plan spec string (seeded with the scenario
    seed at run time) or ``None``; ``fast_recovery`` selects the
    fallback experiments' prompt-detection profile tuning.
    """

    name: str
    mode: str  # "baseline" | "doceph" | "qos"
    object_size: int
    clients: int
    duration: float
    warmup: float = 1.0
    faults: Optional[str] = None
    fast_recovery: bool = False
    description: str = ""


#: The standard replay scenarios.  ``smoke`` is sized for CI;
#: ``fallback`` replays the §4 robustness workload (the acceptance
#: scenario for engine optimizations); ``baseline``/``doceph`` replay
#: the two §5 testbeds at a representative size.
SCENARIOS: dict[str, PerfScenario] = {
    s.name: s
    for s in (
        PerfScenario(
            name="smoke", mode="doceph", object_size=1 * MB, clients=2,
            duration=2.0, warmup=1.0,
            description="small DoCeph write run (CI-sized)",
        ),
        PerfScenario(
            name="fallback", mode="doceph", object_size=4 * MB, clients=8,
            duration=4.0, warmup=1.0, faults="dma,p=0.3",
            fast_recovery=True,
            description="DoCeph under DMA faults on the kernel-socket "
                        "fallback path (§4)",
        ),
        PerfScenario(
            name="baseline", mode="baseline", object_size=4 * MB, clients=8,
            duration=4.0, warmup=1.0,
            description="host-messenger Baseline write run (§5)",
        ),
        PerfScenario(
            name="doceph", mode="doceph", object_size=4 * MB, clients=8,
            duration=4.0, warmup=1.0,
            description="DPU-messenger DoCeph write run (§5)",
        ),
        PerfScenario(
            name="qos", mode="qos", object_size=64 * KB, clients=4,
            duration=2.0, warmup=0.0,
            description="multi-tenant open-loop mClock serving replay "
                        "(PR-8 workload; warmup unused)",
        ),
    )
}


def run_scenario(
    name: str,
    seed: int = 0,
    tracer: Any = None,
    fault_plan: Any = _DETACHED,
) -> tuple[Environment, BenchResult]:
    """Replay scenario ``name`` once; returns ``(env, bench_result)``.

    ``fault_plan`` overrides the scenario's own plan when given (pass
    ``None`` to force a detached run of a faulty scenario).
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown perf scenario: {name!r} "
            f"(choose from {', '.join(sorted(SCENARIOS))})"
        ) from None
    if fault_plan is _DETACHED:
        fault_plan = (
            FaultPlan.parse(scenario.faults, seed=seed)
            if scenario.faults else None
        )
    if scenario.mode == "qos":
        if fault_plan is not None:
            raise ValueError(
                "the qos scenario drives run_qos, which has no fault-plan "
                "hookup; pass fault_plan=None"
            )
        env = Environment()
        qos_result = run_qos(
            "full-osd",
            default_tenants(
                count=scenario.clients, object_size=scenario.object_size
            ),
            seed=seed,
            duration=scenario.duration,
            prepopulate=16,
            env=env,
            tracer=tracer,
        )
        return env, qos_result.bench
    profile = None
    if scenario.fast_recovery:
        # same tuning as experiment_fallback: prompt fault detection
        profile = DocephProfile(
            cooldown_seconds=0.5, rpc_timeout_seconds=0.5
        )
    env = Environment()
    builder = (build_doceph_cluster if scenario.mode == "doceph"
               else build_baseline_cluster)
    if profile is not None:
        cluster = builder(env, profile, fault_plan=fault_plan,
                          tracer=tracer)
    else:
        cluster = builder(env, fault_plan=fault_plan, tracer=tracer)
    result = run_rados_bench(
        cluster, object_size=scenario.object_size,
        clients=scenario.clients, duration=scenario.duration,
        warmup=scenario.warmup,
    )
    return env, result


@dataclass
class PerfResult:
    """Engine-speed metrics from one scenario replay."""

    scenario: str
    seed: int
    wall_s: float
    sim_s: float
    events: int
    peak_heap: int
    digest: str
    completed_ops: int
    iops: float
    repeats: int = 1
    trace_fingerprint: Optional[str] = None

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0

    @property
    def wall_per_sim_s(self) -> float:
        """Wall-clock seconds spent per simulated second."""
        return self.wall_s / self.sim_s if self.sim_s > 0 else 0.0


def measure(
    scenario: str,
    seed: int = 0,
    repeats: int = 1,
    tracer: Any = None,
) -> PerfResult:
    """Replay ``scenario`` ``repeats`` times; report the fastest run.

    Every repeat must produce the same digest (the harness's own
    self-check of determinism).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    best_wall = None
    digest = None
    env = result = None
    for _ in range(repeats):
        t0 = perf_counter()
        env, result = run_scenario(scenario, seed=seed, tracer=tracer)
        wall = perf_counter() - t0
        d = simulation_digest(env)
        if digest is None:
            digest = d
        elif d != digest:
            raise AssertionError(
                f"non-deterministic replay of {scenario!r}: "
                f"{d} != {digest}"
            )
        if best_wall is None or wall < best_wall:
            best_wall = wall
    assert env is not None and result is not None
    fingerprint = None
    if tracer is not None and result.trace is not None:
        fingerprint = result.trace.fingerprint()
    return PerfResult(
        scenario=scenario,
        seed=seed,
        wall_s=best_wall or 0.0,
        sim_s=env.now,
        events=env.events_scheduled,
        peak_heap=env.peak_pending,
        digest=digest or "",
        completed_ops=result.completed_ops,
        iops=result.iops,
        repeats=repeats,
        trace_fingerprint=fingerprint,
    )


def perf_result_dict(result: PerfResult) -> dict[str, Any]:
    """Machine-readable perf summary (``BENCH_perf_<scenario>.json``).

    The ``digest``/``events``/``sim_s`` fields are deterministic golden
    values; the wall-clock figures vary with the host machine and are
    rounded to microseconds."""
    out: dict[str, Any] = {
        "scenario": result.scenario,
        "seed": result.seed,
        "digest": result.digest,
        "events": result.events,
        "sim_s": round(result.sim_s, 9),
        "peak_heap": result.peak_heap,
        "completed_ops": result.completed_ops,
        "iops": round(result.iops, 9),
        "wall_s": round(result.wall_s, 6),
        "events_per_sec": round(result.events_per_sec, 1),
        "wall_per_sim_s": round(result.wall_per_sim_s, 6),
        "repeats": result.repeats,
    }
    if result.trace_fingerprint is not None:
        out["trace_fingerprint"] = result.trace_fingerprint
    return out


def format_perf_report(result: PerfResult) -> str:
    """Human-readable perf report for the CLI."""
    lines = [
        f"scenario={result.scenario} seed={result.seed}"
        f" (best of {result.repeats})",
        f"  wall time:     {result.wall_s:.3f} s"
        f" for {result.sim_s:.3f} simulated s"
        f" ({result.wall_per_sim_s:.3f} wall-s per sim-s)",
        f"  events:        {result.events}"
        f" ({result.events_per_sec:,.0f} events/s)",
        f"  peak heap:     {result.peak_heap} pending events",
        f"  completed ops: {result.completed_ops}"
        f" ({result.iops:.1f} IOPS simulated)",
        f"  digest:        {result.digest}",
    ]
    if result.trace_fingerprint is not None:
        lines.append(f"  trace fp:      {result.trace_fingerprint}")
    return "\n".join(lines)
