"""Deterministic workload replay: the scenarios every digest golden and
lint probe is taken on.

* :data:`SCENARIOS` — small, named, fully-deterministic workload
  configurations (the same cluster builders and RADOS bench driver the
  experiments use).  Replaying a scenario at a fixed seed always yields
  the same event sequence, so its :func:`~repro.trace.simulation_digest`
  is a golden value: any engine "optimization" that perturbs behavior
  changes the digest and fails loudly.
* :func:`run_scenario` — replay one; the ``perf`` CLI subcommand
  prints its digest, event count and peak pending events.  Host time is
  measured only by ``benchmarks/pair.py`` and ``benchmarks/e2e``.
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

__all__ = [
    "PerfScenario",
    "SCENARIOS",
    "run_scenario",
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
