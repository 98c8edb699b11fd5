"""Scenario execution: one fuzz input → one verdict + coverage set.

The executor composes the three prior layers: the scenario's
:class:`~repro.faults.FaultPlan` (per-operation dma/rpc/net/storage
faults), the :class:`~repro.chaos.ChaosController` crash/partition
schedule, and a :class:`~repro.trace.Tracer` whose span categories feed
the coverage map.  The oracle is the :class:`~repro.chaos.DurabilityChecker`
verdict plus the no-hang latency bound: every violation string from the
checker, and a synthetic ``no-hang`` violation when any client op
exceeded the bound the profile guarantees.

Storage faults are fail-stop by design (BlueStore treats an I/O error
like real Ceph's EIO assert), so a run they abort is *not* a violation
— it is recorded as ``abort.storage`` coverage and the durability
verdict is skipped (there is no healed cluster to verify against).  A
DoCeph proxy whose RPC retries run out while the cluster boots raises
``StoreError``; that run is recorded the same way, as ``abort.store``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..chaos import ChaosReport, run_chaos
from ..faults import FaultPlan
from ..hw import StorageError
from ..objectstore import StoreError
from ..rados.client import RadosError
from ..trace import Tracer
from .scenario import Scenario

__all__ = ["ScenarioOutcome", "execute_scenario", "violation_signature"]


@dataclass(frozen=True)
class ScenarioOutcome:
    """What one execution produced (everything the fuzzer consumes)."""

    scenario: Scenario
    violations: tuple[str, ...]
    coverage: frozenset[str]
    fingerprint: str  # ChaosReport fingerprint; "" when the run aborted
    aborted: str  # "" | "storage: ..." | "rados: ..." | "store: ..."
    writes_acked: int = 0
    writes_failed: int = 0
    sim_elapsed: float = 0.0
    max_op_latency: float = 0.0
    latency_bound: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


#: Violation-kind classifiers: (marker substring, signature token).  The
#: signature strips object names so "which invariant broke" — not which
#: oid — identifies a finding across shrink steps and corpus replays.
_SIGNATURE_MARKERS: tuple[tuple[str, str], ...] = (
    ("no-hang", "no-hang"),
    ("stat failed", "stat-error"),
    ("missing (stat result", "missing"),
    ("size ", "size"),
    ("read failed", "read-error"),
    ("unreadable", "unreadable"),
    ("short read", "short-read"),
    ("payload identity", "identity"),
    ("stored identity", "identity"),
    ("replicas diverge", "divergence"),
    ("has no copy", "replica-missing"),
    ("no acting set", "no-acting-set"),
)


def violation_signature(violations: Iterable[str]) -> str:
    """Stable class of a violation set, e.g. ``"identity+missing"``."""
    kinds: set[str] = set()
    for violation in violations:
        for marker, token in _SIGNATURE_MARKERS:
            if marker in violation:
                kinds.add(token)
                break
        else:
            kinds.add("other")
    return "+".join(sorted(kinds)) if kinds else "none"


def _coverage_keys(
    scenario: Scenario,
    plan: Optional[FaultPlan],
    tracer: Tracer,
    report: Optional[ChaosReport],
    aborted: str,
) -> frozenset[str]:
    keys: set[str] = {f"mode.{scenario.mode}"}
    for span in tracer.spans:
        keys.add(f"span.{span.category}")
        if span.status == "error":
            keys.add("span.error")
        for _linked, link_kind in span.links:
            if link_kind == "retry":
                keys.add("span.retry")
    if plan is not None:
        for injected_key in plan.injected:
            keys.add(f"fault.{injected_key}")
    if report is not None:
        for incident_kind, _target, _t in report.incidents:
            keys.add(f"chaos.{incident_kind}")
        if report.settle_timeouts:
            keys.add("chaos.settle_timeout")
        if report.writes_failed:
            keys.add("client.op_failed")
        for wire_key, count in report.wire_incidents.items():
            if count:
                keys.add(f"wire.{wire_key}")
        # QoS-plane incidents (multi-tenant scenarios only): admission
        # sheds, mClock limit throttling, reservation-phase service.
        # Zero counters stay silent, mirroring the wire.* convention.
        for qos_key, count in report.qos_incidents.items():
            if count:
                keys.add(f"qos.{qos_key}")
    if aborted:
        keys.add("abort." + aborted.split(":", 1)[0])
    return frozenset(keys)


def execute_scenario(
    scenario: Scenario, tracer_seed: int = 0
) -> ScenarioOutcome:
    """Run ``scenario`` end to end and judge it.

    Deterministic: the outcome (violations, coverage, fingerprint) is a
    pure function of the scenario tuple — the executor re-run on a
    shrunk candidate or a corpus entry reproduces the verdict exactly.
    """
    plan: Optional[FaultPlan] = None
    if scenario.specs:
        plan = FaultPlan(seed=scenario.fault_seed, specs=scenario.specs)
    tracer = Tracer(seed=tracer_seed)
    report: Optional[ChaosReport] = None
    aborted = ""
    try:
        report = run_chaos(
            mode=scenario.mode,
            seed=scenario.chaos_seed,
            duration=scenario.duration,
            clients=scenario.clients,
            object_size=scenario.object_size,
            crashes=scenario.crashes,
            partitions=scenario.partitions,
            tracer=tracer,
            fault_plan=plan,
            think_time=scenario.think_time,
            tenants=scenario.tenants,
        )
    except StorageError as exc:
        aborted = f"storage: {exc}"
    except RadosError as exc:
        aborted = f"rados: {exc}"
    except StoreError as exc:
        aborted = f"store: {exc}"

    violations: list[str] = []
    if report is not None:
        violations.extend(report.violations)
        if report.max_op_latency > report.latency_bound:
            violations.append(
                f"no-hang: max op latency {report.max_op_latency:.3f}s"
                f" > bound {report.latency_bound:.3f}s"
            )
    coverage = _coverage_keys(scenario, plan, tracer, report, aborted)
    return ScenarioOutcome(
        scenario=scenario,
        violations=tuple(violations),
        coverage=coverage,
        fingerprint=report.fingerprint() if report is not None else "",
        aborted=aborted,
        writes_acked=report.writes_acked if report is not None else 0,
        writes_failed=report.writes_failed if report is not None else 0,
        sim_elapsed=report.sim_elapsed if report is not None else 0.0,
        max_op_latency=report.max_op_latency if report is not None else 0.0,
        latency_bound=report.latency_bound if report is not None else 0.0,
    )


#: Executors share this signature; the fuzzer takes one as a dependency
#: so tests can substitute a synthetic (fast, or deliberately buggy)
#: system under test without touching the loop.
ExecuteFn = Callable[[Scenario], Any]
