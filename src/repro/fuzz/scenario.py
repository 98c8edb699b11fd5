"""Scenario tuples: what one fuzz execution runs, and how it is stored.

A :class:`Scenario` is the fuzzer's unit of search: a workload shape
(mode, clients, object size, duration, think time, tenant count), a
chaos schedule
(crash/partition counts + the chaos seed that draws the incident
timing), and a :class:`~repro.faults.FaultSpec` list with its own fault
seed.  Everything simulated is a pure function of the scenario, so a
scenario *is* a replay.

The corpus format is plain text — a small ``key=value`` header plus the
PR-1 textual FaultPlan line — so a shrunk violation can be read, diffed
and replayed by hand::

    # repro.fuzz scenario v2
    mode=baseline
    clients=1
    size=1048576
    duration=1.0
    think=0.1
    crashes=1
    partitions=0
    chaos_seed=17
    fault_seed=3
    tenants=0
    faults=rpc:reply_loss,p=0.2;net:degrade,window=1-3,factor=4

Lines starting with ``#`` are comments (the fuzzer records the violation
signature there); a missing/empty ``faults=`` line means no fault plan.

Format v2 added the ``tenants`` line (multi-tenant QoS chaos, PR 8);
it defaults to ``0`` when absent, so every v1 corpus entry still parses
to the identical scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Optional

from ..faults import FaultSpec, format_fault_specs, parse_fault_specs

__all__ = [
    "SCENARIO_FORMAT_VERSION",
    "Scenario",
    "scenario_from_text",
    "scenario_to_text",
]

SCENARIO_FORMAT_VERSION = 2

_MODES = ("baseline", "doceph")


@dataclass(frozen=True)
class Scenario:
    """One random-but-replayable fuzz input (immutable, hashable)."""

    mode: str = "baseline"
    clients: int = 1
    object_size: int = 1 << 20
    duration: float = 1.0
    think_time: float = 0.1
    crashes: int = 0
    partitions: int = 0
    chaos_seed: int = 0
    fault_seed: int = 0
    #: QoS tenant count (0 = single-tenant, the pre-v2 behavior).
    tenants: int = 0
    specs: tuple[FaultSpec, ...] = ()

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ValueError(f"unknown mode {self.mode!r}; one of {_MODES}")
        if self.clients < 1:
            raise ValueError(f"clients must be >= 1, got {self.clients}")
        if self.object_size < 4096:
            raise ValueError(
                f"object_size must be >= 4096, got {self.object_size}"
            )
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")
        if self.think_time < 0:
            raise ValueError(f"negative think_time: {self.think_time}")
        if self.crashes < 0 or self.partitions < 0:
            raise ValueError("crashes/partitions must be >= 0")
        if self.tenants < 0:
            raise ValueError(f"tenants must be >= 0, got {self.tenants}")

    # ------------------------------------------------------------- helpers
    @property
    def incidents(self) -> int:
        return self.crashes + self.partitions

    def with_(self, **changes: Any) -> "Scenario":
        """A modified copy (``dataclasses.replace`` veneer)."""
        return replace(self, **changes)

    def __repr__(self) -> str:
        return (
            f"<Scenario {self.mode} c{self.clients}"
            f" {self.object_size >> 10}K d{self.duration:g}"
            f" crash={self.crashes} part={self.partitions}"
            f" cs={self.chaos_seed} fs={self.fault_seed}"
            f" specs={len(self.specs)}>"
        )


def _fnum(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() else repr(float(x))


def scenario_to_text(
    scenario: Scenario,
    header: bool = True,
    comments: Optional[list[str]] = None,
) -> str:
    """Serialize to the corpus format; ``comments`` become ``#`` lines."""
    lines: list[str] = []
    if header:
        lines.append(f"# repro.fuzz scenario v{SCENARIO_FORMAT_VERSION}")
    for comment in comments or []:
        lines.append(f"# {comment}")
    lines += [
        f"mode={scenario.mode}",
        f"clients={scenario.clients}",
        f"size={scenario.object_size}",
        f"duration={_fnum(scenario.duration)}",
        f"think={_fnum(scenario.think_time)}",
        f"crashes={scenario.crashes}",
        f"partitions={scenario.partitions}",
        f"chaos_seed={scenario.chaos_seed}",
        f"fault_seed={scenario.fault_seed}",
        f"tenants={scenario.tenants}",
        f"faults={format_fault_specs(scenario.specs)}",
    ]
    return "\n".join(lines) + "\n"


def scenario_from_text(text: str) -> Scenario:
    """Parse the corpus format back into a :class:`Scenario`."""
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed scenario line {line!r}")
        fields[key.strip()] = value.strip()
    unknown = sorted(set(fields) - {
        "mode", "clients", "size", "duration", "think", "crashes",
        "partitions", "chaos_seed", "fault_seed", "tenants", "faults",
    })
    if unknown:
        raise ValueError(f"unknown scenario field(s): {', '.join(unknown)}")
    faults_text = fields.get("faults", "")
    specs: tuple[FaultSpec, ...] = ()
    if faults_text:
        specs = tuple(parse_fault_specs(faults_text))
    try:
        return Scenario(
            mode=fields.get("mode", "baseline"),
            clients=int(fields.get("clients", "1")),
            object_size=int(fields.get("size", str(1 << 20))),
            duration=float(fields.get("duration", "1.0")),
            think_time=float(fields.get("think", "0.1")),
            crashes=int(fields.get("crashes", "0")),
            partitions=int(fields.get("partitions", "0")),
            chaos_seed=int(fields.get("chaos_seed", "0")),
            fault_seed=int(fields.get("fault_seed", "0")),
            tenants=int(fields.get("tenants", "0")),
            specs=specs,
        )
    except ValueError:
        raise
    except Exception as exc:  # int()/float() TypeError etc.
        raise ValueError(f"malformed scenario: {exc}") from exc
