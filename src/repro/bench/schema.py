"""The one place the ``bench_result_dict`` JSON shape is asserted.

Every ``BENCH_*.json`` producer (bench, perf, fuzz, qos) funnels
through :func:`repro.bench.reporting.write_bench_json`, which calls
:func:`validate_payload` here — so a renamed key ("p95" vs "p90",
"throughput_mbps" vs "throughput_MBps") fails loudly at write time instead of
silently forking the format between subsystems.

Standalone module on purpose: ``repro.qos`` and ``repro.fuzz`` can
import it without pulling in ``bench.reporting`` → ``bench.experiments``
(which imports them back — cycle).
"""

from __future__ import annotations

from typing import Any

__all__ = ["SchemaError", "validate_bench_result", "validate_payload"]

_NUMBER = (int, float)

#: Required keys of one bench-result block and their types.
_REQUIRED: dict[str, type | tuple[type, ...]] = {
    "object_size": int,
    "clients": int,
    "duration_s": _NUMBER,
    "completed_ops": int,
    "iops": _NUMBER,
    "throughput_MBps": _NUMBER,
    "latency_s": dict,
    "cpu": dict,
}

#: The latency block is closed: exactly these percentile names.
_LATENCY_KEYS = ("mean", "p50", "p90", "p99", "max")

#: Known cpu sub-keys and their types (extra keys rejected).
_CPU_KEYS: dict[str, type | tuple[type, ...]] = {
    "host_utilization_pct": _NUMBER,
    "ceph_utilization_pct": _NUMBER,
    "ceph_breakdown": dict,
}


class SchemaError(ValueError):
    """A bench-result block deviates from the canonical shape."""


def validate_bench_result(block: dict[str, Any], path: str = "$") -> None:
    """Assert ``block`` matches the ``bench_result_dict`` shape.

    Required keys must exist with the right types; the ``latency_s``
    and ``cpu`` sub-blocks are *closed* (unknown keys there
    are the classic drift bug).  Extra top-level keys (``faults``,
    ``trace``, ``qos``, …) are allowed — producers extend the payload,
    they must not mutate the core shape.
    """
    problems: list[str] = []
    for key, typ in _REQUIRED.items():
        value = block.get(key)
        if value is None:
            problems.append(f"{path}.{key}: missing")
        elif not isinstance(value, typ) or isinstance(value, bool):
            problems.append(
                f"{path}.{key}: expected {typ}, got {type(value).__name__}"
            )
    latency = block.get("latency_s")
    if isinstance(latency, dict):
        for key in _LATENCY_KEYS:
            if not isinstance(latency.get(key), _NUMBER):
                problems.append(f"{path}.latency_s.{key}: missing or non-numeric")
        for key in latency:
            if key not in _LATENCY_KEYS:
                problems.append(f"{path}.latency_s.{key}: unknown key")
    cpu = block.get("cpu")
    if isinstance(cpu, dict):
        if "host_utilization_pct" not in cpu:
            problems.append(f"{path}.cpu.host_utilization_pct: missing")
        for key, value in cpu.items():
            typ = _CPU_KEYS.get(key)
            if typ is None:
                problems.append(f"{path}.cpu.{key}: unknown key")
            elif not isinstance(value, typ) or isinstance(value, bool):
                problems.append(
                    f"{path}.cpu.{key}: expected {typ}, "
                    f"got {type(value).__name__}"
                )
    if problems:
        raise SchemaError("; ".join(problems))


def validate_payload(payload: Any) -> int:
    """Walk ``payload`` and validate every bench-result-shaped block.

    A dict carrying both ``iops`` and ``latency_s`` claims to be a
    bench-result block and must fully conform.  Returns the number of
    blocks validated (0 for payloads with none — fuzz reports etc.).
    """
    checked = 0
    stack: list[tuple[Any, str]] = [(payload, "$")]
    while stack:
        node, path = stack.pop()
        if isinstance(node, dict):
            if "iops" in node and "latency_s" in node:
                validate_bench_result(node, path)
                checked += 1
            for key, value in node.items():
                stack.append((value, f"{path}.{key}"))
        elif isinstance(node, list):
            for i, value in enumerate(node):
                stack.append((value, f"{path}[{i}]"))
    return checked
