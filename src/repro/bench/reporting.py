"""Plain-text and JSON report rendering for the experiment harness.

Every benchmark prints its table/figure in a paper-vs-measured layout
so EXPERIMENTS.md can be regenerated by running the benches.  The same
results are also published as machine-readable ``BENCH_<name>.json``
files under ``benchmarks/results/`` (throughput, latency percentiles,
CPU breakdown, and — when a tracer was attached — the trace
fingerprint and critical-path summary).
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Iterable, Sequence

from ..util.stats import latency_summary
from .experiments import (
    ComparisonPoint,
    Fig5Row,
    MB,
    PAPER,
    Table2Result,
    Table3Row,
)
from .radosbench import BenchResult

__all__ = [
    "format_table",
    "render_fig5",
    "render_fig6",
    "render_table2",
    "render_fig7",
    "render_fig8",
    "render_table3",
    "render_fig9",
    "render_fig10",
    "bench_result_dict",
    "comparison_point_dict",
    "fig5_row_dict",
    "table2_dict",
    "table3_row_dict",
    "write_bench_json",
    "write_results",
]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]],
                 title: str = "") -> str:
    """Render an aligned plain-text table."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header = " | ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header)
    lines.append("-+-".join("-" * w for w in widths))
    for row in str_rows:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _size_label(nbytes: int) -> str:
    return f"{nbytes // MB}MB"


# ---------------------------------------------------------------- JSON results

def bench_result_dict(result: BenchResult) -> dict[str, Any]:
    """Machine-readable summary of one bench run.

    Percentiles rather than raw latencies keep the files small and
    run-to-run diffable; everything is rounded to 9 decimals and no
    host clock is read, so two runs of the same seed produce
    byte-identical JSON."""
    out: dict[str, Any] = {
        "object_size": result.object_size,
        "clients": result.clients,
        "duration_s": round(result.duration, 9),
        "completed_ops": result.completed_ops,
        "iops": round(result.iops, 9),
        "throughput_MBps": round(result.throughput_bytes / 1e6, 9),
        "latency_s": {k: round(v, 9)
                      for k, v in latency_summary(result.latencies).items()},
        "cpu": {
            "host_utilization_pct": round(result.host_utilization_pct, 9),
        },
    }
    if result.ceph_cpu:
        window = result.ceph_cpu_window
        out["cpu"]["ceph_utilization_pct"] = round(window.utilization_pct, 9)
        out["cpu"]["ceph_breakdown"] = {
            cat: round(share, 9) for cat, share in window.breakdown().items()
        }
    if result.faults is not None:
        out["faults"] = result.faults.as_dict()
    if result.trace is not None:
        out["trace"] = result.trace.as_dict()
    return out


def comparison_point_dict(point: ComparisonPoint) -> dict[str, Any]:
    return {
        "object_size": point.object_size,
        "cpu_saving_pct": round(point.cpu_saving_pct, 9),
        "baseline": bench_result_dict(point.baseline),
        "doceph": bench_result_dict(point.doceph),
    }


def fig5_row_dict(row: Fig5Row) -> dict[str, Any]:
    return {
        "label": row.label,
        "bandwidth_bps": row.bandwidth_bps,
        "msgr_share": round(row.msgr_share, 9),
        "objectstore_share": round(row.objectstore_share, 9),
        "osd_share": round(row.osd_share, 9),
        "total_cpu_pct": round(row.total_cpu_pct, 9),
        "throughput_MBps": round(row.throughput_bytes / 1e6, 9),
        "ctx_msgr_per_s": round(row.ctx_msgr_per_s, 9),
        "ctx_objectstore_per_s": round(row.ctx_objectstore_per_s, 9),
    }


def table2_dict(result: Table2Result) -> dict[str, Any]:
    return {
        "messenger_per_s": round(result.messenger_per_s, 9),
        "objectstore_per_s": round(result.objectstore_per_s, 9),
        "ratio": round(result.ratio, 9),
    }


def table3_row_dict(row: Table3Row) -> dict[str, Any]:
    return {
        "object_size": row.object_size,
        "host_write": round(row.host_write, 9),
        "dma": round(row.dma, 9),
        "dma_wait": round(row.dma_wait, 9),
        "others": round(row.others, 9),
        "total": round(row.total, 9),
        "normalized": {k: round(v, 9) for k, v in row.normalized().items()},
    }


def write_bench_json(
    name: str,
    payload: dict[str, Any],
    out_dir: str | pathlib.Path = "benchmarks/results",
) -> pathlib.Path:
    """Write ``BENCH_<name>.json`` under ``out_dir`` and return its path.

    Bench-result blocks come from :func:`bench_result_dict` alone;
    ``tests/test_bench_harness.py`` pins their key paths."""
    path = pathlib.Path(out_dir) / f"BENCH_{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_results(
    name: str,
    text: str,
    payload: dict[str, Any] | None = None,
    out_dir: str | pathlib.Path = "benchmarks/results",
) -> None:
    """Publish one table or figure under ``out_dir``: the rendered
    ``<name>.txt`` and, when ``payload`` is given, ``BENCH_<name>.json``.
    The paper suite and ``python -m repro`` both write through here."""
    path = pathlib.Path(out_dir) / f"{name}.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text + "\n")
    if payload is not None:
        write_bench_json(name, payload, out_dir)


def render_fig5(rows: list[Fig5Row]) -> str:
    out = []
    for row in rows:
        out.append([
            row.label,
            f"{100 * row.msgr_share:.1f}%",
            f"{100 * PAPER['fig5_msgr_share'][row.label]:.1f}%",
            f"{100 * row.objectstore_share:.1f}%",
            f"{100 * row.osd_share:.1f}%",
            f"{row.total_cpu_pct:.1f}%",
            f"{PAPER['fig5_total_cpu_pct'][row.label]:.1f}%",
        ])
    return format_table(
        ["net", "msgr", "msgr(paper)", "objstore", "osd",
         "total CPU", "total(paper)"],
        out,
        title="Fig. 5 — CPU usage breakdown (Baseline, 4MB writes)",
    )


def render_fig6(rows: list[Fig5Row]) -> str:
    out = [
        [row.label, f"{row.throughput_bytes / 1e6:.1f} MB/s"]
        for row in rows
    ]
    return format_table(
        ["net", "throughput"],
        out,
        title="Fig. 6 — Throughput under 1Gbps / 100Gbps (Baseline)",
    )


def render_table2(result: Table2Result) -> str:
    paper_ratio = (PAPER["table2_ctx"]["messenger"]
                   / PAPER["table2_ctx"]["objectstore"])
    out = [
        ["Messenger", f"{result.messenger_per_s:.0f}/s",
         PAPER["table2_ctx"]["messenger"]],
        ["ObjectStore", f"{result.objectstore_per_s:.0f}/s",
         PAPER["table2_ctx"]["objectstore"]],
        ["ratio", f"{result.ratio:.1f}x", f"{paper_ratio:.1f}x"],
    ]
    return format_table(
        ["component", "measured ctx", "paper ctx"],
        out,
        title="Table 2 — Context switches, Messenger vs ObjectStore",
    )


def render_fig7(points: list[ComparisonPoint]) -> str:
    out = []
    for p in points:
        out.append([
            _size_label(p.object_size),
            f"{p.baseline.host_utilization_pct:.1f}%",
            f"{PAPER['fig7_baseline_cpu_pct'][p.object_size]:.1f}%",
            f"{p.doceph.host_utilization_pct:.2f}%",
            f"{PAPER['fig7_doceph_cpu_pct'][p.object_size]:.2f}%",
            f"{p.cpu_saving_pct:.1f}%",
        ])
    return format_table(
        ["size", "baseline", "baseline(paper)", "doceph", "doceph(paper)",
         "saving"],
        out,
        title="Fig. 7 — Host CPU utilization, Baseline vs DoCeph",
    )


def render_fig8(points: list[ComparisonPoint]) -> str:
    out = []
    for p in points:
        base = latency_summary(p.baseline.latencies)
        doceph = latency_summary(p.doceph.latencies)
        out.append([
            _size_label(p.object_size),
            f"{base['mean']:.3f}s",
            f"{PAPER['fig8_baseline_latency_s'][p.object_size]:.3f}s",
            f"{doceph['mean']:.3f}s",
            f"{PAPER['fig8_doceph_latency_s'][p.object_size]:.3f}s",
            f"{doceph['p99']:.3f}s",
            f"{100 * (doceph['mean'] / base['mean'] - 1):+.0f}%",
        ])
    return format_table(
        ["size", "baseline", "baseline(paper)", "doceph", "doceph(paper)",
         "doceph p99", "overhead"],
        out,
        title="Fig. 8 — Average write latency, Baseline vs DoCeph",
    )


def render_table3(rows: list[Table3Row]) -> str:
    out = []
    for row in rows:
        paper = PAPER["table3"][row.object_size]
        out.append([
            _size_label(row.object_size),
            f"{row.host_write:.4f}",
            f"{paper['host_write']:.4f}",
            f"{row.dma:.4f}",
            f"{paper['dma']:.4f}",
            f"{row.dma_wait:.4f}",
            f"{paper['dma_wait']:.4f}",
            f"{row.others:.3f}",
            f"{paper['others']:.3f}",
            f"{row.total:.3f}",
            f"{paper['total']:.2f}",
        ])
    return format_table(
        ["size", "host_wr", "(paper)", "dma", "(paper)", "dma_wait",
         "(paper)", "others", "(paper)", "total", "(paper)"],
        out,
        title="Table 3 — DoCeph latency breakdown (seconds)",
    )


def render_fig9(rows: list[Table3Row]) -> str:
    out = []
    for row in rows:
        n = row.normalized()
        paper = PAPER["table3"][row.object_size]
        paper_wait_share = paper["dma_wait"] / paper["total"]
        out.append([
            _size_label(row.object_size),
            f"{100 * n['host_write']:.1f}%",
            f"{100 * n['dma']:.1f}%",
            f"{100 * n['dma_wait']:.1f}%",
            f"{100 * paper_wait_share:.1f}%",
            f"{100 * n['others']:.1f}%",
        ])
    return format_table(
        ["size", "host_wr", "dma", "dma_wait", "dma_wait(paper)", "others"],
        out,
        title="Fig. 9 — Normalized DoCeph latency breakdown",
    )


def render_fig10(points: list[ComparisonPoint]) -> str:
    out = []
    for p in points:
        out.append([
            _size_label(p.object_size),
            f"{p.baseline.iops:.0f}",
            f"{PAPER['fig10_baseline_iops'][p.object_size]}",
            f"{p.doceph.iops:.0f}",
            f"{PAPER['fig10_doceph_iops'][p.object_size]}",
            f"{100 * (1 - p.doceph.iops / p.baseline.iops):.0f}%",
        ])
    return format_table(
        ["size", "baseline", "baseline(paper)", "doceph", "doceph(paper)",
         "gap"],
        out,
        title="Fig. 10 — Average IOPS, Baseline vs DoCeph",
    )
