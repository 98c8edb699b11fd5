"""Command-line interface: regenerate any of the paper's tables/figures.

Usage::

    python -m repro fig7                   # one experiment
    python -m repro all                    # every table and figure
    python -m repro bench --size 4M --clients 16 --mode doceph
    python -m repro bench --faults "dma,p=0.3" --fault-seed 7
    python -m repro faults --plan "rpc:reply_loss,p=0.2" --size 4M
    python -m repro chaos --seeds 0,1,2 --crashes 3 --partitions 1 --replay
    python -m repro fuzz --seed 0 --iterations 25 --corpus corpus
    python -m repro fuzz --replay corpus/crash-missing-0123abcd.plan
    python -m repro bench --size 1M --clients 2 --out trace.json --replay
    python -m repro qos --strategy full-osd --tenants 8 --rate 250 --replay
    python -m repro qos --sweep --strategies baseline,full-osd
    python -m repro fig8 --duration 20     # longer, steadier runs

Each experiment prints the paper-vs-measured table that the benchmark
suite also asserts on, and publishes it under ``--json-dir`` (default
``benchmarks/results``; ``--no-json`` disables) with the suite's file
names: the rendered ``<stem>.txt`` and the machine-readable
``BENCH_<stem>.json`` (``fig7`` writes ``fig7_host_cpu.txt`` and
``BENCH_fig7_host_cpu.json``).  ``--faults`` takes
the spec format of ``repro.faults`` (``layer[:kind],key=value,...``
joined with ``;``).  ``bench --trace`` runs the bench with the
:mod:`repro.trace` tracer attached; ``--out`` exports Chrome/Perfetto
trace-event JSON and ``--replay`` checks the trace fingerprint.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable, Sequence

from .bench import (
    bench_result_dict,
    comparison_point_dict,
    experiment_fallback,
    experiment_fig5,
    experiment_table3,
    fig5_row_dict,
    table2_dict,
    table3_row_dict,
    write_bench_json,
    write_results,
    render_fig5,
    render_fig6,
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10,
    render_table2,
    render_table3,
    run_comparison_sweep,
    run_rados_bench,
)
from .bench.experiments import Fig5Row, Table2Result
from .cluster import (
    STRATEGY_NAMES,
    build_baseline_cluster,
    build_doceph_cluster,
)
from .faults import FaultPlan
from .hw import StorageError
from .sim import Environment
from .util.stats import latency_summary

__all__ = ["main"]


def _parse_size(text: str) -> int:
    """'4M', '512K', '1048576' → bytes."""
    text = text.strip().upper()
    multiplier = 1
    if text.endswith("K"):
        multiplier, text = 1024, text[:-1]
    elif text.endswith("M"):
        multiplier, text = 1 << 20, text[:-1]
    elif text.endswith("G"):
        multiplier, text = 1 << 30, text[:-1]
    try:
        return int(float(text) * multiplier)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size: {text!r}") from None


def _publish(args: argparse.Namespace, name: str, payload: dict) -> None:
    """Write BENCH_<name>.json unless the user opted out."""
    if getattr(args, "no_json", False):
        return
    out_dir = getattr(args, "json_dir", "benchmarks/results")
    write_bench_json(name, payload, out_dir)


def _rows(to_dict: Callable[[Any], dict]) -> Callable[[list], dict]:
    return lambda rows: {"rows": [to_dict(r) for r in rows]}


def _points(points: list) -> dict:
    return {"points": [comparison_point_dict(p) for p in points]}


def _table2(rows: list[Fig5Row]) -> Table2Result:
    """Table 2 is read off Fig. 5's 100 Gbps run."""
    (row,) = [r for r in rows if r.label == "100G"]
    return Table2Result.of(row)


#: Each paper table/figure: (experiment, published stem, payload
#: builder, renderer).  The stem is the paper suite's, so
#: ``python -m repro all`` rewrites the suite's ``benchmarks/results``
#: files.  Names that share an experiment share its runs.
_EXPERIMENTS: dict[str, tuple[Callable, str, Callable, Callable]] = {
    "fig5": (experiment_fig5, "fig5_cpu_breakdown",
             _rows(fig5_row_dict), render_fig5),
    "fig6": (experiment_fig5, "fig6_throughput",
             _rows(fig5_row_dict), render_fig6),
    "table2": (experiment_fig5, "table2_context_switches",
               lambda rows: table2_dict(_table2(rows)),
               lambda rows: render_table2(_table2(rows))),
    "fig7": (run_comparison_sweep, "fig7_host_cpu", _points, render_fig7),
    "fig8": (run_comparison_sweep, "fig8_latency", _points, render_fig8),
    "table3": (experiment_table3, "table3_latency_breakdown",
               _rows(table3_row_dict), render_table3),
    "fig9": (experiment_table3, "fig9_normalized_breakdown",
             _rows(table3_row_dict), render_fig9),
    "fig10": (run_comparison_sweep, "fig10_iops", _points, render_fig10),
}


def _cmd_experiments(args: argparse.Namespace, names: Sequence[str]) -> str:
    """Publish and render each of ``names``, running each distinct
    experiment once."""
    results: dict[Callable, Any] = {}
    out = []
    for name in names:
        experiment, stem, payload, render = _EXPERIMENTS[name]
        if experiment not in results:
            results[experiment] = experiment(duration=args.duration)
        text = render(results[experiment])
        if not args.no_json:
            write_results(stem, text, payload(results[experiment]),
                          args.json_dir)
        out.append(text)
    return "\n\n".join(out)


def _cmd_bench(args: argparse.Namespace) -> tuple[str, int]:
    """One RADOS bench run.  ``--trace`` (implied by ``--out`` and
    ``--replay``) attaches the tracer and prints its flame summary and
    fingerprint.  Returns (text, exit code): 3 when ``--replay`` finds
    that a rerun of the same seeds traced a different fingerprint."""
    builder = (build_doceph_cluster if args.mode == "doceph"
               else build_baseline_cluster)
    traced = args.trace or args.out is not None or args.replay

    def run_once():
        plan = (FaultPlan.parse(args.faults, seed=args.fault_seed)
                if args.faults else None)
        tracer = None
        if traced:
            from .trace import Tracer
            tracer = Tracer(seed=args.seed)
        env = Environment()
        cluster = builder(env, fault_plan=plan, tracer=tracer)
        return run_rados_bench(
            cluster, object_size=args.size, clients=args.clients,
            duration=args.duration,
        )

    result = run_once()
    latency = latency_summary(result.latencies)
    lines = [
        f"mode={args.mode} size={args.size >> 20}MB clients={args.clients}"
        f" duration={args.duration:.0f}s",
        f"  iops:        {result.iops:.1f}",
        f"  throughput:  {result.throughput_bytes / 1e6:.1f} MB/s",
        f"  avg latency: {latency['mean'] * 1e3:.1f} ms"
        f" (p99 {latency['p99'] * 1e3:.1f} ms)",
        f"  host CPU:    {result.host_utilization_pct:.1f} %",
    ]
    if args.faults and result.faults is not None:
        lines.append("  fault report:")
        lines.append(
            "    " + json.dumps(result.faults.as_dict(), sort_keys=True)
        )
    code = 0
    rep = result.trace
    if rep is not None:
        fingerprint = rep.fingerprint()
        lines.append(f"  trace (seed {args.seed}):")
        lines += ["    " + ln for ln in rep.flame_summary().splitlines()]
        lines.append(f"  trace fingerprint: {fingerprint}")
        if args.replay:
            again = run_once().trace.fingerprint()
            if again == fingerprint:
                lines.append("  replay: identical fingerprint")
            else:
                lines.append(f"  replay: MISMATCH {again}"
                             " — NON-DETERMINISTIC")
                code = 3
        if args.out:
            with open(args.out, "w") as fh:
                json.dump(rep.to_perfetto(), fh)
            lines.append(f"  perfetto trace written to {args.out}"
                         f" ({len(rep.spans)} spans)")
    _publish(args, f"bench_{args.mode}_{args.size >> 20}M",
             bench_result_dict(result))
    return "\n".join(lines), code


def _cmd_faults(args: argparse.Namespace) -> str:
    """§4 robustness: DoCeph under an injected fault plan vs fault-free."""
    res = experiment_fallback(
        faults=args.plan, seed=args.fault_seed, object_size=args.size,
        duration=args.duration, clients=args.clients,
    )
    report = res.faulty.faults
    assert report is not None
    _publish(args, "fallback", {
        "plan": str(args.plan),
        "seed": res.plan.seed,
        "iops_retained": round(res.iops_retained, 9),
        "host_cpu_increase_pct": round(res.host_cpu_increase_pct, 9),
        "clean": bench_result_dict(res.clean),
        "faulty": bench_result_dict(res.faulty),
    })
    lines = [
        f"fault plan: {args.plan!r} (seed {res.plan.seed})",
        f"  clean : {res.clean.iops:.1f} IOPS,"
        f" host CPU {res.clean.host_utilization_pct:.1f} %",
        f"  faulty: {res.faulty.iops:.1f} IOPS,"
        f" host CPU {res.faulty.host_utilization_pct:.1f} %",
        f"  IOPS retained: {100 * res.iops_retained:.1f} %"
        f"  host CPU +{res.host_cpu_increase_pct:.1f} pts",
        "  fault report:",
        "    " + json.dumps(report.as_dict(), sort_keys=True),
    ]
    return "\n".join(lines)


def _cmd_chaos(args: argparse.Namespace) -> tuple[str, bool]:
    """Seeded crash/partition chaos runs + durability verdict.

    Returns (report text, all passed).  With ``--replay`` each seed runs
    twice and the two fingerprints must match byte-for-byte."""
    from .chaos import run_chaos

    seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
    lines = []
    ok = True
    for seed in seeds:
        runs = 2 if args.replay else 1
        reports = [
            run_chaos(
                mode=args.mode, seed=seed, duration=args.duration,
                clients=args.clients, object_size=args.size,
                crashes=args.crashes, partitions=args.partitions,
            )
            for _ in range(runs)
        ]
        rep = reports[0]
        fps = [r.fingerprint() for r in reports]
        replay_ok = len(set(fps)) == 1
        ok = ok and rep.passed and replay_ok
        lines += [
            f"seed {seed}: {'PASS' if rep.passed else 'FAIL'}"
            f" ({rep.writes_acked} acked, {rep.writes_failed} failed,"
            f" {len(rep.incidents)} incidents,"
            f" {len(rep.violations)} violations)",
            f"  max op latency {rep.max_op_latency:.2f}s"
            f" (bound {rep.latency_bound:.2f}s),"
            f" mean recovery-to-clean "
            f"{sum(rep.recovery_to_clean) / len(rep.recovery_to_clean):.2f}s"
            if rep.recovery_to_clean else
            f"  max op latency {rep.max_op_latency:.2f}s"
            f" (bound {rep.latency_bound:.2f}s)",
            f"  fingerprint {fps[0]}"
            + ("" if not args.replay else
               (" (replay identical)" if replay_ok
                else f" != replay {fps[1]} — NON-DETERMINISTIC")),
        ]
        for v in rep.violations:
            lines.append(f"  violation: {v}")
        if args.json:
            lines.append("  " + json.dumps(rep.as_dict(), sort_keys=True))
    lines.append("chaos: " + ("all seeds passed" if ok else "FAILED"))
    return "\n".join(lines), ok


def _cmd_perf(args: argparse.Namespace) -> str:
    """Replay a scenario and report its digest, event count and peak
    pending events.  Host time is measured by ``benchmarks/pair.py``."""
    from .perf import run_scenario
    from .trace import Tracer, simulation_digest

    tracer = Tracer(seed=args.seed) if args.trace else None
    env, result = run_scenario(args.scenario, seed=args.seed, tracer=tracer)
    lines = [
        f"scenario={args.scenario} seed={args.seed}",
        f"  sim time:      {env.now:.3f} s",
        f"  events:        {env.events_scheduled}",
        f"  peak heap:     {env.peak_pending} pending events",
        f"  completed ops: {result.completed_ops}"
        f" ({result.iops:.1f} IOPS simulated)",
        f"  digest:        {simulation_digest(env)}",
    ]
    if tracer is not None and result.trace is not None:
        lines.append(f"  trace fp:      {result.trace.fingerprint()}")
    return "\n".join(lines)


def _cmd_fuzz(args: argparse.Namespace) -> tuple[str, int]:
    """Coverage-guided scenario fuzzing (repro.fuzz).

    Returns (report text, exit code): 3 when the session found a
    durability/no-hang violation or a corpus entry regressed — the
    shrunk minimal plan is printed so the failure can be replayed with
    ``--replay``; 2 when ``--replay`` is given an unparseable plan."""
    from .fuzz import execute_scenario, run_fuzz, scenario_from_text
    from .fuzz import violation_signature

    if args.replay:
        try:
            text = pathlib.Path(args.replay).read_text()
        except OSError as exc:
            raise ValueError(f"cannot read plan {args.replay!r}: {exc}")
        scenario = scenario_from_text(text)
        outcome = execute_scenario(scenario)
        lines = [
            f"replay {args.replay}: {scenario!r}",
            f"  acked {outcome.writes_acked}, failed"
            f" {outcome.writes_failed},"
            f" max op latency {outcome.max_op_latency:.3f}s"
            f" (bound {outcome.latency_bound:.3f}s)",
        ]
        if outcome.aborted:
            lines.append(f"  aborted: {outcome.aborted}")
        for violation in outcome.violations:
            lines.append(f"  violation: {violation}")
        if outcome.violations:
            lines.append(
                f"replay: VIOLATION"
                f" [{violation_signature(outcome.violations)}]"
            )
            return "\n".join(lines), 3
        lines.append("replay: pass")
        return "\n".join(lines), 0

    # Without --iterations, plain fuzz runs its default count and a soak
    # session is bounded by its time budget alone.
    count = {} if args.iterations is None else {"iterations": args.iterations}
    if args.soak:
        from .fuzz import run_soak

        log_lines = []
        soak = run_soak(
            base_seed=args.seed,
            time_budget=(
                args.time_budget if args.time_budget is not None else 60.0
            ),
            state_path=args.soak_state,
            corpus_dir=args.corpus,
            **count,
            log=log_lines.append,
        )
        report = soak.report
        lines = list(log_lines)
        lines.append(
            f"soak: session {soak.session_index}"
            f" (seed {soak.session_seed}),"
            f" {report.iterations_run} iteration(s),"
            f" +{soak.new_keys} new coverage key(s)"
            f" ({len(report.coverage)} total),"
            f" {soak.total_iterations} iteration(s)"
            f" / {soak.total_executions} execution(s) accumulated over"
            f" {soak.total_sessions} session(s)"
        )
        lines.append(f"fuzz fingerprint: {report.fingerprint()}")
        lines.append(f"soak state: {soak.state_path}")
        _publish(args, "fuzz_soak", soak.as_dict())
        if not soak.passed:
            lines += _violation_lines(report)
            lines.append("fuzz soak: FAILED")
            return "\n".join(lines), 3
        lines.append("fuzz soak: no violations")
        return "\n".join(lines), 0

    log_lines: list[str] = []
    report = run_fuzz(
        seed=args.seed,
        **count,
        time_budget=args.time_budget,
        corpus_dir=args.corpus,
        log=log_lines.append,
    )
    lines = list(log_lines)
    lines.append(
        f"fuzz: seed {report.seed}, {report.iterations_run} iteration(s)"
        f" ({report.executions} execution(s) incl. replay+shrink),"
        f" coverage {len(report.coverage)} key(s),"
        f" {len(report.corpus_replayed)} corpus entr(ies) replayed"
    )
    lines.append(f"fuzz fingerprint: {report.fingerprint()}")
    _publish(args, f"fuzz_seed{report.seed}", report.as_dict())
    if not report.passed:
        lines += _violation_lines(report)
        lines.append("fuzz: FAILED")
        return "\n".join(lines), 3
    lines.append("fuzz: no violations")
    return "\n".join(lines), 0


def _violation_lines(report) -> list[str]:
    """Each failing record of a fuzz report with its minimal replayable
    plan, indented under a one-line header."""
    lines = []
    for record in report.corpus_failures + report.violations:
        lines.append(
            f"violation [{record.signature}] — minimal replayable plan"
            + (f" (also at {record.corpus_path})"
               if record.corpus_path else "")
            + ":"
        )
        lines += ["  " + ln for ln in record.scenario_text.splitlines()]
    return lines


def _render_qos(result) -> str:
    from .bench.reporting import format_table

    rows = []
    for spec, st in zip(result.specs, result.tenants):
        goodput = st.completed / result.duration
        attain = (f"{goodput / spec.qos.reservation:.2f}"
                  if spec.qos.reservation else "-")
        rows.append([
            spec.name, spec.arrival,
            f"{st.offered / result.duration:.1f}",
            f"{goodput:.1f}",
            f"{spec.qos.reservation:g}",
            attain,
            f"{spec.qos.weight:g}",
            f"{spec.qos.limit:g}" if spec.qos.limit else "-",
            str(st.shed),
            f"{latency_summary(st.latencies)['mean'] * 1e3:.1f}"
            if st.latencies else "-",
        ])
    table = format_table(
        ["tenant", "arrival", "offered/s", "goodput/s", "resv/s",
         "attain", "weight", "limit/s", "shed", "lat ms"],
        rows,
        title=(f"qos — strategy={result.strategy} seed={result.seed}"
               f" duration={result.duration:g}s"),
    )
    summary = (
        f"aggregate goodput {result.bench.iops:.1f} IOPS,"
        f" overload {result.overload_factor:.2f}x,"
        f" Jain {result.jain_goodput:.3f}"
        f" (weighted {result.jain_weighted_goodput:.3f}),"
        f" queue {json.dumps(result.queue_stats, sort_keys=True)}"
    )
    return table + "\n" + summary


def _cmd_qos(args: argparse.Namespace) -> tuple[str, int]:
    """Multi-tenant open-loop QoS run (repro.qos).

    Returns (report text, exit code): 3 when ``--replay`` finds a
    fingerprint mismatch between two runs of the same seed."""
    from .bench import experiment_qos
    from .qos import default_tenants, qos_payload, run_qos

    if args.sweep:
        strategies = tuple(
            s.strip() for s in args.strategies.split(",") if s.strip()
        )
        results = experiment_qos(
            strategies=strategies, tenant_counts=(args.tenants,),
            seed=args.seed, duration=args.duration,
        )
        lines = []
        payload_points = []
        for (strategy, count, label), res in results.items():
            point = qos_payload(res)
            point["tenant_count"] = count
            point["point"] = label
            payload_points.append(point)
            lines.append(
                f"{strategy:9s} {label:5s} tenants={count}"
                f" goodput={res.bench.iops:8.1f} IOPS"
                f" overload={res.overload_factor:5.2f}x"
                f" jain_w={res.jain_weighted_goodput:.3f}"
                f" shed={sum(st.shed for st in res.tenants)}"
            )
        _publish(args, "qos_crossover", {"points": payload_points})
        return "\n".join(lines), 0

    specs = default_tenants(
        args.tenants, reservation=args.reservation, rate=args.rate,
        object_size=args.size, window=args.window,
    )
    result = run_qos(
        args.strategy, specs, seed=args.seed, duration=args.duration,
    )
    lines = [_render_qos(result), f"fingerprint: {result.fingerprint}"]
    code = 0
    if args.replay:
        rerun = run_qos(
            args.strategy, specs, seed=args.seed, duration=args.duration,
        )
        if rerun.fingerprint == result.fingerprint:
            lines.append("replay: identical fingerprint")
        else:
            lines.append(f"replay: MISMATCH {rerun.fingerprint}"
                         " — NON-DETERMINISTIC")
            code = 3
    _publish(args, f"qos_{args.strategy}", qos_payload(result))
    return "\n".join(lines), code


def _cmd_lint(args: argparse.Namespace) -> tuple[str, int]:
    """Static analysis + optional dynamic tie-order probe.

    Returns (report text, exit code): 3 when there are findings, or
    when the dynamic probe's FIFO control run fails to reproduce the
    native digest (a probe defect, not a model property)."""
    from . import lint as lintmod

    lines: list[str] = []
    if args.list_rules:
        for rule_code, rule in sorted(lintmod.RULES.items()):
            lines.append(f"{rule_code}  {rule.name} — {rule.description}")
        return "\n".join(lines), 0

    select = (
        [c.strip().upper() for c in args.select.split(",") if c.strip()]
        if args.select
        else None
    )
    report = lintmod.lint_paths(args.paths, select=select)
    lines.append(report.render())
    code = 3 if report.findings else 0

    if args.dynamic:
        tie = lintmod.check_tie_order(args.dynamic, seed=args.seed)
        lines.append(tie.render())
        if not tie.instrumentation_ok:
            code = 3

    return "\n".join(lines), code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DoCeph reproduction: regenerate the paper's "
                    "tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json-dir", default="benchmarks/results",
                       metavar="DIR",
                       help="directory for the result files")
        p.add_argument("--no-json", action="store_true",
                       help="skip writing the result files")

    for name in list(_EXPERIMENTS) + ["all"]:
        p = sub.add_parser(name, help=f"run {name}")
        p.add_argument("--duration", type=float, default=8.0,
                       help="measured simulated seconds per run")
        add_json_opts(p)

    bench = sub.add_parser("bench", help="one ad-hoc RADOS bench run")
    bench.add_argument("--mode", choices=["baseline", "doceph"],
                       default="doceph")
    bench.add_argument("--size", type=_parse_size, default=4 << 20,
                       help="object size (e.g. 4M, 512K)")
    bench.add_argument("--clients", type=int, default=16)
    bench.add_argument("--duration", type=float, default=8.0)
    bench.add_argument("--faults", default=None, metavar="SPEC",
                       help="fault plan, e.g. 'dma,p=0.3;rpc:reply_loss,"
                            "nth=5' (see repro.faults)")
    bench.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault plan's RNG streams")
    bench.add_argument("--trace", action="store_true",
                       help="attach the repro.trace tracer and print the "
                            "flame summary and trace fingerprint")
    bench.add_argument("--seed", type=int, default=0,
                       help="tracer ID-minting seed")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="write Chrome/Perfetto trace-event JSON here "
                            "(implies --trace)")
    bench.add_argument("--replay", action="store_true",
                       help="run twice and require identical trace "
                            "fingerprints (implies --trace; exit 3 on a "
                            "mismatch)")
    add_json_opts(bench)

    faults = sub.add_parser(
        "faults", help="§4 robustness: run DoCeph under a fault plan and"
                       " compare against fault-free")
    faults.add_argument("--plan", default="dma,p=0.3", metavar="SPEC",
                        help="fault plan spec (see repro.faults)")
    faults.add_argument("--fault-seed", type=int, default=0)
    faults.add_argument("--size", type=_parse_size, default=4 << 20)
    faults.add_argument("--clients", type=int, default=16)
    faults.add_argument("--duration", type=float, default=8.0)
    add_json_opts(faults)

    chaos = sub.add_parser(
        "chaos", help="cluster-level chaos: seeded OSD crash/restart and"
                      " partition schedules + acked-write durability check")
    chaos.add_argument("--mode", choices=["baseline", "doceph"],
                       default="baseline")
    chaos.add_argument("--seeds", default="0", metavar="N[,N...]",
                       help="comma-separated chaos schedule seeds")
    chaos.add_argument("--crashes", type=int, default=3,
                       help="OSD crash/restart incidents per run")
    chaos.add_argument("--partitions", type=int, default=1,
                       help="network partition incidents per run")
    chaos.add_argument("--duration", type=float, default=10.0,
                       help="write-workload seconds (the run extends "
                            "until the schedule completes and heals)")
    chaos.add_argument("--clients", type=int, default=2)
    chaos.add_argument("--size", type=_parse_size, default=1 << 20)
    chaos.add_argument("--replay", action="store_true",
                       help="run each seed twice and require identical "
                            "fingerprints")
    chaos.add_argument("--json", action="store_true",
                       help="also print each report as JSON")

    from .perf import SCENARIOS
    perf = sub.add_parser(
        "perf", help="replay a deterministic scenario and report its "
                     "behavior digest, event count and peak pending events")
    perf.add_argument("--scenario", choices=sorted(SCENARIOS),
                      default="fallback",
                      help="named workload from repro.perf.SCENARIOS")
    perf.add_argument("--seed", type=int, default=0,
                      help="fault-plan / tracer seed for the replay")
    perf.add_argument("--trace", action="store_true",
                      help="attach the tracer and report the trace "
                           "fingerprint (slower; separate golden)")

    fuzz = sub.add_parser(
        "fuzz", help="coverage-guided scenario fuzzing over the chaos/"
                     "durability oracle (exit 3 on violation, with the "
                     "shrunk minimal plan printed)")
    fuzz.add_argument("--seed", type=int, default=0,
                      help="session seed: same seed + iterations + corpus"
                           " replays the whole session bit-identically")
    fuzz.add_argument("--iterations", type=int, default=None,
                      help="fuzz iterations after corpus replay (default"
                           " 20; --soak is bounded by --time-budget alone"
                           " unless this is given)")
    fuzz.add_argument("--time-budget", type=float, default=None,
                      metavar="SECONDS",
                      help="wall-clock cutoff; stops drawing new "
                           "scenarios once exceeded")
    fuzz.add_argument("--corpus", default=None, metavar="DIR",
                      help="regression corpus directory: *.plan entries "
                           "are replayed first, shrunk violations are "
                           "written back")
    fuzz.add_argument("--replay", default=None, metavar="PLAN",
                      help="replay one textual scenario plan file and "
                           "exit (3 if it still violates)")
    fuzz.add_argument("--soak", action="store_true",
                      help="long-horizon mode: one time-budgeted session "
                           "with a fresh per-session seed, resuming "
                           "coverage/queue/signatures from --soak-state "
                           "(default budget 60s when --time-budget unset)")
    fuzz.add_argument("--soak-state", default="fuzz_soak_state.json",
                      metavar="FILE",
                      help="soak checkpoint path (coverage, mutation "
                           "queue, shrunk signatures, session history)")
    add_json_opts(fuzz)

    qos = sub.add_parser(
        "qos", help="multi-tenant open-loop serving under mClock QoS: "
                    "per-tenant reservations/weights/limits, admission "
                    "control, fairness metrics (exit 3 on --replay "
                    "fingerprint mismatch)")
    qos.add_argument("--strategy", choices=list(STRATEGY_NAMES),
                     default="full-osd",
                     help="offload strategy to serve the tenants with")
    qos.add_argument("--tenants", type=int, default=8,
                     help="tenant count (mixed personalities: weights "
                          "cycle 1-4, one bursty, one limit-capped)")
    qos.add_argument("--rate", type=float, default=250.0,
                     help="offered open-loop ops/s per tenant")
    qos.add_argument("--reservation", type=float, default=25.0,
                     help="reserved aggregate ops/s per tenant")
    qos.add_argument("--size", type=_parse_size, default=64 << 10,
                     help="object size (e.g. 4K, 64K)")
    qos.add_argument("--window", type=int, default=64,
                     help="per-tenant admission window (max in-flight)")
    qos.add_argument("--seed", type=int, default=0,
                     help="workload seed (same seed => same fingerprint)")
    qos.add_argument("--duration", type=float, default=10.0,
                     help="open-loop arrival window, simulated seconds")
    qos.add_argument("--replay", action="store_true",
                     help="run twice and require identical fingerprints")
    qos.add_argument("--sweep", action="store_true",
                     help="run the strategy crossover sweep "
                          "(experiment_qos) instead of one configuration")
    qos.add_argument("--strategies", default=",".join(STRATEGY_NAMES),
                     metavar="A,B,...",
                     help="strategies for --sweep")
    add_json_opts(qos)

    lint = sub.add_parser(
        "lint", help="determinism & sim-safety static analysis "
                     "(repro.lint; exit 3 on any finding)")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files/directories to check (default: src)")
    lint.add_argument("--select", default=None, metavar="CODES",
                      help="comma-separated rule codes to run "
                           "(default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--dynamic", default=None, metavar="SCENARIO",
                      choices=sorted(SCENARIOS),
                      help="also run the tie-order probe against a "
                           "repro.perf scenario and report "
                           "order-sensitive schedule sites")
    lint.add_argument("--seed", type=int, default=0,
                      help="scenario seed for --dynamic")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "all":
            print(_cmd_experiments(args, list(_EXPERIMENTS)))
        elif args.command == "bench":
            text, code = _cmd_bench(args)
            print(text)
            if code:
                return code  # 3 = replay fingerprint mismatch
        elif args.command == "faults":
            print(_cmd_faults(args))
        elif args.command == "chaos":
            text, ok = _cmd_chaos(args)
            print(text)
            if not ok:
                return 3  # durability violation or non-determinism
        elif args.command == "perf":
            print(_cmd_perf(args))
        elif args.command == "fuzz":
            text, code = _cmd_fuzz(args)
            print(text)
            if code:
                return code  # 3 = violation found / corpus regression
        elif args.command == "qos":
            text, code = _cmd_qos(args)
            print(text)
            if code:
                return code  # 3 = replay fingerprint mismatch
        elif args.command == "lint":
            text, code = _cmd_lint(args)
            print(text)
            if code:
                return code  # 3 = findings / probe defect
        else:
            print(_cmd_experiments(args, [args.command]))
    except ValueError as exc:
        # malformed --faults / --plan spec
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StorageError as exc:
        # Storage faults are fail-stop: BlueStore treats an I/O error as
        # fatal (like real Ceph's EIO assert), which aborts the run.
        print(f"simulation aborted: {exc}", file=sys.stderr)
        print("(storage faults are fail-stop — the affected OSD cannot "
              "recover; use dma/rpc/net faults for recoverable scenarios)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
