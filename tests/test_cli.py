"""Tests for the command-line interface."""

import argparse

import pytest

from repro.cli import _parse_size, build_parser, main


def test_parse_size_units():
    assert _parse_size("4M") == 4 << 20
    assert _parse_size("512K") == 512 * 1024
    assert _parse_size("1G") == 1 << 30
    assert _parse_size("1048576") == 1 << 20
    assert _parse_size("0.5M") == 512 * 1024
    assert _parse_size(" 2m ") == 2 << 20


def test_parse_size_rejects_garbage():
    with pytest.raises(argparse.ArgumentTypeError):
        _parse_size("lots")


def test_parser_requires_command():
    parser = build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args([])


def test_parser_accepts_all_experiments():
    parser = build_parser()
    for name in ("fig5", "fig6", "table2", "fig7", "fig8", "table3",
                 "fig9", "fig10", "all"):
        args = parser.parse_args([name, "--duration", "5"])
        assert args.command == name
        assert args.duration == 5.0


def test_all_runs_each_distinct_experiment_once(capsys, monkeypatch,
                                                tmp_path):
    """``all`` publishes the eight tables and figures under their names
    and calls each distinct experiment once: Fig. 5's two runs serve
    Figs. 5 and 6 and Table 2, and the one sweep serves the rest."""
    import repro.cli as cli

    calls = []
    stubs = {}
    table = {}
    for name, (experiment, _, _) in cli._EXPERIMENTS.items():
        if experiment not in stubs:
            def run(duration, label=experiment.__name__):
                calls.append(label)
                return label
            stubs[experiment] = run
        table[name] = (stubs[experiment], lambda result: {"of": result},
                       lambda result, name=name: f"{name} <- {result}")
    monkeypatch.setattr(cli, "_EXPERIMENTS", table)
    published = []
    monkeypatch.setattr(cli, "write_bench_json",
                        lambda name, payload, out_dir: published.append(name))

    assert main(["all", "--duration", "1", "--json-dir", str(tmp_path)]) == 0
    assert published == ["fig5", "fig6", "table2", "fig7", "fig8", "table3",
                         "fig9", "fig10"]
    assert sorted(calls) == ["experiment_fig5", "experiment_table3",
                             "run_comparison_sweep"]
    assert "table2 <- experiment_fig5" in capsys.readouterr().out


def test_table2_is_read_off_the_fig5_100g_row():
    from repro.bench import table2_dict
    from repro.bench.experiments import Fig5Row, Table2Result
    from repro.cli import _EXPERIMENTS

    def row(label, ctx_msgr, ctx_store):
        return Fig5Row(label, 0.0, 0.8, 0.1, 0.1, 50.0, 1e8, ctx_msgr,
                       ctx_store)

    experiment, payload, render = _EXPERIMENTS["table2"]
    rows = [row("1G", 10.0, 2.0), row("100G", 6000.0, 500.0)]
    assert experiment is _EXPERIMENTS["fig5"][0]
    assert payload(rows) == table2_dict(Table2Result(6000.0, 500.0))
    assert "6000/s" in render(rows) and "12.0x" in render(rows)


def test_bench_command_runs(capsys, tmp_path):
    code = main(["bench", "--mode", "baseline", "--size", "1M",
                 "--clients", "2", "--duration", "2",
                 "--json-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "iops:" in out
    assert "host CPU:" in out
    assert "mode=baseline" in out


def test_bench_command_writes_json(tmp_path):
    import json

    code = main(["bench", "--mode", "doceph", "--size", "1M",
                 "--clients", "2", "--duration", "2",
                 "--json-dir", str(tmp_path)])
    assert code == 0
    path = tmp_path / "BENCH_bench_doceph_1M.json"
    assert path.exists()
    doc = json.loads(path.read_text())
    assert doc["completed_ops"] > 0
    assert doc["latency_s"]["p99"] >= doc["latency_s"]["p50"]
    assert "ceph_breakdown" in doc["cpu"]


def test_bench_no_json(capsys, tmp_path):
    code = main(["bench", "--mode", "baseline", "--size", "1M",
                 "--clients", "2", "--duration", "2", "--no-json",
                 "--json-dir", str(tmp_path)])
    assert code == 0
    assert list(tmp_path.iterdir()) == []


def test_fig7_command_runs(capsys, tmp_path):
    import json

    code = main(["fig7", "--duration", "2", "--json-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "Fig. 7" in out
    assert "doceph(paper)" in out
    doc = json.loads((tmp_path / "BENCH_fig7.json").read_text())
    assert len(doc["points"]) == 4
    for point in doc["points"]:
        assert point["baseline"]["iops"] > 0
        assert point["doceph"]["cpu"]["host_utilization_pct"] < (
            point["baseline"]["cpu"]["host_utilization_pct"]
        )


def test_trace_command_runs(capsys, tmp_path):
    import json

    out_file = tmp_path / "trace.json"
    code = main(["trace", "--mode", "doceph", "--size", "1M",
                 "--clients", "2", "--duration", "2", "--replay",
                 "--out", str(out_file)])
    assert code == 0
    out = capsys.readouterr().out
    assert "trace fingerprint:" in out
    assert "replay: identical fingerprint" in out
    doc = json.loads(out_file.read_text())
    assert doc["traceEvents"]
    kinds = {ev["ph"] for ev in doc["traceEvents"]}
    assert {"X", "M", "s", "f"} <= kinds


def test_chaos_replay_reruns_the_same_seed(capsys):
    assert main(["chaos", "--seeds", "1", "--crashes", "1",
                 "--partitions", "0", "--duration", "2", "--clients", "1",
                 "--replay"]) == 0
    out = capsys.readouterr().out
    assert "(replay identical)" in out and "chaos: all seeds passed" in out


def test_qos_replay_reruns_the_same_seed(capsys):
    assert main(["qos", "--tenants", "2", "--rate", "40", "--duration", "1",
                 "--seed", "1", "--replay", "--no-json"]) == 0
    assert "replay: identical fingerprint" in capsys.readouterr().out


def test_lint_command_clean_tree_exits_zero(capsys, tmp_path):
    pkg = tmp_path / "repro" / "hw"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(
        "class Thing:\n    __slots__ = ('x',)\n", encoding="utf-8"
    )
    assert main(["lint", str(tmp_path)]) == 0
    assert "0 finding(s) in 1 file(s)" in capsys.readouterr().out


def test_lint_command_new_findings_exit_three(capsys, tmp_path):
    pkg = tmp_path / "repro" / "sim"
    pkg.mkdir(parents=True)
    (pkg / "bad.py").write_text(
        "import time\n\n"
        "class Hot:\n"
        "    def tick(self):\n"
        "        time.sleep(1)\n"
        "        return time.time()\n",
        encoding="utf-8",
    )
    assert main(["lint", str(tmp_path)]) == 3
    out = capsys.readouterr().out
    assert "DET101" in out
    assert "SIM201" in out
    assert "PERF301" in out


def test_lint_dynamic_fails_on_a_probe_defect_not_on_order_sensitivity(
    capsys, tmp_path, monkeypatch
):
    """``lint --dynamic`` exits 3 only when the FIFO control run misses
    the native digest; an order-sensitive scenario is reported, not
    failed.  Toy scenarios stand in for the named one."""
    import repro.lint as lintmod
    from repro.lint.dynamic import TieOrderReport
    from tests.test_lint import _run_order_sensitive

    real = lintmod.check_tie_order
    monkeypatch.setattr(
        lintmod, "check_tie_order",
        lambda scenario, seed=0: real(
            scenario, seed, runner=lambda name, s: _run_order_sensitive()),
    )
    assert main(["lint", str(tmp_path), "--dynamic", "smoke"]) == 0
    assert "verdict: ORDER-SENSITIVE" in capsys.readouterr().out

    monkeypatch.setattr(
        lintmod, "check_tie_order",
        lambda scenario, seed=0: TieOrderReport(
            scenario, seed, baseline_digest="a", fifo_digest="b",
            perturbed_digest="a", ties_seen=0),
    )
    assert main(["lint", str(tmp_path), "--dynamic", "smoke"]) == 3
    assert "MISMATCH — probe bug" in capsys.readouterr().out


def test_lint_shipped_tree_is_clean(capsys, monkeypatch, shipped_src_report):
    """``repro lint src`` exits 0 on the shipped tree.  The lint itself
    runs once per session (the ``shipped_src_report`` fixture); here the
    CLI renders that report and maps it to its exit code."""
    import repro.lint as lintmod

    calls = []

    def shipped_report(paths, select=None):
        calls.append((paths, select))
        return shipped_src_report

    monkeypatch.setattr(lintmod, "lint_paths", shipped_report)
    assert main(["lint", "src"]) == 0
    assert calls == [(["src"], None)]
    assert "0 finding(s)" in capsys.readouterr().out


def test_lint_list_rules(capsys):
    from repro.lint import RULES

    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_code in RULES:
        assert rule_code in out


def test_fuzz_replay_pass_and_violation_exit_codes(
    capsys, tmp_path, monkeypatch
):
    from repro.fuzz import Scenario, scenario_to_text
    from repro.fuzz.executor import ScenarioOutcome

    plan = tmp_path / "quiet.plan"
    plan.write_text(scenario_to_text(Scenario(duration=0.5)))
    assert main(["fuzz", "--replay", str(plan), "--no-json"]) == 0
    out = capsys.readouterr().out
    assert "replay: pass" in out

    def fake_execute(scenario, tracer_seed=0):
        return ScenarioOutcome(
            scenario=scenario,
            violations=("obj-1: acked write missing (stat result -2)",),
            coverage=frozenset({"mode.baseline"}),
            fingerprint="x",
            aborted="",
        )

    monkeypatch.setattr("repro.fuzz.execute_scenario", fake_execute)
    assert main(["fuzz", "--replay", str(plan), "--no-json"]) == 3
    out = capsys.readouterr().out
    assert "VIOLATION" in out and "[missing]" in out


def test_fuzz_replay_bad_plan_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.plan"
    bad.write_text("mode=warp9\n")
    assert main(["fuzz", "--replay", str(bad), "--no-json"]) == 2
    assert main(["fuzz", "--replay", str(tmp_path / "absent.plan"),
                 "--no-json"]) == 2


def test_fuzz_session_writes_json_and_prints_fingerprint(
    capsys, tmp_path, monkeypatch
):
    import json

    from repro.fuzz.executor import ScenarioOutcome

    def fake_execute(scenario, tracer_seed=0):
        return ScenarioOutcome(
            scenario=scenario,
            violations=(),
            coverage=frozenset({f"mode.{scenario.mode}"}),
            fingerprint="x",
            aborted="",
            writes_acked=1,
        )

    monkeypatch.setattr("repro.fuzz.executor.execute_scenario",
                        fake_execute)
    monkeypatch.setattr("repro.fuzz.fuzzer.execute_scenario",
                        fake_execute)
    code = main(["fuzz", "--seed", "4", "--iterations", "3",
                 "--json-dir", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "fuzz fingerprint:" in out
    assert "no violations" in out
    payload = json.loads(
        (tmp_path / "BENCH_fuzz_seed4.json").read_text()
    )
    assert payload["passed"] is True
    assert payload["iterations_run"] == 3


class _SoakCalled(Exception):
    pass


@pytest.mark.parametrize("argv, iterations", [
    pytest.param([], None, id="time-only"),
    pytest.param(["--iterations", "7"], 7, id="explicit"),
])
def test_fuzz_soak_is_bounded_by_time_unless_iterations_given(
    monkeypatch, tmp_path, argv, iterations
):
    """``--iterations``' plain-fuzz default of 20 must not cap a soak
    session: only the time budget bounds it."""
    seen = {}

    def fake_run_soak(**kwargs):
        seen.update(kwargs)
        raise _SoakCalled

    monkeypatch.setattr("repro.fuzz.run_soak", fake_run_soak)
    with pytest.raises(_SoakCalled):
        main(["fuzz", "--soak", "--time-budget", "5", "--soak-state",
              str(tmp_path / "state.json"), "--no-json", *argv])
    assert seen["time_budget"] == 5.0
    assert seen.get("iterations") == iterations
