"""``benchmarks/pair.py``: its verdict, its schema, its rotation and
its refusals, against stub workers instead of real benchmark runs."""

from __future__ import annotations

import importlib.util
import json
import pathlib
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def pair():
    path = ROOT / "benchmarks" / "pair.py"
    spec = importlib.util.spec_from_file_location("pair", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stub(pair, rss: dict[str, list[float]], **moved):
    """A worker that answers each side's samples in turn; ``moved``
    overrides simulated metrics on the change side."""
    calls = []
    left = {side: list(values) for side, values in rss.items()}

    def sample(side):
        calls.append(side)
        metrics = {k: 1.0 for k in pair.SIMULATED}
        metrics["peak_rss_mb"] = left[side].pop(0)
        if side == "change":
            metrics.update(moved)
        return {"exit": 0, "golden_match": 1, "attempted": 10, "failed": 0,
                "metrics": metrics}

    return sample, calls


def test_sign_test_p_is_exact(pair):
    assert pair.sign_test_p(10, 0) == 2 / 1024
    assert pair.sign_test_p(0, 10) == 2 / 1024
    assert pair.sign_test_p(9, 1) == 2 * 11 / 1024
    assert pair.sign_test_p(5, 5) == 1.0
    assert pair.sign_test_p(0, 0) == 1.0


def test_clear_gain_is_resolved_and_the_schema_holds(pair):
    parent = [29.38, 29.44, 29.38, 29.41, 29.40, 29.39, 29.42, 29.38,
              29.45, 29.40]
    change = [v - 3.6 for v in parent]
    change[3] = 29.5  # one lost pair still resolves (9/10)
    sample, calls = _stub(pair, {"parent": parent, "change": change})
    samples = pair.run_pairs(sample, rounds=10)
    assert calls[:4] == ["parent", "change", "change", "parent"]
    doc = pair.document("w4m_doceph_rss_bbbbbbb", "w4m_doceph", "rss",
                        {"parent": "a" * 40, "change": "b" * 40}, samples)
    doc = json.loads(json.dumps(doc))
    assert {"schema", "label", "workload", "metric", "commits",
            "machine", "method", "rule", "samples", "verdict"} <= set(doc)
    assert doc["schema"] == "pair/1" and doc["metric"] == "peak_rss_mb"
    assert [s["first"] for s in doc["samples"][:2]] == ["parent", "change"]
    v = doc["verdict"]
    assert (v["wins"], v["losses"], v["n"]) == (9, 1, 10)
    assert v["sign_test_p"] == pytest.approx(22 / 1024)
    assert v["verdict"] == "resolved lower"
    assert v["median_ratio"] < 0.9
    assert v["parent"]["q1"] <= v["parent"]["median"] <= v["parent"]["q3"]


def test_noise_is_not_resolved(pair):
    parent = [29.4, 29.5, 29.3, 29.4, 29.6, 29.4, 29.3, 29.5, 29.4, 29.4]
    change = [29.5, 29.3, 29.4, 29.4, 29.5, 29.3, 29.4, 29.6, 29.3, 29.5]
    v = pair.verdict(parent, change)
    assert v["verdict"] == "not resolved" and v["ties"] == 1


def test_consistent_regression_is_resolved_higher(pair):
    parent = [10.0 + 0.01 * i for i in range(10)]
    v = pair.verdict(parent, [p * 1.2 for p in parent])
    assert (v["losses"], v["verdict"]) == (10, "resolved higher")


def test_a_moved_simulated_metric_aborts(pair):
    sample, _ = _stub(pair, {"parent": [29.4] * 4, "change": [25.8] * 4},
                      sim_iops=1.5)
    with pytest.raises(pair.BehaviourChanged, match="sim_iops"):
        pair.run_pairs(sample, rounds=4)


def test_parse_run_reads_the_last_json_line(pair):
    out = ("workload=w seed=0\ngolden_match=1\nmetric peak_rss_mb 25.8 MB\n"
           + json.dumps({"correct": True, "attempted": 9, "failed": 1,
                         "metrics": {"peak_rss_mb": {"value": 25.8,
                                                     "unit": "MB"}}}))
    got = pair.parse_run(out, 0)
    assert got == {"exit": 0, "golden_match": 1, "attempted": 9,
                   "failed": 1, "metrics": {"peak_rss_mb": 25.8}}
    with pytest.raises(pair.BehaviourChanged):
        pair.parse_run("Traceback ...\n", 1)


def test_refuses_unless_the_harness_is_identical(pair, tmp_path):
    def git(*args):
        subprocess.run(["git", "-C", str(tmp_path), *args], check=True,
                       capture_output=True)

    git("init", "-q")
    git("config", "user.email", "t@example.com")
    git("config", "user.name", "t")
    (tmp_path / "benchmarks" / "e2e").mkdir(parents=True)
    (tmp_path / "BENCHMARK.json").write_text("{}\n")
    (tmp_path / "benchmarks" / "e2e" / "run.py").write_text("# v1\n")
    (tmp_path / "model.py").write_text("x = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "a")
    (tmp_path / "model.py").write_text("x = 2\n")
    git("commit", "-q", "-am", "b")
    (tmp_path / "benchmarks" / "e2e" / "run.py").write_text("# v2\n")
    git("commit", "-q", "-am", "c")
    a, b, c = (pair.resolve(tmp_path, f"HEAD~{k}") for k in (2, 1, 0))
    pair.check_same_harness(tmp_path, a, b)
    with pytest.raises(pair.Refused, match="benchmarks/e2e/run.py"):
        pair.check_same_harness(tmp_path, a, c)
    with pytest.raises(pair.Refused, match="not a commit"):
        pair.resolve(tmp_path, "no-such-ref")


def test_export_writes_the_commits_files(pair, tmp_path):
    repo = tmp_path / "repo"
    repo.mkdir()
    for args in (("init", "-q"), ("config", "user.email", "t@example.com"),
                 ("config", "user.name", "t")):
        subprocess.run(["git", "-C", str(repo), *args], check=True)
    (repo / "pkg").mkdir()
    (repo / "pkg" / "a.py").write_text("x = 1\n")
    subprocess.run(["git", "-C", str(repo), "add", "-A"], check=True)
    subprocess.run(["git", "-C", str(repo), "commit", "-q", "-m", "a"],
                   check=True)
    (repo / "pkg" / "a.py").write_text("x = 2\n")
    pair.export(repo, "HEAD", tmp_path / "out")
    assert (tmp_path / "out" / "pkg" / "a.py").read_text() == "x = 1\n"


def test_a_sample_no_larger_than_the_launcher_is_refused(pair):
    """A launched program's ``ru_maxrss`` starts from the launcher's
    peak, so a sample that reads no more than it measured nothing."""
    sample = {"metrics": {"peak_rss_mb": 20.0}}
    assert pair.above_launcher(sample, 19.5) is sample
    with pytest.raises(pair.Refused, match="launcher"):
        pair.above_launcher(sample, 20.0)


def _turns(pair, cpu: dict[str, list[float]], digest=None):
    """A cpu/wall turn per worker, answered in turn from ``cpu``;
    ``digest`` overrides one worker's replay digest."""
    calls = []
    left = {side: list(values) for side, values in cpu.items()}

    def turn(side):
        calls.append(side)
        metrics = {k: 1.0 for k in pair.SIMULATED}
        metrics["cpu_s"] = metrics["wall_s"] = left[side].pop(0)
        d = (digest or {}).get(side, "d" * 64)
        return {"digest": d, "events": 10, "metrics": metrics}

    return turn, calls


def test_the_order_rotates_one_worker_every_round(pair):
    turn, calls = _turns(pair, {s: [1.0] * 4 for s in pair.WORKERS})
    samples = pair.run_rotated(turn, rounds=4)
    a, b, a2 = pair.WORKERS
    assert calls == [a, b, a2, b, a2, a, a2, a, b, a, b, a2]
    assert [s["order"][0] for s in samples] == [a, b, a2, a]
    doc = pair.document("w_cpu_ccccccc", "w", "cpu",
                        {"parent": "a" * 40, "change": "c" * 40}, samples)
    doc = json.loads(json.dumps(doc))
    assert doc["schema"] == "pair/1" and doc["metric"] == "cpu_s"
    assert "parent2" in doc["samples"][0] and "aa_ratios" in doc["verdict"]


def test_a_worker_that_replays_differently_aborts(pair):
    turn, _ = _turns(pair, {s: [1.0] * 3 for s in pair.WORKERS},
                     digest={"parent2": "e" * 64})
    with pytest.raises(pair.BehaviourChanged, match="parent2.*digest"):
        pair.run_rotated(turn, rounds=3)


def test_the_aa_spread_holds_back_a_verdict_inside_it(pair):
    """Ten pairs slower by ~8 % resolve as higher against a quiet A/A
    control, and do not when the A/A ratios spread as wide."""
    parent = [1.0 + 0.004 * i for i in range(10)]
    change = [p * 1.08 for p in parent]
    quiet = [p * r for p, r in zip(parent, [1.0, 1.01, 0.99] * 3 + [1.0])]
    loud = [p * r for p, r in zip(parent, [0.9, 1.12, 1.0] * 3 + [1.0])]
    v = pair.verdict(parent, change, quiet)
    assert v["verdict"] == "resolved higher"
    assert v["aa_ratios"]["q3"] < v["pair_ratios"]["median"]
    v = pair.verdict(parent, change, loud)
    assert v["losses"] == 10 and v["verdict"] == "not resolved"
    assert v["aa_ratios"]["q1"] <= v["pair_ratios"]["median"] \
        <= v["aa_ratios"]["q3"]
    assert pair.verdict(parent, change)["verdict"] == "resolved higher"


def test_a_worker_process_answers_one_turn_per_line(pair, tmp_path):
    """The real worker protocol, against a stub harness that replays in
    no time: one JSON line per turn, with its digest and metrics."""
    e2e = tmp_path / "benchmarks" / "e2e"
    e2e.mkdir(parents=True)
    (tmp_path / "src").mkdir()
    (e2e / "harness.py").write_text("def verify_tree():\n    return 'pure'\n")
    (e2e / "spans.py").write_text("class SpanLog:\n    pass\n")
    (e2e / "workloads.py").write_text(
        "class R:\n    digest = 'f' * 64\n    events = 7\n"
        "    wall_s = 0.25\n"
        "WORKLOADS = {'w': 'w'}\n"
        "def replay(w, seed, log, replay_id, duration):\n"
        "    assert duration == 5.0\n    return R()\n")
    sim = ", ".join(f"{k!r}: 2.0" for k in pair.SIMULATED)
    (e2e / "metrics.py").write_text(
        f"def simulated(w, r):\n    return {{{sim}, 'sim_s': 5.0}}\n")
    worker = pair.Worker(tmp_path, "w")
    try:
        got = [worker.turn() for _ in range(2)]
    finally:
        worker.close()
    assert worker.proc.returncode == 0
    for turn in got:
        assert turn["digest"] == "f" * 64 and turn["events"] == 7
        assert turn["metrics"]["wall_s"] == 0.25
        assert turn["metrics"]["cpu_s"] >= 0.0
        assert all(turn["metrics"][k] == 2.0 for k in pair.SIMULATED)


def test_a_steady_slowdown_resolves_through_round_drift(pair):
    """9 of 10 rounds 9-14 % slower, while the host drifts +-15 % from
    round to round: the parent's spread across rounds swallows the gap
    in medians, but the per-round ratios sit clear of the A/A spread."""
    parent = [1.00, 1.30, 0.95, 1.25, 1.05, 1.35, 0.98, 1.20, 1.10, 1.28]
    slower = [1.09, 1.12, 1.14, 1.10, 1.11, 1.13, 1.09, 0.97, 1.12, 1.14]
    aa = [0.97, 1.03, 1.00, 0.98, 1.02, 1.04, 0.99, 1.01, 0.96, 1.03]
    change = [p * r for p, r in zip(parent, slower)]
    control = [p * r for p, r in zip(parent, aa)]
    v = pair.verdict(parent, change, control)
    assert (v["losses"], v["verdict"]) == (9, "resolved higher")
    assert v["pair_ratios"]["q1"] > v["aa_ratios"]["q3"]
    # the gap in medians is inside the parent's q1..q3 spread
    assert (v["change"]["median"] - v["parent"]["median"]
            < v["parent"]["q3"] - v["parent"]["q1"])


def test_head_against_head_is_not_resolved(pair):
    """Two workers of one tree: the change worker reads slower in all
    ten rounds (placement), exactly as the A/A worker does."""
    parent = [1.00, 1.30, 0.95, 1.25, 1.05, 1.35, 0.98, 1.20, 1.10, 1.28]
    same = [1.05, 1.08, 1.04, 1.09, 1.06, 1.03, 1.07, 1.05, 1.08, 1.04]
    aa = [1.06, 1.04, 1.09, 1.03, 1.08, 1.05, 1.07, 1.10, 1.04, 1.06]
    v = pair.verdict(parent, [p * r for p, r in zip(parent, same)],
                     [p * r for p, r in zip(parent, aa)])
    assert v["losses"] == 10 and v["verdict"] == "not resolved"


def test_a_digest_mismatch_exits_three(pair, monkeypatch, capsys):
    """The whole command, with stub workers: the change side replays a
    different digest, so the pairing aborts with exit 3."""

    class StubWorker:
        def __init__(self, tree, workload):
            self.side = tree.name

        def turn(self):
            metrics = {k: 1.0 for k in pair.SIMULATED}
            metrics["cpu_s"] = metrics["wall_s"] = 1.0
            digest = ("e" if self.side == "change" else "d") * 64
            return {"digest": digest, "events": 10, "metrics": metrics}

        def close(self):
            pass

    monkeypatch.setattr(pair, "resolve", lambda root, commit: commit * 40)
    monkeypatch.setattr(pair, "check_same_harness", lambda root, a, b: None)
    monkeypatch.setattr(pair, "export",
                        lambda root, sha, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(pair, "Worker", StubWorker)
    code = pair.main(["a", "b", "--workload", "w", "--metric", "cpu",
                      "--rounds", "2"])
    assert code == 3
    assert "digest" in capsys.readouterr().err


def test_a_repeat_pairing_keeps_the_earlier_document(pair, monkeypatch,
                                                     tmp_path, capsys):
    """Pairing the same change twice writes a second document beside the
    first instead of over it, and prints where it went."""

    class StubWorker:
        def __init__(self, tree, workload):
            pass

        def turn(self):
            metrics = {k: 1.0 for k in pair.SIMULATED}
            metrics["cpu_s"] = metrics["wall_s"] = 1.0
            return {"digest": "d" * 64, "events": 10, "metrics": metrics}

        def close(self):
            pass

    monkeypatch.setattr(pair, "ROOT", tmp_path)
    monkeypatch.setattr(pair, "RESULTS", tmp_path)
    monkeypatch.setattr(pair, "resolve", lambda root, commit: commit * 40)
    monkeypatch.setattr(pair, "check_same_harness", lambda root, a, b: None)
    monkeypatch.setattr(pair, "export",
                        lambda root, sha, dest: dest.mkdir(parents=True))
    monkeypatch.setattr(pair, "Worker", StubWorker)
    argv = ["a", "b", "--workload", "w", "--metric", "cpu", "--rounds", "2"]
    names = [f"BENCH_pair_w_cpu_bbbbbbb{tail}.json"
             for tail in ("", "_2", "_3")]
    for n in range(3):
        assert pair.main(argv) == 0
        assert f"wrote {names[n]}" in capsys.readouterr().out
    assert sorted(p.name for p in tmp_path.glob("*.json")) == sorted(names)
    first = json.loads((tmp_path / names[0]).read_text())
    assert first["commits"]["change"] == "b" * 40
