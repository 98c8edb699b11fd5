"""``benchmarks/pair.py``: its verdict, its schema and its refusals,
against a stub worker instead of real benchmark runs."""

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
