"""Pair two commits on one end-to-end metric of the benchmark.

    python3 benchmarks/pair.py PARENT CHANGE --workload W --metric rss \\
        [--rounds N]

Both commits are checked out with ``git worktree`` into a temporary
directory, removed afterwards; fresh checkouts hold no ``__pycache__``,
so neither side starts with compiled bytecode the other lacks.  The
script refuses (exit 2) unless ``benchmarks/e2e/`` and
``BENCHMARK.json`` are byte-identical at both commits: the harness is
the instrument and must not differ between the sides.

``rss`` runs one fresh, unmodified ``benchmarks/e2e/run.py --workload
W`` per sample, because ``ru_maxrss`` only grows within a process.
Each round runs both sides, and the side that goes first alternates.
A round whose sides disagree on ``golden_match`` or on any of the six
simulated metrics aborts the pairing (exit 3): that is a behaviour
change, not a speed result.

Every metric it pairs is better when lower.  The verdict gives the
median change/parent ratio, its quartiles, wins/N, an exact two-sided
sign-test p and the rule below.  One JSON document,
``benchmarks/results/BENCH_pair_<workload>_<metric>_<change>.json``,
keeps the commits, the machine, the method and every sample.  The
``cpu`` and ``wall`` modes (long-lived workers with an A/A control) are
not built yet.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Callable

ROOT = pathlib.Path(__file__).resolve().parents[1]
RESULTS = ROOT / "benchmarks" / "results"

#: The harness both sides must share, byte for byte.
HARNESS = ("benchmarks/e2e", "BENCHMARK.json")

#: ``--metric`` → the end-to-end metric ``run.py`` prints.
METRICS = {"rss": "peak_rss_mb"}

#: Simulated outputs that must be equal on both sides of every round.
SIMULATED = ("events_per_op", "sim_iops", "sim_lat_p50_ms",
             "sim_lat_p99_ms", "sim_host_cpu_pct", "ops_ok_pct")

RULE = (
    "resolved = the change reads lower in >= 9 of 10 pairs (>= 0.9 n) "
    "and its median differs from the parent's by more than the parent's "
    "q3 - q1; quartiles are statistics.quantiles(method='inclusive'); "
    "the sign test is exact and two-sided over pairs that are not tied"
)

Sample = dict


class Refused(Exception):
    """The two trees cannot be paired (exit 2)."""


class BehaviourChanged(Exception):
    """The sides of a round disagree on a simulated output (exit 3)."""


# ------------------------------------------------------------------ verdict


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p for ``wins`` against ``losses``."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(max(wins, losses), n + 1))
    return min(1.0, 2 * tail / 2 ** n)


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float]) -> dict:
    """Judge paired samples (``parent[i]`` ran beside ``change[i]``) of
    a lower-is-better metric."""
    if not parent or len(parent) != len(change):
        raise ValueError("need one change sample per parent sample")
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    n = len(parent)
    a, b = _quartiles(parent), _quartiles(change)
    gap = abs(b["median"] - a["median"]) > a["q3"] - a["q1"]
    if wins >= 0.9 * n and gap:
        word = "resolved lower"
    elif losses >= 0.9 * n and gap:
        word = "resolved higher"
    else:
        word = "not resolved"
    return {
        "n": n, "wins": wins, "losses": losses, "ties": n - wins - losses,
        "sign_test_p": sign_test_p(wins, losses),
        "parent": a, "change": b,
        "median_ratio": b["median"] / a["median"],
        "pair_ratios": _quartiles([c / p for p, c in zip(parent, change)]),
        "verdict": word,
    }


# ------------------------------------------------------------------ pairing


def parse_run(stdout: str, returncode: int) -> Sample:
    """One ``run.py`` output → the fields a pair compares."""
    lines = stdout.splitlines()
    golden = [ln for ln in lines if ln.startswith("golden_match=")]
    try:
        doc = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise BehaviourChanged(
            f"run.py printed no result (exit {returncode})") from None
    values = {k: m["value"] for k, m in doc["metrics"].items()}
    return {
        "exit": returncode,
        "golden_match": int(golden[0].split("=", 1)[1]) if golden else None,
        "attempted": doc["attempted"], "failed": doc["failed"],
        "metrics": values,
    }


def run_pairs(sample: Callable[[str], Sample], rounds: int) -> list[dict]:
    """``rounds`` rounds of both sides, alternating which goes first."""
    out = []
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        got = {side: sample(side) for side in order}
        a, b = got["parent"], got["change"]
        moved = [k for k in SIMULATED if a["metrics"][k] != b["metrics"][k]]
        if a["golden_match"] != b["golden_match"] or moved:
            raise BehaviourChanged(
                f"round {r}: golden_match {a['golden_match']} vs "
                f"{b['golden_match']}, moved {moved or 'nothing else'}")
        out.append({"round": r, "first": order[0], **got})
    return out


def document(label: str, workload: str, metric: str,
             commits: dict[str, str], samples: list[dict]) -> dict:
    """The one schema every pairing writes."""
    name = METRICS[metric]
    parent = [s["parent"]["metrics"][name] for s in samples]
    change = [s["change"]["metrics"][name] for s in samples]
    return {
        "schema": "pair/1",
        "label": label,
        "workload": workload,
        "metric": name,
        "commits": commits,
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "method": (
            f"one fresh, unmodified `python3 benchmarks/e2e/run.py "
            f"--workload {workload}` per sample, in a git worktree of each "
            f"commit; {len(samples)} rounds, the first side alternating; "
            f"golden_match and {', '.join(SIMULATED)} equal on both sides "
            f"of every round"),
        "rule": RULE,
        "samples": samples,
        "verdict": verdict(parent, change),
    }


# ------------------------------------------------------------------ trees


def _git(root: pathlib.Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def resolve(root: pathlib.Path, commit: str) -> str:
    try:
        return _git(root, "rev-parse", "--verify", f"{commit}^{{commit}}")
    except subprocess.CalledProcessError:
        raise Refused(f"not a commit: {commit}") from None


def check_same_harness(root: pathlib.Path, parent: str, change: str) -> None:
    """Refuse unless the harness is byte-identical at both commits."""
    differ = _git(root, "diff", "--name-only", parent, change, "--", *HARNESS)
    if differ:
        raise Refused("the harness differs between the commits: "
                      + ", ".join(differ.splitlines()))


def run_sample(tree: pathlib.Path, workload: str) -> Sample:
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", workload],
        cwd=tree, capture_output=True, text=True)
    return parse_run(proc.stdout, proc.returncode)


def pair(root: pathlib.Path, parent: str, change: str, workload: str,
         metric: str, rounds: int) -> dict:
    commits = {"parent": resolve(root, parent), "change": resolve(root, change)}
    check_same_harness(root, commits["parent"], commits["change"])
    label = f"{workload}_{metric}_{commits['change'][:7]}"
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="pair-"))
    trees = {side: tmp / side for side in commits}
    try:
        for side, sha in commits.items():
            _git(root, "worktree", "add", "--detach", str(trees[side]), sha)
            if any(trees[side].rglob("__pycache__")):
                raise Refused(f"{side} worktree holds compiled bytecode")

        def sample(side: str) -> Sample:
            got = run_sample(trees[side], workload)
            print(f"  {side:6s} {METRICS[metric]}="
                  f"{got['metrics'][METRICS[metric]]}", file=sys.stderr)
            return got

        samples = run_pairs(sample, rounds)
    finally:
        for tree in trees.values():
            if tree.exists():
                _git(root, "worktree", "remove", "--force", str(tree))
        shutil.rmtree(tmp, ignore_errors=True)
        _git(root, "worktree", "prune")
    return document(label, workload, metric, commits, samples)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--metric", choices=sorted(METRICS), required=True)
    p.add_argument("--rounds", type=int, default=10)
    args = p.parse_args(argv)
    try:
        doc = pair(ROOT, args.parent, args.change, args.workload,
                   args.metric, args.rounds)
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except BehaviourChanged as exc:
        print(f"aborted: behaviour changed: {exc}", file=sys.stderr)
        return 3
    label = doc["label"]
    out = RESULTS / f"BENCH_pair_{label}.json"
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    v = doc["verdict"]
    print(f"{label}: {doc['metric']} median "
          f"{v['parent']['median']:.4g} -> {v['change']['median']:.4g} "
          f"(ratio {v['median_ratio']:.4f}, pair ratios q1 "
          f"{v['pair_ratios']['q1']:.4f} q3 {v['pair_ratios']['q3']:.4f}), "
          f"{v['wins']}/{v['n']} lower, sign p "
          f"{v['sign_test_p']:.4g}: {v['verdict']}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
