"""Pair two commits on one end-to-end metric of the benchmark.

    python3 benchmarks/pair.py PARENT CHANGE --workload W \\
        --metric cpu|wall|rss [--rounds N]

Each commit is exported with ``git archive`` into a temporary
directory, removed afterwards; a fresh export holds no ``__pycache__``,
so neither side starts with compiled bytecode the other lacks.  The
script refuses (exit 2) unless ``benchmarks/e2e/`` and
``BENCHMARK.json`` are byte-identical at both commits: the harness is
the instrument and must not differ between the sides.

``cpu`` and ``wall`` run three long-lived workers, each a process that
imports its own export's unmodified ``benchmarks/e2e`` harness: A
(``parent``), B (``change``) and A2 (``parent2``, a second export of
the parent: the A/A control).  A round gives each worker one turn, and
the order rotates by one worker every round.  A turn is one discarded
and one measured :data:`REPLAY_SIM_S` replay of the workload at seed 0;
``cpu`` is the measured replay's process time, ``wall`` its
``wall_s`` (build + boot + drive, as ``run.py`` times it).  Samples
are seconds of host time per replay.  Every worker runs under the same
:data:`HASH_SEED`, so string-hash randomisation is not one of the ways
two workers differ.  What is left of the setup's bias (memory layout,
placement) is what the A/A worker measures: two workers of one tree
have read up to 11 % apart over a whole pairing on a shared 2-core host.

``rss`` runs one fresh, unmodified ``benchmarks/e2e/run.py --workload
W`` per sample, because ``ru_maxrss`` only grows within a process.
Each round runs both sides, and the side that goes first alternates.
A launched program's ``ru_maxrss`` starts from its launcher's peak, so
the script keeps its own peak small and refuses (exit 2) a sample that
reads no more than it.

A round whose sides disagree on the replay digest (cpu, wall), on
``golden_match`` (rss) or on any of the six simulated metrics aborts
the pairing (exit 3): that is a behaviour change, not a speed result.

Every metric it pairs is better when lower.  The verdict gives the
median change/parent ratio, the quartiles of the per-round ratios,
wins/N, an exact two-sided sign-test p and the rule below; with an A/A
control, also the quartiles of the per-round A2/A ratio (the A/A
spread).  The rule reads the per-round ratios only: a pairing's rounds
drift together, so the parent's spread across rounds is not the noise
of one pair.  One JSON document,
``benchmarks/results/BENCH_pair_<workload>_<metric>_<change>.json``,
keeps the commits, the machine, the method and every sample; a repeat
pairing of the same change writes ``…_2.json``, ``…_3.json`` and so
on, never over an earlier one.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from typing import Callable, Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
HERE = pathlib.Path(__file__).resolve().parent
RESULTS = ROOT / "benchmarks" / "results"

#: The harness every side must share, byte for byte.
HARNESS = ("benchmarks/e2e", "BENCHMARK.json")

#: ``--metric`` → the name the samples and the JSON document use.
METRICS = {"rss": "peak_rss_mb", "cpu": "cpu_s", "wall": "wall_s"}

#: Simulated outputs that must be equal on every side of every round.
SIMULATED = ("events_per_op", "sim_iops", "sim_lat_p50_ms",
             "sim_lat_p99_ms", "sim_host_cpu_pct", "ops_ok_pct")

#: Simulated seconds of every replay a cpu/wall worker runs, the length
#: of ``run.py``'s timing replays (``harness.HOST_SIM_S``).
REPLAY_SIM_S = 5.0

#: The cpu/wall workers, in the order of round 0.
WORKERS = ("parent", "change", "parent2")

#: ``PYTHONHASHSEED`` of every cpu/wall worker.
HASH_SEED = "0"

RULE = (
    "resolved higher = the change reads higher in >= 9 of 10 rounds "
    "(>= 0.9 n) and the q1 of the per-round change/parent ratios lies "
    "above the q3 of the reference ratios; resolved lower = it reads "
    "lower in >= 0.9 n rounds and the ratios' q3 lies below the "
    "reference q1.  The reference ratios are the per-round "
    "parent2/parent ratios (the A/A control) where there is one, else "
    "(rss) each parent sample over the parent median; quartiles are "
    "statistics.quantiles(method='inclusive'); the sign test is exact "
    "and two-sided over pairs that are not tied"
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


def verdict(parent: list[float], change: list[float],
            control: Optional[list[float]] = None) -> dict:
    """Judge paired samples (``parent[i]`` ran beside ``change[i]`` and,
    if given, ``control[i]``, a second run of the parent) of a
    lower-is-better metric."""
    if not parent or len(parent) != len(change):
        raise ValueError("need one change sample per parent sample")
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    n = len(parent)
    a, b = _quartiles(parent), _quartiles(change)
    ratios = _quartiles([c / p for p, c in zip(parent, change)])
    aa = None
    if control is not None:
        if len(control) != n:
            raise ValueError("need one control sample per parent sample")
        aa = ref = _quartiles([c / p for p, c in zip(parent, control)])
    else:
        ref = _quartiles([p / a["median"] for p in parent])
    if wins >= 0.9 * n and ratios["q3"] < ref["q1"]:
        word = "resolved lower"
    elif losses >= 0.9 * n and ratios["q1"] > ref["q3"]:
        word = "resolved higher"
    else:
        word = "not resolved"
    out = {
        "n": n, "wins": wins, "losses": losses, "ties": n - wins - losses,
        "sign_test_p": sign_test_p(wins, losses),
        "parent": a, "change": b,
        "median_ratio": b["median"] / a["median"],
        "pair_ratios": ratios,
        "verdict": word,
    }
    if aa is not None:
        out["aa_ratios"] = aa
    return out


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


def _check_same(r: int, got: dict[str, Sample]) -> None:
    """Abort unless every side of round ``r`` simulated the same thing."""
    sides = list(got)
    first = got[sides[0]]
    for side in sides[1:]:
        other = got[side]
        moved = [k for k in SIMULATED
                 if first["metrics"][k] != other["metrics"][k]]
        for key in ("golden_match", "digest"):
            if first.get(key) != other.get(key):
                moved.insert(0, key)
        if moved:
            raise BehaviourChanged(
                f"round {r}: {side} differs from {sides[0]} in "
                + ", ".join(moved))


def run_pairs(sample: Callable[[str], Sample], rounds: int) -> list[dict]:
    """``rounds`` rounds of both sides, alternating which goes first."""
    out = []
    for r in range(rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        got = {side: sample(side) for side in order}
        _check_same(r, {side: got[side] for side in ("parent", "change")})
        out.append({"round": r, "first": order[0], **got})
    return out


def rotation(r: int) -> tuple[str, ...]:
    """The order of the workers' turns in round ``r``."""
    k = r % len(WORKERS)
    return WORKERS[k:] + WORKERS[:k]


def run_rotated(turn: Callable[[str], Sample], rounds: int) -> list[dict]:
    """``rounds`` rounds of one turn per worker, in :func:`rotation`
    order."""
    out = []
    for r in range(rounds):
        order = rotation(r)
        got = {side: turn(side) for side in order}
        _check_same(r, {side: got[side] for side in WORKERS})
        out.append({"round": r, "order": list(order), **got})
    return out


def document(label: str, workload: str, metric: str,
             commits: dict[str, str], samples: list[dict]) -> dict:
    """The one schema every pairing writes."""
    name = METRICS[metric]
    parent = [s["parent"]["metrics"][name] for s in samples]
    change = [s["change"]["metrics"][name] for s in samples]
    if metric == "rss":
        control = None
        method = (
            f"one fresh, unmodified `python3 benchmarks/e2e/run.py "
            f"--workload {workload}` per sample, in a `git archive` export "
            f"of each commit; {len(samples)} rounds, the first side "
            f"alternating; golden_match and {', '.join(SIMULATED)} equal "
            f"on both sides of every round")
    else:
        control = [s["parent2"]["metrics"][name] for s in samples]
        method = (
            f"three long-lived workers (parent, change, parent2 = the A/A "
            f"control), each importing the unmodified benchmarks/e2e "
            f"harness of its own `git archive` export; {len(samples)} "
            f"rounds of one turn per worker, the order rotating by one "
            f"every round; a turn is one discarded and one measured "
            f"{REPLAY_SIM_S:g}-sim-s replay of {workload} at seed 0, and "
            f"{name} is the measured replay's "
            + ("process time" if metric == "cpu" else "wall_s")
            + f"; every worker at PYTHONHASHSEED={HASH_SEED}; the digest "
            f"and {', '.join(SIMULATED)} equal on every side of every round")
    return {
        "schema": "pair/1",
        "label": label,
        "workload": workload,
        "metric": name,
        "commits": commits,
        "machine": {"platform": platform.platform(),
                    "python": platform.python_version(),
                    "cpus": os.cpu_count()},
        "method": method,
        "rule": RULE,
        "samples": samples,
        "verdict": verdict(parent, change, control),
    }


# ------------------------------------------------------------------ workers


def worker(tree: str, workload: str) -> None:
    """Body of one cpu/wall worker process: import ``tree``'s simulator
    and harness, then answer every line on stdin with one turn, as one
    JSON line on stdout."""
    root = pathlib.Path(tree)
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks" / "e2e")]
    out, sys.stdout = sys.stdout, sys.stderr
    import time

    import harness
    import metrics
    from spans import SpanLog
    from workloads import WORKLOADS, replay

    harness.verify_tree()
    w = WORKLOADS[workload]
    for _ in sys.stdin:
        replay(w, 0, SpanLog(), 0, duration=REPLAY_SIM_S)
        gc.collect()
        # Host CPU time of this process is the quantity measured here;
        # no simulated value reads it.
        t0 = time.process_time()  # repro-lint: disable=DET101
        r = replay(w, 0, SpanLog(), 1, duration=REPLAY_SIM_S)
        cpu = time.process_time() - t0  # repro-lint: disable=DET101
        sim = metrics.simulated(w, r)
        got = {"digest": r.digest, "events": r.events,
               "metrics": {"cpu_s": cpu, "wall_s": r.wall_s,
                           **{k: sim[k] for k in SIMULATED}}}
        del r
        gc.collect()
        out.write(json.dumps(got) + "\n")
        out.flush()


class Worker:
    """A running :func:`worker` process."""

    def __init__(self, tree: pathlib.Path, workload: str) -> None:
        code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
                f"import pair; pair.worker({str(tree)!r}, {workload!r})")
        self.proc = subprocess.Popen(
            [sys.executable, "-B", "-c", code], cwd=tree, text=True,
            env={**os.environ, "PYTHONHASHSEED": HASH_SEED},
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def turn(self) -> Sample:
        self.proc.stdin.write("turn\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise BehaviourChanged(
                f"a worker died (exit {self.proc.wait()})")
        return json.loads(line)

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


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


def export(root: pathlib.Path, sha: str, dest: pathlib.Path) -> None:
    """Write the files of commit ``sha`` into ``dest``.  The archive is
    streamed, not read whole: an ``rss`` sample's peak starts from this
    process's own (:func:`above_launcher`)."""
    proc = subprocess.Popen(["git", "-C", str(root), "archive", sha],
                            stdout=subprocess.PIPE)
    with proc, tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest)


def above_launcher(sample: Sample, floor_mb: float) -> Sample:
    """``sample``, unless its ``peak_rss_mb`` is no more than
    ``floor_mb``, this process's own peak.  Linux carries the peak RSS
    of the process that launches a program into the program's
    ``ru_maxrss``, so such a sample measured the launcher, not run.py:
    while exports were read whole, both sides of a ``mix64k_qos``
    pairing read the launcher's 23.86 MB in every round."""
    got = sample["metrics"]["peak_rss_mb"]
    if got <= floor_mb:
        raise Refused(f"a sample read {got:.2f} MB, no more than the "
                      f"{floor_mb:.2f} MB this process peaked at: it "
                      f"measured the launcher, not run.py")
    return sample


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
    sides = ("parent", "change") if metric == "rss" else WORKERS
    name = METRICS[metric]
    tmp = pathlib.Path(tempfile.mkdtemp(prefix="pair-"))
    workers: dict[str, Worker] = {}
    try:
        trees = {side: tmp / side for side in sides}
        for side, tree in trees.items():
            export(root, commits[side.rstrip("2")], tree)

        def show(side: str, got: Sample) -> Sample:
            print(f"  {side:7s} {name}={got['metrics'][name]:.4f}",
                  file=sys.stderr)
            return got

        if metric == "rss":
            floor = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            samples = run_pairs(
                lambda side: show(side, above_launcher(
                    run_sample(trees[side], workload), floor)),
                rounds)
        else:
            for side, tree in trees.items():
                workers[side] = Worker(tree, workload)
            samples = run_rotated(
                lambda side: show(side, workers[side].turn()), rounds)
    finally:
        for w in workers.values():
            w.close()
        shutil.rmtree(tmp, ignore_errors=True)
    return document(label, workload, metric, commits, samples)


def free_path(path: pathlib.Path) -> pathlib.Path:
    """``path``, or else the first of ``<stem>_2``, ``<stem>_3``, … that
    no earlier document took."""
    free, n = path, 1
    while free.exists():
        n += 1
        free = path.with_name(f"{path.stem}_{n}{path.suffix}")
    return free


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
    out = free_path(RESULTS / f"BENCH_pair_{label}.json")
    out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                   encoding="utf-8")
    v = doc["verdict"]
    print(f"{label}: {doc['metric']} median "
          f"{v['parent']['median']:.4g} -> {v['change']['median']:.4g} "
          f"(ratio {v['median_ratio']:.4f}, pair ratios q1 "
          f"{v['pair_ratios']['q1']:.4f} q3 {v['pair_ratios']['q3']:.4f}), "
          f"{v['wins']}/{v['n']} lower, sign p "
          f"{v['sign_test_p']:.4g}: {v['verdict']}")
    if "aa_ratios" in v:
        aa = v["aa_ratios"]
        print(f"A/A spread (parent2/parent per round): median "
              f"{aa['median']:.4f}, q1 {aa['q1']:.4f} q3 {aa['q3']:.4f}")
    print(f"wrote {out.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
