"""Every gate runs once: no CI step outside the tier-1 job repeats tier-1.

Tier-1 (``pytest -x -q`` over ``tests/``) is the merge gate and runs in
the ``tier1`` job.  A step elsewhere that runs tests under ``tests/``,
or the whole suite, or ``repro lint`` (whose static and dynamic checks
tier-1 runs in ``tests/test_lint.py``), can only fail where tier-1 fails
(``benchmarks/results/BENCH_kill_matrix.json``): it costs CI time and
protects nothing.
"""

from __future__ import annotations

import re

from .helpers import WORKFLOWS, workflow_jobs


def _repeats(job: str) -> list[str]:
    found = []
    for raw in job.splitlines():
        line = raw.split("#", 1)[0]
        if "pip install" in line:
            continue
        if re.search(r"\brepro lint\b", line):
            found.append(raw.strip())
        match = re.search(r"\bpytest\b(.*)", line)
        if match:
            paths = [a for a in match.group(1).split()
                     if not a.startswith("-") and ("/" in a or a.endswith(".py"))]
            if not paths or any(p.startswith("tests") for p in paths):
                found.append(raw.strip())
    return found


def test_only_the_tier1_job_runs_tier1():
    repeats = {}
    for workflow in sorted(WORKFLOWS.glob("*.yml")):
        for name, job in workflow_jobs(workflow.read_text(encoding="utf-8")).items():
            if name != "tier1" and _repeats(job):
                repeats[f"{workflow.name}:{name}"] = _repeats(job)
    assert repeats == {}


def test_the_tier1_job_runs_the_suite():
    jobs = workflow_jobs((WORKFLOWS / "ci.yml").read_text(encoding="utf-8"))
    assert _repeats(jobs["tier1"]) == ["run: python -m pytest -x -q"]


def test_repeats_are_recognised():
    job = (
        "  x:\n    steps:\n"
        "      - run: python -m pip install pytest hypothesis\n"
        "      - run: python -m pytest benchmarks/e2e/test_harness.py -q\n"
        "      - run: python -m pytest tests/test_faults.py -q\n"
        "      - run: python -m repro lint --dynamic smoke --seed 0\n"
    )
    assert _repeats(job) == [
        "- run: python -m pytest tests/test_faults.py -q",
        "- run: python -m repro lint --dynamic smoke --seed 0",
    ]
