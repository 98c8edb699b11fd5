"""Dead references in the design documents fail tier-1.

Every backticked repository path in README.md, DESIGN.md,
EXPERIMENTS.md and docs/API.md must name a file that exists (and a
``:N`` suffix a line that exists), every relative markdown link target
must exist, every backticked dotted ``repro.…`` name must import or
resolve by ``getattr``, and every backticked name called a "job" must be
a job of a workflow under ``.github/workflows/``.  A change that deletes
or moves code or a CI job then cannot leave the documents pointing at
it.  Every pair document in ``benchmarks/results/`` must be linked from
EXPERIMENTS.md or DESIGN.md: one that no row reads is history, which git
keeps.
"""

from __future__ import annotations

import importlib
import pathlib
import re

import pytest

from .helpers import WORKFLOWS, workflow_jobs

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "docs/API.md")
RESULTS = ROOT / "benchmarks" / "results"

#: Inline code spans, once fenced blocks are cut out.
_SPAN = re.compile(r"`([^`\n]+)`")
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
#: A file reference: a path or bare name with an extension, optionally
#: with a ``:N`` line suffix.
_PATH = re.compile(
    r"(?P<path>(?:[\w.-]+/)*[\w-][\w.-]*\.(?:py|md|json|txt|yml|toml|c|plan))"
    r"(?::(?P<line>\d+))?"
)
#: A markdown link's target, up to an optional ``#fragment``.
_LINK = re.compile(r"\]\((?P<target>[^)#\s]*)(?:#[^)\s]*)?\)")
_DOTTED = re.compile(r"repro(?:\.[A-Za-z_]\w*)+")
#: A backticked name followed by "job" or "CI job".
_JOB = re.compile(r"`([\w-]+)`\s+(?:CI\s+)?jobs?\b")
_SEARCH_ROOTS = (ROOT, ROOT / "src", ROOT / "src" / "repro")
_SKIP_DIRS = {".git", "__pycache__", ".pytest_cache", ".hypothesis"}


def _text(doc: str) -> str:
    return _FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))


def _spans(doc: str) -> list[str]:
    return [m.group(1).strip() for m in _SPAN.finditer(_text(doc))]


def _links(doc: str) -> list[str]:
    return [
        m.group("target") for m in _LINK.finditer(_text(doc))
        if m.group("target") and "://" not in m.group("target")
    ]


def _tree_names() -> set[str]:
    return {
        p.name for p in ROOT.rglob("*")
        if p.is_file() and not _SKIP_DIRS & set(p.relative_to(ROOT).parts)
    }


def _resolve_path(path: str) -> pathlib.Path | None:
    for base in _SEARCH_ROOTS:
        candidate = base / path
        if candidate.is_file():
            return candidate
    return None


def _resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_paths_resolve(doc):
    names = _tree_names()
    dead = []
    for span in _spans(doc):
        match = _PATH.fullmatch(span)
        if match is None:
            continue
        path, line = match.group("path"), match.group("line")
        if "/" not in path:
            if path not in names:
                dead.append(span)
            continue
        target = _resolve_path(path)
        if target is None:
            dead.append(span)
        elif line is not None:
            lines = target.read_text(encoding="utf-8").count("\n") + 1
            if int(line) > lines:
                dead.append(f"{span} (file has {lines} lines)")
    assert dead == [], f"{doc}: dead file references {dead}"


@pytest.mark.parametrize("doc", DOCS)
def test_backticked_repro_names_resolve(doc):
    dead = [
        span for span in _spans(doc)
        if _DOTTED.fullmatch(span.removesuffix("()"))
        and not _resolves(span.removesuffix("()"))
    ]
    assert dead == [], f"{doc}: dead repro.* references {dead}"


@pytest.mark.parametrize("doc", DOCS)
def test_named_ci_jobs_exist(doc):
    jobs = {
        name for workflow in WORKFLOWS.glob("*.yml")
        for name in workflow_jobs(workflow.read_text(encoding="utf-8"))
    }
    text = _FENCE.sub("", (ROOT / doc).read_text(encoding="utf-8"))
    dead = sorted(set(_JOB.findall(text)) - jobs)
    assert dead == [], f"{doc}: names CI jobs that do not exist {dead}"


@pytest.mark.parametrize("doc", DOCS)
def test_markdown_links_resolve(doc):
    base = (ROOT / doc).parent
    dead = [t for t in _links(doc) if not (base / t).exists()]
    assert dead == [], f"{doc}: dead markdown links {dead}"


def test_every_pair_document_is_linked():
    linked = {
        ((ROOT / doc).parent / t).resolve()
        for doc in ("EXPERIMENTS.md", "DESIGN.md") for t in _links(doc)
    }
    unlinked = sorted(
        p.name for p in RESULTS.glob("BENCH_pair_*.json")
        if p.resolve() not in linked
    )
    assert unlinked == [], f"pair documents no row links: {unlinked}"
