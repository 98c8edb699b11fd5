"""Reach census: which functions of ``src/repro`` no run calls.

Every function and method defined in the tree's ``src/repro`` is listed
from the AST; a ``sys.setprofile`` hook then records each one that is
*called* while the census drives the runs below, in one process.  A
function no drive calls is *unreached*: what a workload, example or CLI
run never executes, whatever the tests do.  The drives:

* the four e2e workloads for 2 simulated seconds, and ``w4m_doceph``
  once more with a tracer attached (report, fingerprint, critical path,
  Perfetto export);
* the five ``repro.perf`` scenarios and every script in ``examples/``;
* ``run_chaos`` in both modes, every ``corpus/*.plan`` replayed, and a
  6-iteration fuzz session over a copy of the corpus;
* the CLI's ``all``, ``bench --trace``, ``bench --trace --replay
  --out``, ``faults``, ``qos``, ``qos --sweep``, ``lint`` and ``lint
  --dynamic smoke``, at short durations.

Run it on any checkout (a ``git archive`` export of a commit works)::

    python3 benchmarks/reach_census.py [--tree PATH] [--list]

It prints the function count, the unreached count and their lines; the
numbers are deterministic for a tree.  Nothing is written outside a
temporary directory.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import pathlib
import runpy
import shutil
import sys
import tempfile


def _cli_runs(tree: pathlib.Path) -> list[list[str]]:
    """The CLI drives; short runs reach the same code as long ones."""
    return [
        ["all", "--duration", "0.5", "--json-dir", "results"],
        ["bench", "--mode", "doceph", "--size", "1M", "--clients", "2",
         "--duration", "1", "--trace", "--no-json"],
        ["faults", "--plan", "dma,p=0.3", "--duration", "1", "--no-json"],
        ["bench", "--mode", "doceph", "--size", "1M", "--clients", "2",
         "--duration", "1", "--trace", "--replay", "--out", "trace.json",
         "--no-json"],
        ["qos", "--duration", "2", "--no-json"],
        ["qos", "--sweep", "--duration", "1", "--no-json"],
        ["lint", str(tree / "src")],
        ["lint", str(tree / "src"), "--dynamic", "smoke"],
    ]


def functions(src: pathlib.Path) -> dict[tuple[str, int], tuple[str, int]]:
    """``(file, first line) -> (qualified name, line count)`` of every
    function under ``src``; the first line is the code object's, which
    for a decorated function is its first decorator's."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    first = min([child.lineno] + [
                        d.lineno for d in child.decorator_list])
                    name = f"{prefix}{child.name}"
                    out[(str(path), first)] = (
                        name, child.end_lineno - first + 1)
                    stack.append((child, f"{name}."))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, f"{prefix}{child.name}."))
                else:
                    stack.append((child, prefix))
    return out


def drive(tree: pathlib.Path, work: pathlib.Path) -> None:
    """Everything the census runs (see the module docstring)."""
    sys.path[:0] = [str(tree / "benchmarks" / "e2e")]
    from repro.chaos import run_chaos
    from repro.cli import main as cli
    from repro.perf import SCENARIOS, run_scenario
    from repro.trace import Tracer
    from spans import SpanLog
    from workloads import WORKLOADS, replay

    for i, name in enumerate(sorted(WORKLOADS)):
        replay(WORKLOADS[name], 0, SpanLog(), i, duration=2.0)
    tracer = Tracer()
    replay(WORKLOADS["w4m_doceph"], 0, SpanLog(), 9, duration=2.0,
           tracer=tracer)
    report = tracer.report()
    report.fingerprint()
    report.critical_path_summary()
    report.flame_summary()
    report.to_perfetto()
    for name in sorted(SCENARIOS):
        run_scenario(name)
    for path in sorted((tree / "examples").glob("*.py")):
        runpy.run_path(str(path), run_name="__main__")
    for mode in ("baseline", "doceph"):
        run_chaos(mode=mode, seed=0, duration=2.0, clients=2, crashes=1,
                  partitions=1)
    corpus = work / "corpus"
    shutil.copytree(tree / "corpus", corpus)
    runs = [["fuzz", "--replay", str(plan), "--no-json"]
            for plan in sorted(corpus.glob("*.plan"))]
    runs.append(["fuzz", "--iterations", "6", "--corpus", str(corpus),
                 "--no-json"])
    for argv in runs + _cli_runs(tree):
        try:
            cli(argv)
        except SystemExit:  # an exit code is an outcome, not a failure
            pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parents[1])
    parser.add_argument("--list", action="store_true",
                        help="print every unreached function")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    src = tree / "src" / "repro"
    defs = functions(src)
    sys.path.insert(0, str(tree / "src"))
    called: set[tuple[str, int]] = set()
    prefix = str(src)

    def hook(frame, event, _arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(prefix):
            called.add((code.co_filename, code.co_firstlineno))

    with tempfile.TemporaryDirectory(prefix="census-") as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                drive(tree, pathlib.Path(tmp))
        finally:
            sys.setprofile(None)
            os.chdir(here)
    unreached = sorted((path, line) for path, line in defs
                       if (path, line) not in called)
    lines = sum(defs[key][1] for key in unreached)
    if args.list:
        for path, line in unreached:
            rel = pathlib.Path(path).relative_to(src).as_posix()
            print(f"{rel}:{line} {defs[(path, line)][0]}")
    print(f"functions {len(defs)}  unreached {len(unreached)}"
          f"  unreached_lines {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
