"""Every def in ``src/repro`` has a caller.

A function, method or class that nothing in ``src/``, ``benchmarks/``
or ``examples/`` names is surface the model carries for no run: it
costs lines, docs and review, and no golden can see it break.  A def is
*named* when its name appears as an AST ``Name`` or ``Attribute`` load
anywhere in those trees outside its own body; an import or an
``__all__`` entry (a re-export) does not count.  Dunders and lint rules
(registered by their ``@rule`` decorator) are exempt by construction;
every other exemption is listed below with the reason it stays.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_TREES = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: ``module:name`` -> why it stays without a caller in the trees above.
EXEMPT = {
    "cluster/builder.py:add_pool":
        "runtime `osd pool create`; test_cluster_config adds a pool to a "
        "booted cluster",
    "hw/cpu.py:utilization":
        "busy share of a core budget; test_hw_cpu pins it against "
        "busy_cores",
    "hw/storage.py:utilization":
        "SSD busy share; test_hw_net_dma_storage pins it",
    "lint/engine.py:lint_source":
        "in-memory lint entry point; test_lint runs every rule and mutant "
        "through it",
    "msgr/message.py:map_blob":
        "schema field of MMonMapReply, read by name by its compiled plan",
    "objectstore/api.py:touch":
        "transaction op the BlueStore applies; the pinned wire corpus and "
        "the BlueStore reference model build it",
    "objectstore/api.py:truncate":
        "transaction op the BlueStore applies; the pinned wire corpus and "
        "the BlueStore reference model build it",
    "rados/client.py:aio_write":
        "librados-style async write; test_integration_baseline pins "
        "completion-driven queue depth",
    "rados/client.py:ms_handle_connect_fault":
        "dispatcher hook the messenger looks up with getattr",
    "sim/core.py:trigger":
        "event chaining helper; test_sim_core's late-waiter model and "
        "test_sim_edge_cases pin it",
    "sim/resources.py:cancel":
        "withdraws an ungranted request; test_sim_resources pins the queue "
        "it leaves",
    "trace.py:find":
        "span lookup by name prefix that test_trace's checks read spans "
        "through",
    "trace.py:critical_path":
        "per-root critical path; test_trace proves the report's summary "
        "equals it",
    "util/bufferlist.py:slice":
        "sub-extent of a blob; test_util_bufferlist pins how slices tile "
        "their root",
    "util/bufferlist.py:encode_s64":
        "typed encoder of a wire kind; test_wire's reference walk encodes "
        "with it",
    "util/bufferlist.py:encode_f64":
        "typed encoder of a wire kind; test_wire's reference walk encodes "
        "with it",
    "util/bufferlist.py:encode_bytes":
        "typed encoder of a wire kind; test_wire's reference walk encodes "
        "with it",
    "util/rjenkins.py:crush_hash32":
        "one-input member of the rjenkins family; test_util_hash_stats "
        "pins its 32-bit masking",
    "util/rjenkins.py:crush_hash32_4":
        "four-input member of the rjenkins family; test_util_hash_stats "
        "pins its range",
    "util/stats.py:Histogram":
        "bucketed latency histogram; test_util_hash_stats pins its buckets "
        "and percentiles",
    "util/stats.py:exponential":
        "Histogram factory; test_util_hash_stats pins its edges",
}


def _is_lint_rule(node: ast.AST) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id == "rule" for dec in node.decorator_list)


def uncalled_defs(src: pathlib.Path = SRC,
                  trees: tuple[pathlib.Path, ...] = CALLER_TREES) -> list[str]:
    """``module:name`` of every def under ``src`` that no file under
    ``trees`` loads by name outside the def itself."""
    loads: dict[str, list[tuple[pathlib.Path, int]]] = {}
    defs: list[tuple[pathlib.Path, ast.AST]] = []
    for tree in trees:
        for path in sorted(tree.rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            in_src = path.is_relative_to(src)
            for node in ast.walk(module):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    loads.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Load):
                    loads.setdefault(node.attr, []).append(
                        (path, node.lineno))
                elif in_src and isinstance(node, (
                        ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defs.append((path, node))
    uncalled = []
    for path, node in defs:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) \
                or _is_lint_rule(node):
            continue
        if not any(where != path or not node.lineno <= line <= node.end_lineno
                   for where, line in loads.get(name, ())):
            uncalled.append(f"{path.relative_to(src).as_posix()}:{name}")
    return sorted(uncalled)


def test_every_def_in_src_has_a_caller_or_a_listed_reason():
    uncalled = uncalled_defs()
    assert [d for d in uncalled if d not in EXEMPT] == []
    # an exemption whose def gained a caller, or is gone, goes too
    assert sorted(set(EXEMPT) - set(uncalled)) == []


def test_the_guard_sees_a_seeded_uncalled_def(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "def used():\n    return 1\n\n\n"
        "def unused():\n    return unused\n\n\n"
        "class C:\n    def __len__(self):\n        return used()\n",
        encoding="utf-8")
    (src / "__init__.py").write_text(
        "from .m import unused\n__all__ = ['unused']\n", encoding="utf-8")
    assert uncalled_defs(src, (tmp_path / "src",)) == ["m.py:C", "m.py:unused"]
