"""Every def in ``src/repro`` has a caller, and every import a use.

A function, method or class that nothing in ``src/``, ``benchmarks/``
or ``examples/`` names is surface the model carries for no run: it
costs lines, docs and review, and no golden can see it break.  A def is
*named* when its name appears as an AST ``Name`` or ``Attribute`` load
anywhere in those trees outside its own body; a def in a class body (a
method) is named only by an ``Attribute`` load, so a call of the builtin
``getattr`` does not vouch for a ``getattr`` method.  An import or an
``__all__`` entry (a re-export) does not count.  Dunders and lint rules
(registered by their ``@rule`` decorator) are exempt by construction;
every other exemption is listed below with the reason it stays.

A name a module in ``src/repro`` imports must be loaded in that module,
unless the module re-exports it in ``__all__``.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
CALLER_TREES = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")

#: ``module:name`` -> why it stays without a caller in the trees above.
EXEMPT = {
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
    "rados/client.py:ms_handle_connect_fault":
        "dispatcher hook the messenger looks up with getattr",
    "sim/core.py:defused":
        "an event's swallow-my-error flag; StopSimulation sets it (a store, "
        "which the guard does not count) and test_sim_edge_cases pins it",
    "sim/core.py:trigger":
        "event chaining helper; test_sim_core's late-waiter model and "
        "test_sim_edge_cases pin it",
    "sim/exceptions.py:cause":
        "the value an Interrupt carries; test_sim_core reads it back",
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
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_lint_rule(node: ast.AST) -> bool:
    return any(isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
               and dec.func.id == "rule" for dec in node.decorator_list)


def uncalled_defs(src: pathlib.Path = SRC,
                  trees: tuple[pathlib.Path, ...] = CALLER_TREES) -> list[str]:
    """``module:name`` of every def under ``src`` that no file under
    ``trees`` loads by name outside the def itself (a method: by an
    attribute load)."""
    #: name -> [(path, line, is an attribute load)]
    loads: dict[str, list[tuple[pathlib.Path, int, bool]]] = {}
    defs: list[tuple[pathlib.Path, ast.AST, bool]] = []
    #: defs found directly in a class body (ast.walk visits a class
    #: before its body)
    methods: set[ast.AST] = set()
    for tree in trees:
        for path in sorted(tree.rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            in_src = path.is_relative_to(src)
            for node in ast.walk(module):
                if isinstance(node, ast.Name) and isinstance(node.ctx,
                                                             ast.Load):
                    loads.setdefault(node.id, []).append(
                        (path, node.lineno, False))
                elif isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Load):
                    loads.setdefault(node.attr, []).append(
                        (path, node.lineno, True))
                elif in_src and isinstance(node, _DEFS):
                    defs.append((path, node, node in methods))
                    if isinstance(node, ast.ClassDef):
                        methods.update(child for child in node.body
                                       if isinstance(child, _DEFS))
    uncalled = []
    for path, node, in_class in defs:
        name = node.name
        if (name.startswith("__") and name.endswith("__")) \
                or _is_lint_rule(node):
            continue
        if not any((where != path
                    or not node.lineno <= line <= node.end_lineno)
                   and (attr or not in_class)
                   for where, line, attr in loads.get(name, ())):
            uncalled.append(f"{path.relative_to(src).as_posix()}:{name}")
    return sorted(uncalled)


def unused_imports(src: pathlib.Path = SRC) -> list[str]:
    """``module:name`` of every name a module under ``src`` imports and
    never loads, unless the module lists it in ``__all__``."""
    unused = []
    for path in sorted(src.rglob("*.py")):
        module = ast.parse(path.read_text(encoding="utf-8"))
        imported: dict[str, int] = {}
        exported: set[str] = set()
        loaded: set[str] = set()
        for node in ast.walk(module):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    imported.setdefault(name, node.lineno)
            elif isinstance(node, ast.ImportFrom) \
                    and node.module != "__future__":
                for alias in node.names:
                    imported.setdefault(alias.asname or alias.name,
                                        node.lineno)
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets):
                exported.update(ast.literal_eval(node.value))
        unused += [f"{path.relative_to(src).as_posix()}:{name}"
                   for name in imported
                   if name not in loaded and name not in exported]
    return sorted(unused)


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


def test_a_builtin_call_does_not_vouch_for_a_method_of_its_name(tmp_path):
    src = tmp_path / "src" / "repro"
    src.mkdir(parents=True)
    (src / "m.py").write_text(
        "class T:\n"
        "    def setattr(self):\n        return self\n\n"
        "    def used(self):\n        return self\n\n\n"
        "def run(t):\n"
        "    setattr(t, 'x', getattr(t, 'y', None))\n"
        "    return T().used()\n\n\n"
        "run(T())\n",
        encoding="utf-8")
    assert uncalled_defs(src, (tmp_path / "src",)) == ["m.py:setattr"]


def test_every_import_in_src_is_loaded_or_re_exported():
    assert unused_imports() == []


def test_the_guard_sees_a_seeded_unused_import(tmp_path):
    src = tmp_path / "repro"
    src.mkdir()
    (src / "m.py").write_text(
        "from __future__ import annotations\n\n"
        "import os.path\n"
        "from dataclasses import dataclass, field\n"
        "from typing import Any as A, Optional\n\n\n"
        "@dataclass\nclass C:\n    x: Optional[int] = None\n",
        encoding="utf-8")
    (src / "__init__.py").write_text(
        "from .m import C\nfrom .m import A\n__all__ = ['C']\n",
        encoding="utf-8")
    assert unused_imports(src) == ["__init__.py:A", "m.py:A", "m.py:field",
                                   "m.py:os"]
