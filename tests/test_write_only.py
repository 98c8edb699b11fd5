"""Every counter ``src/repro`` bumps in place is read somewhere.

An ``obj.attr += …`` or ``-= …`` whose attribute nothing reads is a
write-only counter: it costs a slot, a store per event and review, and
no report, golden or test can see it go wrong.  An attribute is *read*
when its name appears as an AST ``Attribute`` load in ``src/``,
``benchmarks/``, ``examples/`` or ``tests/``, or as a string constant (a
``getattr`` name, a dict key a report is keyed by) in the first three.
A test's strings do not count: a dict key in a test's own fixture
vouches for nothing the program reports.  Nor do two kinds of string
in ``src/``: a ``__slots__`` entry declares the attribute, and the
strings of ``repro.lint`` name modules and calls of the code it checks
(``"requests"`` the HTTP library), not attributes of the model.
"""

from __future__ import annotations

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
STRING_TREES = (ROOT / "src", ROOT / "benchmarks", ROOT / "examples")
READER_TREES = STRING_TREES + (ROOT / "tests",)


def _slot_strings(module: ast.AST) -> set[ast.AST]:
    return {node
            for assign in ast.walk(module) if isinstance(assign, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in assign.targets)
            for node in ast.walk(assign.value)}


def write_only_counters(
        src: pathlib.Path = SRC,
        trees: tuple[pathlib.Path, ...] = READER_TREES,
        string_trees: tuple[pathlib.Path, ...] = STRING_TREES) -> list[str]:
    """``module:attr`` of every attribute a module under ``src`` bumps
    with ``+=`` or ``-=`` and no file under ``trees`` reads; string
    constants are reads only under ``string_trees``."""
    bumped: set[str] = set()
    read: set[str] = set()
    for tree in trees:
        for path in sorted(tree.rglob("*.py")):
            module = ast.parse(path.read_text(encoding="utf-8"))
            in_src = path.is_relative_to(src)
            strings_count = (tree in string_trees
                             and not path.is_relative_to(src / "lint"))
            slots = _slot_strings(module)
            for node in ast.walk(module):
                if isinstance(node, ast.Attribute) and isinstance(
                        node.ctx, ast.Load):
                    read.add(node.attr)
                elif (strings_count and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)
                      and node not in slots):
                    read.add(node.value)
                elif (in_src and isinstance(node, ast.AugAssign)
                      and isinstance(node.op, (ast.Add, ast.Sub))
                      and isinstance(node.target, ast.Attribute)):
                    bumped.add(f"{path.relative_to(src).as_posix()}:"
                               f"{node.target.attr}")
    return sorted(b for b in bumped if b.partition(":")[2] not in read)


def test_every_counter_src_bumps_is_read():
    assert write_only_counters() == []


def test_the_guard_sees_a_seeded_write_only_counter(tmp_path):
    src = tmp_path / "src" / "repro"
    (src / "lint").mkdir(parents=True)
    (src / "m.py").write_text(
        "class C:\n"
        "    __slots__ = ('hits', 'misses', 'peeks', 'lost', 'shed')\n\n"
        "    def touch(self):\n"
        "        self.hits += 1\n"
        "        self.misses -= 1\n"
        "        self.peeks += 1\n"
        "        self.lost += 1\n"
        "        self.shed += 1\n"
        "        return self.hits, getattr(self, 'peeks')\n",
        encoding="utf-8")
    (src / "lint" / "rules.py").write_text(
        "NAMES = frozenset({'lost'})\n", encoding="utf-8")
    tests = tmp_path / "tests"
    tests.mkdir()
    (tests / "test_m.py").write_text(
        "def test_shed(c):\n    assert {'shed': 0}\n", encoding="utf-8")
    assert write_only_counters(src, (tmp_path / "src", tests),
                               (tmp_path / "src",)) == [
        "m.py:lost", "m.py:misses", "m.py:shed"]
