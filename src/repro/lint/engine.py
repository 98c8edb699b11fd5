"""Lint engine: file walking, parse context, suppressions, reports.

The engine is rule-agnostic.  It parses every file once, builds a
project-wide class table (so slot rules can resolve base classes across
modules), constructs a :class:`LintContext` per file, runs every
registered rule (see :mod:`repro.lint.rules`), and filters findings
through the suppression directives:

* ``# repro-lint: disable=CODE[,CODE...]`` — trailing comment on the
  flagged line suppresses those codes for that line only.
* ``# repro-lint: disable-file=CODE[,CODE...]`` — anywhere in the file
  (conventionally near the top, with a justification) suppresses those
  codes for the whole file.

Suppressing ``all`` disables every rule for the line/file.  Suppression
is deliberate and visible; there is no baseline of grandfathered
findings, so any unsuppressed finding fails ``python -m repro lint``.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = [
    "LintConfig",
    "DEFAULT_CONFIG",
    "Finding",
    "ClassInfo",
    "ProjectIndex",
    "LintContext",
    "LintReport",
    "lint_paths",
    "lint_source",
    "iter_python_files",
]

_DIRECTIVE_RE = re.compile(
    r"#\s*repro-lint:\s*disable(?P<whole_file>-file)?=(?P<codes>[A-Za-z0-9_,]+)"
)


@dataclass(frozen=True)
class LintConfig:
    """Which paths play which role in the determinism contract.

    Paths are package-relative (``repro/...``); directory roles match by
    prefix, file roles by exact path.
    """

    #: The only module allowed to read the host wall clock (DET101) —
    #: the injectable accessor everything else must import.
    wallclock_modules: tuple[str, ...] = ("repro/util/wallclock.py",)
    #: The only module allowed to touch the global ``random`` module
    #: machinery (DET103): the seeded-stream factory.
    rng_modules: tuple[str, ...] = ("repro/util/rng.py",)
    #: Modules allowed to read process environment variables (DET106):
    #: the CLI/config boundary.
    env_modules: tuple[str, ...] = (
        "repro/cli.py",
        "repro/cluster/config.py",
    )
    #: Layers that run inside simulated time: real blocking calls here
    #: would stall the event loop for every model at once (SIM201).
    sim_layers: tuple[str, ...] = (
        "repro/sim/",
        "repro/hw/",
        "repro/core/",
        "repro/osd/",
        "repro/msgr/",
    )
    #: Wire-adversary modules: must hold no RNG of their own (DET107) —
    #: every perturbation decision comes from the FaultPlan-derived
    #: per-(layer, node) injector stream handed in at attach time.
    adversary_modules: tuple[str, ...] = ("repro/msgr/adversary.py",)
    #: Hot allocation paths: classes here must declare ``__slots__``
    #: (PERF301) — the PR 4 engine work is load-bearing on it.
    hot_paths: tuple[str, ...] = (
        "repro/sim/",
        "repro/hw/",
        "repro/msgr/",
        "repro/osd/",
        "repro/qos/",
        "repro/util/bufferlist.py",
    )

    def is_hot(self, relpath: str) -> bool:
        return any(
            relpath == p or (p.endswith("/") and relpath.startswith(p))
            for p in self.hot_paths
        )

    def in_sim_layer(self, relpath: str) -> bool:
        return any(relpath.startswith(p) for p in self.sim_layers)


DEFAULT_CONFIG = LintConfig()


@dataclass(frozen=True)
class Finding:
    """One rule violation at one site."""

    path: str  # package-relative, e.g. "repro/hw/net.py"
    line: int
    col: int
    code: str
    message: str
    scope: str  # enclosing qualname, or "<module>"

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: {self.code} "
            f"{self.message} [{self.scope}]"
        )


@dataclass
class ClassInfo:
    """Slot-relevant facts about one class (for the project index)."""

    module: str
    name: str
    bases: list[str]  # resolved dotted names where possible, else raw
    #: Declared slot names; ``None`` when the class has no ``__slots__``
    #: (instances carry ``__dict__``), or when slots were declared with
    #: a non-literal expression we cannot evaluate.
    slots: Optional[frozenset[str]]
    #: ``True`` when ``__slots__`` exists but could not be parsed, or
    #: the class is built by a decorator we don't model — slot rules
    #: must then skip it rather than guess.
    opaque: bool = False
    #: Names assignable through descriptors (properties and their
    #: setters) — legal targets on a slotted class.
    descriptors: frozenset[str] = frozenset()

    @property
    def qualname(self) -> str:
        return f"{self.module}.{self.name}"


class ProjectIndex:
    """Cross-file class table: ``module.Class`` → :class:`ClassInfo`."""

    def __init__(self) -> None:
        self.classes: dict[str, ClassInfo] = {}

    def add(self, info: ClassInfo) -> None:
        self.classes[info.qualname] = info

    def lookup(self, dotted: str) -> Optional[ClassInfo]:
        return self.classes.get(dotted)

    def resolve_slots(self, info: ClassInfo) -> Optional[frozenset[str]]:
        """Union of slots over ``info`` and every base, or ``None``.

        ``None`` means "cannot prove instances lack ``__dict__``":
        unslotted/opaque classes, unresolvable bases, or an inheritance
        cycle all make the slot set unknowable — callers skip the class.
        """
        seen: set[str] = set()
        union: set[str] = set()

        def walk(ci: ClassInfo) -> bool:
            if ci.qualname in seen:
                return True
            seen.add(ci.qualname)
            if ci.opaque or ci.slots is None:
                return False
            union.update(ci.slots)
            union.update(ci.descriptors)
            for base in ci.bases:
                if base == "object":
                    continue
                base_info = self.lookup(base)
                if base_info is None:
                    return False
                if not walk(base_info):
                    return False
            return True

        return frozenset(union) if walk(info) else None


def module_name(relpath: str) -> str:
    """``repro/hw/net.py`` → ``repro.hw.net``."""
    trimmed = relpath[:-3] if relpath.endswith(".py") else relpath
    parts = [p for p in trimmed.split("/") if p]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _build_import_table(tree: ast.Module, module: str) -> dict[str, str]:
    """Local alias → canonical dotted name, for Name/Attribute resolution."""
    table: dict[str, str] = {}
    pkg_parts = module.split(".")[:-1] if module else []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                target = alias.name if alias.asname else alias.name.split(".")[0]
                table[bound] = target
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                # Relative import: anchor at this module's package.
                base = pkg_parts[: len(pkg_parts) - (node.level - 1)]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or alias.name
                table[bound] = f"{prefix}.{alias.name}" if prefix else alias.name
    return table


class LintContext:
    """Everything a rule needs about one parsed file."""

    def __init__(
        self,
        relpath: str,
        source: str,
        tree: ast.Module,
        config: LintConfig,
        project: Optional[ProjectIndex] = None,
    ) -> None:
        self.relpath = relpath
        self.source = source
        self.tree = tree
        self.config = config
        self.project = project if project is not None else ProjectIndex()
        self.module = module_name(relpath)
        self.imports = _build_import_table(tree, self.module)
        self.parents: dict[ast.AST, ast.AST] = {
            child: parent
            for parent in ast.walk(tree)
            for child in ast.iter_child_nodes(parent)
        }

    # -- resolution helpers -------------------------------------------------
    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted canonical name of a Name/Attribute chain, if importable."""
        if isinstance(node, ast.Name):
            return self.imports.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def scope_of(self, node: ast.AST) -> str:
        """Qualname of the enclosing function/class scope."""
        names: list[str] = []
        cur: Optional[ast.AST] = node
        while cur is not None:
            if isinstance(
                cur, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(cur.name)
            cur = self.parents.get(cur)
        return ".".join(reversed(names)) or "<module>"

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.FunctionDef | ast.AsyncFunctionDef]:
        cur: Optional[ast.AST] = self.parents.get(node)
        while cur is not None:
            if isinstance(cur, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return cur
            cur = self.parents.get(cur)
        return None

    def in_finally(self, node: ast.AST) -> bool:
        """Is ``node`` inside the ``finally`` suite of some ``try``?"""
        cur = node
        parent = self.parents.get(cur)
        while parent is not None:
            if isinstance(parent, ast.Try) and any(
                cur is stmt or _contains(stmt, cur) for stmt in parent.finalbody
            ):
                return True
            cur, parent = parent, self.parents.get(parent)
        return False

    def finding(self, node: ast.AST, code: str, message: str) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            path=self.relpath,
            line=line,
            col=col,
            code=code,
            message=message,
            scope=self.scope_of(node),
        )


def _contains(root: ast.AST, target: ast.AST) -> bool:
    return any(n is target for n in ast.walk(root))


# ---------------------------------------------------------------- suppressions

def _directives(source: str) -> tuple[set[str], dict[int, set[str]]]:
    """(file-wide codes, line → codes) from repro-lint comments."""
    file_codes: set[str] = set()
    line_codes: dict[int, set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        if "repro-lint" not in text:
            continue
        for match in _DIRECTIVE_RE.finditer(text):
            codes = {
                c.strip().upper()
                for c in match.group("codes").split(",")
                if c.strip()
            }
            if match.group("whole_file"):
                file_codes |= codes
            else:
                line_codes.setdefault(lineno, set()).update(codes)
    return file_codes, line_codes


def _suppressed(finding: Finding, file_codes: set[str],
                line_codes: dict[int, set[str]]) -> bool:
    for codes in (file_codes, line_codes.get(finding.line, set())):
        if "ALL" in codes or finding.code in codes:
            return True
    return False


# ------------------------------------------------------------------- reports

@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

    def counts_by_code(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.code] = out.get(f.code, 0) + 1
        return dict(sorted(out.items()))

    def render(self) -> str:
        lines = [f.render() for f in self.findings]
        lines.append(
            f"{len(self.findings)} finding(s) in {self.files_checked} file(s)"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------- entry points

def iter_python_files(paths: Iterable[str | pathlib.Path]) -> list[pathlib.Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: list[pathlib.Path] = []
    for raw in paths:
        path = pathlib.Path(raw)
        if path.is_dir():
            out.extend(
                p for p in sorted(path.rglob("*.py"))
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            out.append(path)
    return out


def package_relpath(path: pathlib.Path) -> str:
    """Best-effort package-relative path (``repro/...``) for role matching."""
    parts = list(path.parts)
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return "/".join(parts[idx:])
    return "/".join(parts[-2:]) if len(parts) > 1 else parts[-1]


def _index_file(
    relpath: str, tree: ast.Module, project: ProjectIndex
) -> None:
    """Record every class in ``tree`` into the project index."""
    module = module_name(relpath)
    imports = _build_import_table(tree, module)

    def resolve_base(expr: ast.expr) -> str:
        if isinstance(expr, ast.Name):
            resolved = imports.get(expr.id)
            if resolved is not None:
                return resolved
            # Unqualified name: assume a sibling class in this module.
            return f"{module}.{expr.id}" if expr.id != "object" else "object"
        if isinstance(expr, ast.Attribute):
            parts: list[str] = []
            cur: ast.expr = expr
            while isinstance(cur, ast.Attribute):
                parts.append(cur.attr)
                cur = cur.value
            if isinstance(cur, ast.Name):
                head = imports.get(cur.id, cur.id)
                return ".".join([head] + list(reversed(parts)))
        return ast.dump(expr)

    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        slots, opaque = _declared_slots(node)
        descriptors = _descriptor_names(node)
        project.add(
            ClassInfo(
                module=module,
                name=node.name,
                bases=[resolve_base(b) for b in node.bases],
                slots=slots,
                opaque=opaque,
                descriptors=descriptors,
            )
        )


def dataclass_slots_decorator(node: ast.ClassDef) -> Optional[bool]:
    """``None`` if not a dataclass; else whether ``slots=True`` was passed."""
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else None
        )
        if name != "dataclass":
            continue
        if isinstance(dec, ast.Call):
            for kw in dec.keywords:
                if kw.arg == "slots":
                    return (
                        isinstance(kw.value, ast.Constant)
                        and kw.value.value is True
                    )
        return False
    return None


def _annotated_fields(node: ast.ClassDef) -> frozenset[str]:
    """Dataclass field names: annotated class-body names minus ClassVars."""
    out: set[str] = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = ast.unparse(stmt.annotation)
            if "ClassVar" in ann.split("[")[0]:
                continue
            out.add(stmt.target.id)
    return frozenset(out)


def _declared_slots(
    node: ast.ClassDef,
) -> tuple[Optional[frozenset[str]], bool]:
    """(slot names or None, opaque?) for one class definition."""
    for stmt in node.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if not any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in targets
        ):
            continue
        names: set[str] = set()
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            names.add(value.value)
        elif isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for elt in value.elts:
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                    names.add(elt.value)
                else:
                    return None, True  # non-literal element
        else:
            return None, True  # computed __slots__
        return frozenset(names), False
    slotted = dataclass_slots_decorator(node)
    if slotted:
        return _annotated_fields(node), False
    return None, False


def _descriptor_names(node: ast.ClassDef) -> frozenset[str]:
    """Method names bound through descriptors (properties / setters)."""
    out: set[str] = set()
    for stmt in node.body:
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for dec in stmt.decorator_list:
            if isinstance(dec, ast.Name) and dec.id in (
                "property", "cached_property"
            ):
                out.add(stmt.name)
            elif isinstance(dec, ast.Attribute) and dec.attr in (
                "setter", "deleter", "getter"
            ):
                out.add(stmt.name)
    return frozenset(out)


def _run_rules(
    ctx: LintContext, select: Optional[set[str]] = None
) -> list[Finding]:
    from .rules import RULES  # deferred: rules import engine types

    file_codes, line_codes = _directives(ctx.source)
    findings: list[Finding] = []
    for code, rule in sorted(RULES.items()):
        if select is not None and code not in select:
            continue
        findings.extend(rule.check(ctx))
    findings = [
        f for f in findings if not _suppressed(f, file_codes, line_codes)
    ]
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings


def lint_source(
    source: str,
    relpath: str = "repro/snippet.py",
    config: LintConfig = DEFAULT_CONFIG,
    select: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Lint one in-memory source blob (fixture tests, tooling)."""
    project = ProjectIndex()
    tree = ast.parse(source)
    _index_file(relpath, tree, project)
    ctx = LintContext(relpath, source, tree, config, project)
    return _run_rules(ctx, set(select) if select is not None else None)


def lint_paths(
    paths: Sequence[str | pathlib.Path],
    config: LintConfig = DEFAULT_CONFIG,
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files/directories; returns a :class:`LintReport`.

    Two-phase: every file is parsed and indexed first so slot rules can
    resolve base classes across modules, then rules run per file.
    """
    report = LintReport()
    project = ProjectIndex()
    parsed: list[tuple[str, str, ast.Module]] = []
    for path in iter_python_files(paths):
        relpath = package_relpath(path)
        try:
            source = path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=str(path))
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            report.parse_errors.append(
                Finding(
                    path=relpath,
                    line=getattr(exc, "lineno", 1) or 1,
                    col=0,
                    code="LINT000",
                    message=f"cannot parse: {exc}",
                    scope="<module>",
                )
            )
            continue
        parsed.append((relpath, source, tree))
        _index_file(relpath, tree, project)
    selected = set(select) if select is not None else None
    for relpath, source, tree in parsed:
        ctx = LintContext(relpath, source, tree, config, project)
        report.findings.extend(_run_rules(ctx, selected))
        report.files_checked += 1
    report.findings.extend(report.parse_errors)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return report
