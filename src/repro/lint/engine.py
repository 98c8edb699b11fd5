"""Lint engine: file walking, parse context, suppressions, reports.

The engine is rule-agnostic.  It parses every file once, builds a
project-wide table of class bases (so PERF303 can tell a ``Machine``
subclass across modules), constructs a :class:`LintContext` per file,
runs every registered rule (see :mod:`repro.lint.rules`), and filters
findings through the suppression directives:

* ``# repro-lint: disable=CODE[,CODE...]`` — trailing comment on the
  flagged line suppresses those codes for that line only.
* ``# repro-lint: disable-file=CODE[,CODE...]`` — anywhere in the file
  (conventionally near the top, with a justification) suppresses those
  codes for the whole file.

A suppression names its codes: it is deliberate and visible.  There is
no baseline of grandfathered findings, so any unsuppressed finding
fails ``python -m repro lint``.
"""

from __future__ import annotations

import ast
import pathlib
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

__all__ = [
    "Finding",
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
        bases: dict[str, list[str]],
    ) -> None:
        self.relpath = relpath
        self.source = source
        self.tree = tree
        #: ``module.Class`` → its bases' dotted names, over every file
        #: in the run.
        self.bases = bases
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
        if finding.code in codes:
            return True
    return False


# ------------------------------------------------------------------- reports

@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    files_checked: int = 0
    parse_errors: list[Finding] = field(default_factory=list)

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
    relpath: str, tree: ast.Module, bases: dict[str, list[str]]
) -> None:
    """Record the bases of every class in ``tree``."""
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
        if isinstance(node, ast.ClassDef):
            bases[f"{module}.{node.name}"] = [
                resolve_base(b) for b in node.bases
            ]


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
    select: Optional[Sequence[str]] = None,
) -> list[Finding]:
    """Lint one in-memory source blob (fixture tests, tooling)."""
    bases: dict[str, list[str]] = {}
    tree = ast.parse(source)
    _index_file(relpath, tree, bases)
    ctx = LintContext(relpath, source, tree, bases)
    return _run_rules(ctx, set(select) if select is not None else None)


def lint_paths(
    paths: Sequence[str | pathlib.Path],
    select: Optional[Sequence[str]] = None,
) -> LintReport:
    """Lint files/directories; returns a :class:`LintReport`.

    Two-phase: every file is parsed and indexed first so PERF303 can
    resolve base classes across modules, then rules run per file.
    """
    report = LintReport()
    bases: dict[str, list[str]] = {}
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
        _index_file(relpath, tree, bases)
    selected = set(select) if select is not None else None
    for relpath, source, tree in parsed:
        ctx = LintContext(relpath, source, tree, bases)
        report.findings.extend(_run_rules(ctx, selected))
        report.files_checked += 1
    report.findings.extend(report.parse_errors)
    report.findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return report
