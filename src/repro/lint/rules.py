"""The rule catalogue.

Three families, each guarding one of the invariants the reproduction is
load-bearing on (see DESIGN.md §9):

* ``DET1xx`` — determinism: no wall-clock, no ambient entropy, no
  unordered-collection iteration feeding order-sensitive code, no env
  reads outside the config boundary.
* ``SIM2xx`` — sim-safety: no real blocking calls inside simulated
  layers.
* ``PERF3xx`` — perf-invariants: hot-module classes declare
  ``__slots__``; synchronous drain loops in hot modules allocate
  nothing per event.

A rule is here only while no other gate enforces its invariant: its
mutant in ``benchmarks/kill_matrix.py`` gets past tier-1 without the
lint and past the e2e goldens.  Rules are plain functions registered by
code; each takes a :class:`~repro.lint.engine.LintContext` and returns
findings.  Which paths play which role is fixed by the module constants
below.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Finding, LintContext

__all__ = ["Rule", "RULES", "rule"]


@dataclass(frozen=True)
class Rule:
    code: str
    name: str
    description: str
    check: Callable[[LintContext], list[Finding]]


RULES: dict[str, Rule] = {}


def rule(code: str, name: str, description: str):
    def register(fn: Callable[[LintContext], list[Finding]]):
        RULES[code] = Rule(code=code, name=name, description=description, check=fn)
        return fn

    return register


#: The only module allowed to read the host wall clock (DET101) — the
#: injectable accessor everything else must import.
_WALLCLOCK_MODULE = "repro/util/wallclock.py"
#: The only module allowed to touch the global ``random`` machinery
#: (DET103): the seeded-stream factory.
_RNG_MODULE = "repro/util/rng.py"
#: The CLI/config boundary, the only modules that may read process
#: environment variables (DET106).
_ENV_MODULES = ("repro/cli.py", "repro/cluster/config.py")
#: Layers that run inside simulated time: real blocking calls here
#: would stall the event loop for every model at once (SIM201).
_SIM_LAYERS = ("repro/sim/", "repro/hw/", "repro/core/", "repro/osd/",
               "repro/msgr/")
#: Hot allocation paths (PERF301, PERF303), matched by prefix.
_HOT_PATHS = ("repro/sim/", "repro/hw/", "repro/msgr/", "repro/osd/",
              "repro/qos/", "repro/util/bufferlist.py")


# --------------------------------------------------------------- DET1xx rules

#: Host-clock reads.  Calling any of these inside the tree couples model
#: output to the machine it ran on.
_WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)


@rule(
    "DET101",
    "wall-clock-read",
    "host clock read outside the injectable wallclock accessor",
)
def det101_wallclock(ctx: LintContext) -> list[Finding]:
    if ctx.relpath == _WALLCLOCK_MODULE:
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved in _WALLCLOCK_CALLS:
                findings.append(
                    ctx.finding(
                        node,
                        "DET101",
                        f"wall-clock read {resolved}() — route through "
                        "repro.util.wallclock.perf_counter",
                    )
                )
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if f"time.{alias.name}" in _WALLCLOCK_CALLS:
                    findings.append(
                        ctx.finding(
                            node,
                            "DET101",
                            f"imports wall-clock primitive time.{alias.name} — "
                            "route through repro.util.wallclock",
                        )
                    )
    return findings


_ENTROPY_CALLS = frozenset(
    {"uuid.uuid1", "uuid.uuid4", "os.urandom", "random.SystemRandom"}
)


@rule(
    "DET102",
    "ambient-entropy",
    "OS/hardware entropy source (uuid4, os.urandom, secrets)",
)
def det102_entropy(ctx: LintContext) -> list[Finding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None:
            continue
        if resolved in _ENTROPY_CALLS or resolved.split(".")[0] == "secrets":
            findings.append(
                ctx.finding(
                    node,
                    "DET102",
                    f"nondeterministic entropy source {resolved}() — derive "
                    "ids from repro.util.rng.SeededRng instead",
                )
            )
    return findings


#: Module-level random functions share one hidden global stream; any new
#: caller reorders every other caller's draws.
_GLOBAL_RANDOM = frozenset(
    {
        "random.random",
        "random.randint",
        "random.randrange",
        "random.uniform",
        "random.choice",
        "random.choices",
        "random.shuffle",
        "random.sample",
        "random.gauss",
        "random.normalvariate",
        "random.expovariate",
        "random.betavariate",
        "random.gammavariate",
        "random.lognormvariate",
        "random.paretovariate",
        "random.weibullvariate",
        "random.triangular",
        "random.vonmisesvariate",
        "random.getrandbits",
        "random.randbytes",
        "random.seed",
    }
)


@rule(
    "DET103",
    "global-random",
    "global/unseeded random outside the seeded-stream factory",
)
def det103_global_random(ctx: LintContext) -> list[Finding]:
    if ctx.relpath == _RNG_MODULE:
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved in _GLOBAL_RANDOM:
            findings.append(
                ctx.finding(
                    node,
                    "DET103",
                    f"global random stream {resolved}() — use "
                    "repro.util.rng.SeededRng",
                )
            )
        elif resolved == "random.Random" and not node.args and not node.keywords:
            findings.append(
                ctx.finding(
                    node,
                    "DET103",
                    "random.Random() without a seed — pass an explicit seed "
                    "or use repro.util.rng.SeededRng",
                )
            )
    return findings


def _setish_locals(scope: ast.AST) -> set[str]:
    """Names in ``scope`` assigned exactly once, from a set expression."""
    assigned: dict[str, list[ast.expr]] = {}
    for node in ast.walk(scope):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                assigned.setdefault(target.id, []).append(node.value)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and isinstance(
            node.target, ast.Name
        ):
            # Mark multiply-assigned so single-assignment logic drops it.
            assigned.setdefault(node.target.id, []).extend(
                [node.target, node.target]
            )
        elif isinstance(node, (ast.For, ast.comprehension)):
            tgt = node.target
            for name in ast.walk(tgt):
                if isinstance(name, ast.Name):
                    assigned.setdefault(name.id, []).extend([name, name])
    known: set[str] = set()
    # Two passes so ``s = set(...); t = s | other`` resolves.
    for _ in range(2):
        for name, values in assigned.items():
            if len(values) == 1 and _is_setish(values[0], known):
                known.add(name)
    return known


def _is_setish(node: ast.expr, known: set[str]) -> bool:
    """Does ``node`` evaluate to a set/frozenset (iteration order unstable)?"""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Name):
        return node.id in known
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.BitXor, ast.Sub)
    ):
        return _is_setish(node.left, known) or _is_setish(node.right, known)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr in (
            "union",
            "intersection",
            "difference",
            "symmetric_difference",
        ):
            return _is_setish(node.func.value, known)
    return False


@rule(
    "DET104",
    "unordered-iteration",
    "iteration over a set feeds order-sensitive code",
)
def det104_unordered_iteration(ctx: LintContext) -> list[Finding]:
    findings = []
    scopes = [ctx.tree] + [
        n
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    flagged: set[int] = set()  # id() of expr nodes already reported

    def flag(expr: ast.expr, where: str) -> None:
        if id(expr) in flagged:
            return
        flagged.add(id(expr))
        findings.append(
            ctx.finding(
                expr,
                "DET104",
                f"iterating a set in {where} — iteration order is not part "
                "of the determinism contract; wrap in sorted()",
            )
        )

    for scope in scopes:
        known = _setish_locals(scope)
        for node in ast.walk(scope):
            # Don't rescan nested functions from the module pass; they get
            # their own (more precise) local table.
            if scope is ctx.tree and ctx.enclosing_function(node) is not None:
                continue
            if isinstance(node, ast.For) and _is_setish(node.iter, known):
                flag(node.iter, "a for loop")
            elif isinstance(node, ast.comprehension) and _is_setish(
                node.iter, known
            ):
                flag(node.iter, "a comprehension")
            elif (
                isinstance(node, ast.Starred)
                and not isinstance(ctx.parents.get(node), ast.Set)
                and _is_setish(node.value, known)
            ):
                flag(node.value, "a starred unpacking")
            elif isinstance(node, ast.Call):
                fn = node.func
                if (
                    isinstance(fn, ast.Name)
                    and fn.id in ("list", "tuple", "iter", "enumerate")
                    and node.args
                    and _is_setish(node.args[0], known)
                ):
                    flag(node.args[0], f"{fn.id}()")
                elif (
                    isinstance(fn, ast.Attribute)
                    and fn.attr == "join"
                    and node.args
                    and _is_setish(node.args[0], known)
                ):
                    flag(node.args[0], "str.join()")
    return findings


@rule(
    "DET106",
    "env-read",
    "environment-variable read outside the CLI/config boundary",
)
def det106_env_read(ctx: LintContext) -> list[Finding]:
    if ctx.relpath in _ENV_MODULES:
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved in ("os.getenv", "os.putenv", "os.unsetenv"):
                findings.append(
                    ctx.finding(
                        node,
                        "DET106",
                        f"{resolved}() outside the CLI/config layer — env "
                        "reads are banned; take the value as an argument",
                    )
                )
        elif isinstance(node, ast.Attribute):
            resolved = ctx.resolve(node)
            if resolved in ("os.environ", "os.environb"):
                findings.append(
                    ctx.finding(
                        node,
                        "DET106",
                        f"{resolved} access outside the CLI/config layer — "
                        "env reads are banned; take the value as an argument",
                    )
                )
    return findings


# --------------------------------------------------------------- SIM2xx rules

#: Calls that block on the real world: inside the event loop they stall
#: every simulated component at once and couple results to host timing.
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "os.system",
        "os.popen",
        "os.wait",
        "os.waitpid",
        "select.select",
    }
)

_BLOCKING_MODULES = frozenset(
    {
        "socket",
        "subprocess",
        "threading",
        "multiprocessing",
        "asyncio",
        "selectors",
        "requests",
        "urllib",
        "http",
        "ssl",
        "signal",
    }
)


@rule(
    "SIM201",
    "real-blocking-call",
    "real blocking primitive inside a simulated layer",
)
def sim201_blocking(ctx: LintContext) -> list[Finding]:
    if not ctx.relpath.startswith(_SIM_LAYERS):
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved is None:
                continue
            if (
                resolved in _BLOCKING_CALLS
                or resolved.split(".")[0] in _BLOCKING_MODULES
            ):
                findings.append(
                    ctx.finding(
                        node,
                        "SIM201",
                        f"real blocking call {resolved}() in a simulated "
                        "layer — only env.timeout()/env.now may pass time",
                    )
                )
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            mods = (
                [a.name for a in node.names]
                if isinstance(node, ast.Import)
                else [node.module or ""]
            )
            for mod in mods:
                if mod.split(".")[0] in _BLOCKING_MODULES:
                    findings.append(
                        ctx.finding(
                            node,
                            "SIM201",
                            f"imports real-concurrency module {mod} in a "
                            "simulated layer",
                        )
                    )
    return findings


# -------------------------------------------------------------- PERF3xx rules

#: Base-class names (last dotted segment) that legitimately preclude or
#: excuse ``__slots__``.
_SLOTS_EXEMPT_BASES = frozenset(
    {
        "Exception",
        "BaseException",
        "Protocol",
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "NamedTuple",
        "TypedDict",
        "ABC",
        "type",
    }
)

_SLOTS_EXEMPT_SUFFIXES = ("Error", "Exception", "Warning", "Interrupt")


def _slots_exempt(node: ast.ClassDef) -> bool:
    for base in node.bases:
        name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else ""
        )
        if name in _SLOTS_EXEMPT_BASES or name.endswith(_SLOTS_EXEMPT_SUFFIXES):
            return True
    for kw in node.keywords:  # class C(metaclass=..., ...)
        if kw.arg == "metaclass":
            return True
    return False


def _dataclass_slots(node: ast.ClassDef) -> Optional[bool]:
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


@rule(
    "PERF301",
    "missing-slots",
    "hot-module class lacks __slots__",
)
def perf301_missing_slots(ctx: LintContext) -> list[Finding]:
    if not ctx.relpath.startswith(_HOT_PATHS):
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _slots_exempt(node):
            continue
        has_slots = any(
            (
                isinstance(stmt, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__slots__"
                    for t in stmt.targets
                )
            )
            or (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == "__slots__"
            )
            for stmt in node.body
        )
        if has_slots:
            continue
        is_dc_slotted = _dataclass_slots(node)
        if is_dc_slotted:
            continue
        hint = (
            "pass slots=True to @dataclass"
            if is_dc_slotted is False
            else "declare __slots__"
        )
        findings.append(
            ctx.finding(
                node,
                "PERF301",
                f"class {node.name} in a hot module has no __slots__ — "
                f"instances carry a __dict__ on the allocation path; {hint}",
            )
        )
    return findings


def _walk_local(node: ast.AST):
    """Walk ``node`` without descending into nested function/class defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if not isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            stack.extend(ast.iter_child_nodes(child))


def _is_drain_loop(node: ast.While) -> bool:
    """A synchronous event-drain loop: ``while queue:`` /
    ``while self._queue:`` / ``while True:`` with no sim waits inside.

    Loops that ``yield`` run in simulated time — one iteration per
    grant or timeout — so a per-iteration allocation there is ordinary
    model code, not dispatch overhead.  Loops that never yield drain
    synchronously (the engine's run/step loops, generator drivers,
    resource trigger cascades): every allocation inside them lands on
    the per-event path.
    """
    test = node.test
    if isinstance(test, ast.Constant):
        if test.value is not True and test.value != 1:
            return False
    elif not isinstance(test, (ast.Name, ast.Attribute)):
        return False
    return not any(
        isinstance(n, (ast.Yield, ast.YieldFrom, ast.Await))
        for n in _walk_local(node)
    )


#: Callables whose *call* mints a new callable object per iteration.
_CLOSURE_FACTORIES = frozenset({"functools.partial", "partial"})


@rule(
    "PERF303",
    "hot-loop-allocation",
    "per-event allocation inside a synchronous drain loop in a hot module",
)
def perf303_hot_loop_allocation(ctx: LintContext) -> list[Finding]:
    """Flag per-iteration allocations inside hot drain loops.

    The engine's throughput is bounded by what each pop of the event
    heap allocates: a closure, a bound method, or a fresh container
    minted per event turns into hundreds of thousands of allocations
    per run (DESIGN.md §13).  The discipline — hoist loop invariants,
    prebind callbacks once, reuse containers — is easy to erode one
    convenient lambda at a time, so it is pinned here.

    Flags, inside ``while <name>:`` / ``while True:`` loops that never
    yield, in hot-tagged files:

    * ``lambda`` / nested ``def`` — a closure minted per iteration;
    * ``functools.partial(...)`` — same, via factory;
    * list/set/dict displays and comprehensions — a container per
      iteration (``list(xs)``-style snapshot *calls* are allowed: a
      mutation-safe copy is semantics, not convenience);
    * ``xs.append(self.on_event)`` where ``on_event`` is a *method* of
      the enclosing class — a bound method minted per iteration;
      prebind it once (``self._cb = self.on_event`` at init) and
      append the prebound slot instead.  Appending a data attribute or
      an already-prebound reference is clean.
    """
    if not ctx.relpath.startswith(_HOT_PATHS):
        return []
    findings = []
    # Map each drain loop to (self_name, method names of the enclosing
    # class) so the bound-method check can tell ``self.method`` apart
    # from ``self.data_slot``.
    loop_self: dict[ast.While, tuple[str, frozenset[str]]] = {}
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = frozenset(
            m.name
            for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not method.args.args:
                continue
            self_name = method.args.args[0].arg
            for sub in ast.walk(method):
                if isinstance(sub, ast.While):
                    loop_self[sub] = (self_name, methods)
    flagged: set[int] = set()
    for loop in ast.walk(ctx.tree):
        if not isinstance(loop, ast.While) or not _is_drain_loop(loop):
            continue
        self_name, methods = loop_self.get(loop, ("", frozenset()))
        _scan_allocations(
            ctx, loop, "a hot drain loop", self_name, methods,
            flagged, findings,
        )
    # The PR 9 flattened machines are the hottest code in the tree but
    # their "loop" is the event heap itself: each state callback runs
    # once per event with no enclosing ``while``.  Apply the same
    # allocation discipline to every method body of a Machine subclass.
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        if not _is_machine_subclass(ctx, cls):
            continue
        methods = frozenset(
            m.name
            for m in cls.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        )
        for method in cls.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if method.name.startswith("__"):
                continue  # __init__ etc. run once per machine, not per event
            if not method.args.args:
                continue
            self_name = method.args.args[0].arg
            _scan_allocations(
                ctx, method,
                f"Machine callback {cls.name}.{method.name}",
                self_name, methods, flagged, findings,
            )
    findings.sort(key=lambda f: (f.line, f.col))
    return findings


def _scan_allocations(
    ctx: LintContext,
    scope: ast.AST,
    where: str,
    self_name: str,
    methods: frozenset[str],
    flagged: set[int],
    findings: list[Finding],
) -> None:
    """Append per-event-allocation findings for everything in ``scope``."""
    def flag(node: ast.AST, message: str) -> None:
        if id(node) in flagged:
            return
        flagged.add(id(node))
        findings.append(ctx.finding(node, "PERF303", message))

    for sub in _walk_local(scope):
        if isinstance(sub, (ast.Lambda, ast.FunctionDef, ast.AsyncFunctionDef)):
            flag(
                sub,
                f"closure created inside {where} — one function object "
                "per event; hoist it out or prebind it",
            )
        elif isinstance(
            sub,
            (
                ast.List,
                ast.Set,
                ast.Dict,
                ast.ListComp,
                ast.SetComp,
                ast.DictComp,
                ast.GeneratorExp,
            ),
        ):
            flag(
                sub,
                f"container literal inside {where} — one allocation per "
                "event; hoist or reuse it",
            )
        elif isinstance(sub, ast.Call):
            dotted = ctx.resolve(sub.func)
            if dotted in _CLOSURE_FACTORIES:
                flag(
                    sub,
                    f"partial() inside {where} — one callable per event; "
                    "prebind it once",
                )
            elif (
                isinstance(sub.func, ast.Attribute)
                and sub.func.attr == "append"
                and any(
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == self_name
                    and arg.attr in methods
                    for arg in sub.args
                )
            ):
                flag(
                    sub,
                    f"bound method minted per event (append(self.method) "
                    f"inside {where}) — prebind the callback once and "
                    "append the prebound reference",
                )


def _is_machine_subclass(ctx: LintContext, cls: ast.ClassDef) -> bool:
    """Does ``cls`` *properly* extend ``repro.sim.machine.Machine``?

    The base class itself is engine infrastructure — its methods are the
    park/charge plumbing with their own allocation discipline (free-list
    pooling), not flattened per-event state callbacks — so it is not
    subject to the callback-body scan.
    """
    own_qual = f"{ctx.module}.{cls.name}"
    if own_qual == "repro.sim.machine.Machine":
        return False
    seen: set[str] = set()
    stack = [own_qual]
    while stack:
        qual = stack.pop()
        if qual in seen:
            continue
        seen.add(qual)
        if qual == "repro.sim.machine.Machine":
            return True
        stack.extend(ctx.bases.get(qual, ()))
    return False
