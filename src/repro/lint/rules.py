"""The rule catalogue.

Three families, each guarding one of the invariants the reproduction is
load-bearing on (see DESIGN.md §9):

* ``DET1xx`` — determinism: no wall-clock, no ambient entropy, no
  unordered-collection iteration feeding order-sensitive code, no
  identity-keyed ordering, no env reads outside the config boundary.
* ``SIM2xx`` — sim-safety: no real blocking calls inside simulated
  layers; every ``Resource.request()`` must be released on all
  exception paths (the simulated-concurrency analogue of a lock-leak
  checker).
* ``PERF3xx`` — perf-invariants: hot-module classes declare
  ``__slots__``; slotted classes never assign undeclared attributes
  (which would raise ``AttributeError`` at runtime); synchronous
  drain loops in hot modules allocate nothing per event.

Rules are plain functions registered by code; each takes a
:class:`~repro.lint.engine.LintContext` and returns findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Callable, Optional

from .engine import Finding, LintContext, dataclass_slots_decorator
from .ownership import (
    EDGE_ATTRS,
    EDGE_INTERFACE,
    OWN402_ALLOWED,
    Role,
    is_fabric_accessor_call,
    is_node_module,
    ownership_graph,
    role_of,
)

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
    if ctx.relpath in ctx.config.wallclock_modules:
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
    if ctx.relpath in ctx.config.rng_modules:
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


def _lambda_calls(node: ast.Lambda, names: tuple[str, ...]) -> bool:
    return any(
        isinstance(n, ast.Call)
        and isinstance(n.func, ast.Name)
        and n.func.id in names
        for n in ast.walk(node.body)
    )


@rule(
    "DET105",
    "identity-keyed-ordering",
    "id()/hash() used as a sort key",
)
def det105_identity_ordering(ctx: LintContext) -> list[Finding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        fn = node.func
        is_order_call = (
            isinstance(fn, ast.Name) and fn.id in ("sorted", "min", "max")
        ) or (isinstance(fn, ast.Attribute) and fn.attr == "sort")
        if not is_order_call:
            continue
        for kw in node.keywords:
            if kw.arg != "key":
                continue
            bad = (
                isinstance(kw.value, ast.Name) and kw.value.id in ("id", "hash")
            ) or (
                isinstance(kw.value, ast.Lambda)
                and _lambda_calls(kw.value, ("id", "hash"))
            )
            if bad:
                findings.append(
                    ctx.finding(
                        node,
                        "DET105",
                        "ordering keyed on id()/hash() — interpreter-specific "
                        "and PYTHONHASHSEED-dependent; key on a stable field",
                    )
                )
    return findings


@rule(
    "DET106",
    "env-read",
    "environment-variable read outside the CLI/config boundary",
)
def det106_env_read(ctx: LintContext) -> list[Finding]:
    if ctx.relpath in ctx.config.env_modules:
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


@rule(
    "DET107",
    "adversary-own-rng",
    "wire-adversary module owning randomness instead of receiving it",
)
def det107_adversary_rng(ctx: LintContext) -> list[Finding]:
    """Adversary modules must stay RNG-free: every perturbation decision
    has to come from the per-(layer, node) injector stream the FaultPlan
    hands in, or two runs with the same seed diverge the moment the
    adversary is armed.  Flags ``import random``, any ``random.*`` use,
    and ``SeededRng(...)`` construction inside
    ``config.adversary_modules``."""
    if ctx.relpath not in ctx.config.adversary_modules:
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "random":
                    findings.append(
                        ctx.finding(
                            node,
                            "DET107",
                            "adversary module imports random — decisions "
                            "must come from the FaultPlan injector stream",
                        )
                    )
        elif isinstance(node, ast.ImportFrom):
            mod = (node.module or "").split(".")[0]
            if mod == "random" or any(
                alias.name == "SeededRng" for alias in node.names
            ):
                findings.append(
                    ctx.finding(
                        node,
                        "DET107",
                        "adversary module imports its own RNG — decisions "
                        "must come from the FaultPlan injector stream",
                    )
                )
        elif isinstance(node, ast.Call):
            resolved = ctx.resolve(node.func)
            if resolved is not None and (
                resolved.startswith("random.")
                or resolved.split(".")[-1] == "SeededRng"
            ):
                findings.append(
                    ctx.finding(
                        node,
                        "DET107",
                        f"{resolved}() inside an adversary module — use the "
                        "injector stream handed in by FaultPlan.attach_msgr",
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
    if not ctx.config.in_sim_layer(ctx.relpath):
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


def _func_yields(fn: ast.AST) -> bool:
    return any(
        isinstance(n, (ast.Yield, ast.YieldFrom)) for n in _walk_local(fn)
    )


def _is_release_call(node: ast.AST, name: str) -> bool:
    """``pool.finish(req)`` / ``pool.release(req)`` / ``req.release()``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
        return False
    attr = node.func.attr
    if attr in ("finish", "release", "cancel"):
        if any(
            isinstance(arg, ast.Name) and arg.id == name for arg in node.args
        ):
            return True
        if (
            isinstance(node.func.value, ast.Name)
            and node.func.value.id == name
            and not node.args
        ):
            return True
    return False


@rule(
    "SIM202",
    "resource-leak",
    "Resource.request() whose release is not on all exception paths",
)
def sim202_resource_leak(ctx: LintContext) -> list[Finding]:
    if not ctx.config.in_sim_layer(ctx.relpath):
        return []
    findings = []
    functions = [
        n
        for n in ast.walk(ctx.tree)
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    for fn in functions:
        for stmt in _walk_local(fn):
            # ``with pool.request() as req:`` handles its own cleanup.
            if isinstance(stmt, ast.Expr) and _is_request_call(stmt.value):
                findings.append(
                    ctx.finding(
                        stmt,
                        "SIM202",
                        "request() result discarded — the grant can never "
                        "be released",
                    )
                )
                continue
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and _is_request_call(stmt.value)
            ):
                continue
            name = stmt.targets[0].id
            # ``self._req = req`` hands ownership to the instance: a
            # flattened state machine acquires in one state and releases
            # in a later one (or on interrupt), so the function-local
            # leak heuristic does not apply.  The machine's release
            # discipline is pinned by the digest goldens instead.
            escapes = any(
                isinstance(n, ast.Assign)
                and any(
                    isinstance(t, ast.Attribute)
                    and isinstance(t.value, ast.Name)
                    and t.value.id == "self"
                    for t in n.targets
                )
                and isinstance(n.value, ast.Name)
                and n.value.id == name
                for n in _walk_local(fn)
            )
            if escapes:
                continue
            releases = [
                n for n in _walk_local(fn) if _is_release_call(n, name)
            ]
            if not releases:
                findings.append(
                    ctx.finding(
                        stmt,
                        "SIM202",
                        f"request() assigned to '{name}' is never released "
                        "in this function — use try/finally or a with block",
                    )
                )
                continue
            # A release is exception-safe when it sits in a finally suite.
            # For simulated processes (generators), any yield between the
            # request and a bare release is an interrupt window: the
            # release must be in a finally to run on Interrupt.
            safe = any(ctx.in_finally(r) for r in releases)
            if not safe and _func_yields(fn):
                findings.append(
                    ctx.finding(
                        stmt,
                        "SIM202",
                        f"release of '{name}' is not in a finally suite — "
                        "an Interrupt raised at a yield leaks the grant",
                    )
                )
    return findings


def _is_request_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "request"
    )


@rule(
    "SIM203",
    "hold-kept",
    "Request.hold() result neither yielded nor parked in the same statement",
)
def sim203_hold_kept(ctx: LintContext) -> list[Finding]:
    """``req.hold(d)`` *is* ``req``, armed: there is no second object to
    keep.  The contract is to wait on it at once — ``yield req.hold(d)``,
    ``self._park(req.hold(d), state)`` or
    ``req.hold(d).callbacks.append(state)`` — because an armed request
    nobody is parked on is a hold that releases nothing when it fires,
    and a stored result invites waiting on it after the request has
    been released and handed to someone else."""
    if not ctx.config.in_sim_layer(ctx.relpath):
        return []
    findings = []
    for node in ast.walk(ctx.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "hold"
        ):
            continue
        parent = ctx.parents.get(node)
        waited = (
            isinstance(parent, ast.Yield)
            or (isinstance(parent, ast.Call) and node in parent.args)
            or (isinstance(parent, ast.Attribute) and parent.attr == "callbacks")
        )
        if not waited:
            findings.append(
                ctx.finding(
                    node,
                    "SIM203",
                    "hold() result is not waited on where it is made — "
                    "yield it, or park a callback on it, in the same "
                    "statement",
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


@rule(
    "PERF301",
    "missing-slots",
    "hot-module class lacks __slots__",
)
def perf301_missing_slots(ctx: LintContext) -> list[Finding]:
    if not ctx.config.is_hot(ctx.relpath):
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
        is_dc_slotted = dataclass_slots_decorator(node)
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


@rule(
    "PERF302",
    "slot-violation",
    "slotted class assigns an attribute not declared in __slots__",
)
def perf302_slot_violation(ctx: LintContext) -> list[Finding]:
    findings = []
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ClassDef):
            continue
        info = ctx.project.lookup(f"{ctx.module}.{node.name}")
        if info is None or info.slots is None or info.opaque:
            continue
        allowed = ctx.project.resolve_slots(info)
        if allowed is None:
            continue  # some base unslotted/unresolvable: __dict__ possible
        # Class-level names (methods, class attrs) are not instance slots
        # but are readable; only *assignments* through self must hit slots
        # or descriptors.
        for method in node.body:
            if not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not method.args.args:
                continue
            self_name = method.args.args[0].arg
            for sub in _walk_local(method):
                target: Optional[ast.Attribute] = None
                if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        sub.targets
                        if isinstance(sub, ast.Assign)
                        else [sub.target]
                    )
                    for t in targets:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == self_name
                        ):
                            target = t
                            break
                if target is None:
                    continue
                if target.attr not in allowed:
                    findings.append(
                        ctx.finding(
                            target,
                            "PERF302",
                            f"assignment to self.{target.attr} not declared "
                            f"in __slots__ of {node.name} (or its bases) — "
                            "AttributeError at runtime",
                        )
                    )
    return findings


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
    if not ctx.config.is_hot(ctx.relpath):
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
        info = ctx.project.lookup(qual)
        if info is not None:
            stack.extend(info.bases)
    return False


# --------------------------------------------------------------- OWN4xx rules

def _chain_root(expr: ast.expr) -> Optional[ast.expr]:
    """Base of an attribute/call/subscript chain (``a`` in ``a.b().c``)."""
    cur = expr
    while True:
        if isinstance(cur, ast.Attribute):
            cur = cur.value
        elif isinstance(cur, ast.Call):
            cur = cur.func
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        else:
            return cur


def _contains_accessor(expr: ast.expr) -> Optional[ast.Call]:
    """First fabric-accessor call anywhere inside ``expr``."""
    for node in ast.walk(expr):
        if is_fabric_accessor_call(node):
            return node
    return None


def _peer_handles(
    ctx: LintContext,
    graph,
    qual: str,
    method: ast.FunctionDef | ast.AsyncFunctionDef,
) -> dict[str, Optional[str]]:
    """Local names bound to fabric-resolved peer objects → peer class.

    A handle is a variable assigned from a fabric accessor call
    (``directory.lookup(addr)``, ``network.nic(dst)``) or derived from
    another handle (``conn = sender._connections.get(...)``).  The
    derivation pass runs twice so one level of chaining resolves.
    """
    view = graph.view(ctx.module)
    params = view.param_types(method) if view is not None else {}
    own = graph.classes.get(qual)
    handles: dict[str, Optional[str]] = {}
    for _ in range(2):
        for sub in _walk_local(method):
            if not (
                isinstance(sub, ast.Assign)
                and len(sub.targets) == 1
                and isinstance(sub.targets[0], ast.Name)
            ):
                continue
            name = sub.targets[0].id
            value = sub.value
            accessor = _contains_accessor(value)
            if accessor is not None and view is not None:
                handles[name] = graph.accessor_return_class(
                    accessor, view, params, own
                )
                continue
            root = _chain_root(value)
            if (
                isinstance(root, ast.Name)
                and root.id in handles
                and value is not root
            ):
                handles.setdefault(name, None)
    return handles


def _iter_node_methods(ctx: LintContext):
    """(class node, qualname, method) triples for this file's classes."""
    for cls in ast.walk(ctx.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        qual = f"{ctx.module}.{cls.name}"
        for method in cls.body:
            if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls, qual, method


@rule(
    "OWN401",
    "cross-node-reference",
    "node-scoped object holding/mutating another node's object off the "
    "declared fabric edges",
)
def own401_cross_node_reference(ctx: LintContext) -> list[Finding]:
    """The "peer OSD reached without a wire" bug, caught three ways.

    (1) Storing a fabric-resolved peer reference on ``self`` keeps a
    direct pointer across the future shard boundary: only attributes
    declared in :data:`repro.lint.ownership.EDGE_ATTRS` may do it.
    (2) Mutating an attribute *through* a peer handle bypasses the wire
    entirely.  (3) In the cluster builder, a node-scoped instance
    constructed once must not fan out into several per-node
    constructors (constructor-argument flow analysis) — that aliasing
    is exactly what makes a shard cut unsound.
    """
    if not is_node_module(ctx.module):
        return []
    graph = ownership_graph(ctx.project, ctx.config)
    findings = list(_builder_flow_findings(ctx, graph))
    for _cls, qual, method in _iter_node_methods(ctx):
        own = graph.classes.get(qual)
        if own is not None and own.role is not Role.NODE:
            continue
        handles = _peer_handles(ctx, graph, qual, method)
        self_name = method.args.args[0].arg if method.args.args else ""
        for sub in _walk_local(method):
            # (1) self.<attr> = <fabric-resolved peer>
            if isinstance(sub, ast.Assign):
                value = sub.value
                is_peer_value = _contains_accessor(value) is not None or (
                    isinstance(value, ast.Name) and value.id in handles
                )
                if not is_peer_value:
                    continue
                for t in sub.targets:
                    if not (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == self_name
                    ):
                        continue
                    if (qual, t.attr) in EDGE_ATTRS:
                        continue
                    findings.append(
                        ctx.finding(
                            t,
                            "OWN401",
                            f"self.{t.attr} stores a fabric-resolved peer "
                            "reference — a direct cross-node pointer; "
                            "declare it in ownership.EDGE_ATTRS or "
                            "resolve the peer per use",
                        )
                    )
            # (2) <handle>.<attr> = ... / augmented mutation
            elif isinstance(sub, ast.Attribute) and isinstance(
                sub.ctx, (ast.Store, ast.Del)
            ):
                root = _chain_root(sub.value)
                via_handle = (
                    isinstance(root, ast.Name) and root.id in handles
                ) or _contains_accessor(sub.value) is not None
                if via_handle:
                    findings.append(
                        ctx.finding(
                            sub,
                            "OWN401",
                            f"mutates .{sub.attr} on another node's object "
                            "without crossing the wire — send a message "
                            "or declare the edge in the ownership "
                            "manifest",
                        )
                    )
    return findings


def _builder_flow_findings(ctx: LintContext, graph) -> list[Finding]:
    """Constructor-argument flow through the cluster builder.

    Tags every local constructed in a builder function as per-node
    (built inside a ``for`` loop) or shared (built outside), then flags
    a node-scoped shared instance — or another iteration's instance —
    flowing into a node-scoped constructor inside a loop.
    """
    if not ctx.module.startswith("repro.cluster"):
        return []
    view = graph.view(ctx.module)
    if view is None:
        return []
    findings: list[Finding] = []

    def class_of_call(call: ast.Call) -> Optional[str]:
        dotted = view.resolve(call.func)
        if dotted is not None and dotted.rpartition(".")[2][:1].isupper():
            return dotted
        if (
            isinstance(call.func, ast.Name)
            and call.func.id in view.func_defs
        ):
            helper = view.func_defs[call.func.id]
            if helper.returns is not None:
                return view.resolve_annotation(helper.returns)
        return None

    def role_of_class(dotted: Optional[str]) -> Optional[Role]:
        if dotted is None:
            return None
        return role_of(dotted, ctx.project.lookup(dotted))[0]

    for fn in ctx.tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        tags: dict[str, tuple[str, object]] = {}

        def check_calls(stmt: ast.stmt, loop: Optional[int]) -> None:
            if loop is None:
                return
            for call in ast.walk(stmt):
                if not isinstance(call, ast.Call):
                    continue
                if role_of_class(class_of_call(call)) is not Role.NODE:
                    continue
                args = list(call.args) + [kw.value for kw in call.keywords]
                for arg in args:
                    if not (isinstance(arg, ast.Name) and arg.id in tags):
                        continue
                    kind, detail = tags[arg.id]
                    if kind == "outer" and detail is Role.NODE:
                        findings.append(
                            ctx.finding(
                                call,
                                "OWN401",
                                f"node-scoped instance '{arg.id}' built "
                                "once outside the loop flows into a "
                                "per-node constructor — every node would "
                                "alias the same object across the shard "
                                "boundary",
                            )
                        )
                    elif kind == "pernode" and detail != loop:
                        findings.append(
                            ctx.finding(
                                call,
                                "OWN401",
                                f"'{arg.id}' belongs to a different "
                                "build loop's node — cross-node "
                                "constructor aliasing",
                            )
                        )

        def record(stmt: ast.stmt, loop: Optional[int]) -> None:
            if not (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                return
            role = role_of_class(class_of_call(stmt.value))
            if role is None:
                return
            name = stmt.targets[0].id
            if loop is not None and role is Role.NODE:
                tags[name] = ("pernode", loop)
            else:
                tags[name] = ("outer", role)

        def visit(stmts: list[ast.stmt], loop: Optional[int]) -> None:
            for stmt in stmts:
                if isinstance(
                    stmt,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
                ):
                    continue
                if isinstance(stmt, ast.For):
                    visit(stmt.body, id(stmt))
                    visit(stmt.orelse, loop)
                    continue
                check_calls(stmt, loop)
                record(stmt, loop)
                for suite in ("body", "orelse", "finalbody"):
                    inner = getattr(stmt, suite, None)
                    if inner:
                        visit(inner, loop)
                for handler in getattr(stmt, "handlers", []) or []:
                    visit(handler.body, loop)

        visit(fn.body, None)
    return findings


#: Module-level mutable container factories (shard-unsafe singletons).
_MUTABLE_FACTORIES = frozenset(
    {
        "dict", "list", "set", "bytearray", "deque", "defaultdict",
        "OrderedDict", "Counter",
    }
)


@rule(
    "OWN402",
    "module-level-mutable-state",
    "module-level mutable container reachable from node-scoped code",
)
def own402_module_mutable_state(ctx: LintContext) -> list[Finding]:
    """A global dict/list/cache in a node-scoped module is a singleton
    every shard would share: writes from two shards race the moment the
    engine is partitioned, and even today it lets state leak between
    nodes that never crossed the wire.  Write-once registries must be
    declared in :data:`repro.lint.ownership.OWN402_ALLOWED`."""
    if not is_node_module(ctx.module):
        return []
    findings = []
    for stmt in ctx.tree.body:
        targets: list[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        if value is None:
            continue
        mutable = isinstance(
            value,
            (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
             ast.SetComp),
        ) or (
            isinstance(value, ast.Call)
            and (
                (isinstance(value.func, ast.Name)
                 and value.func.id in _MUTABLE_FACTORIES)
                or (isinstance(value.func, ast.Attribute)
                    and value.func.attr in _MUTABLE_FACTORIES)
            )
        )
        if not mutable:
            continue
        for t in targets:
            if not isinstance(t, ast.Name) or t.id == "__all__":
                continue
            if (ctx.module, t.id) in OWN402_ALLOWED:
                continue
            findings.append(
                ctx.finding(
                    stmt,
                    "OWN402",
                    f"module-level mutable container '{t.id}' in a "
                    "node-scoped module — a cross-shard singleton; move "
                    "it onto a node-owned object or declare it in "
                    "ownership.OWN402_ALLOWED with a justification",
                )
            )
    return findings


@rule(
    "OWN403",
    "cross-node-read",
    "handler code reading another node's non-frozen attributes",
)
def own403_cross_node_read(ctx: LintContext) -> list[Finding]:
    """Reads through a fabric-resolved peer handle see state the wire
    never carried: under sharding the peer lives in another process and
    the read returns stale (or unserializable) data.  The allowed
    surface is the declared wire interface
    (:data:`repro.lint.ownership.EDGE_INTERFACE`); reads of frozen
    peer types are safe (immutable after construction)."""
    if not is_node_module(ctx.module):
        return []
    graph = ownership_graph(ctx.project, ctx.config)
    findings = []
    for _cls, qual, method in _iter_node_methods(ctx):
        own = graph.classes.get(qual)
        if own is not None and own.role is not Role.NODE:
            continue
        handles = _peer_handles(ctx, graph, qual, method)
        for sub in _walk_local(method):
            if not (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.ctx, ast.Load)
            ):
                continue
            peer_cls: Optional[str] = None
            if isinstance(sub.value, ast.Name) and sub.value.id in handles:
                peer_cls = handles[sub.value.id]
            elif is_fabric_accessor_call(sub.value):
                view = graph.view(ctx.module)
                if view is not None:
                    peer_cls = graph.accessor_return_class(
                        sub.value, view, view.param_types(method),
                        own,
                    )
            else:
                continue
            if sub.attr in EDGE_INTERFACE:
                continue
            info = (
                ctx.project.lookup(peer_cls) if peer_cls is not None else None
            )
            if info is not None and info.frozen:
                continue
            findings.append(
                ctx.finding(
                    sub,
                    "OWN403",
                    f"reads .{sub.attr} on a fabric-resolved peer — not "
                    "part of the declared wire interface; request it "
                    "over the wire or add it to ownership.EDGE_INTERFACE "
                    "with a justification",
                )
            )
    return findings
