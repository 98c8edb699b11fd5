"""Dynamic ownership sanitizer: the runtime half of the OWN4xx contract.

The static pass (:mod:`repro.lint.ownership`) classifies every class and
attribute it can see in the AST; this module checks the property the AST
cannot see — *who actually mutates what* during a run.  Mechanism,
parallel to the PR-5 tie-order probe:

1. Every concrete class whose :func:`runtime_role` is node-scoped or
   shared gets its ``__setattr__`` wrapped (class-level patch, like the
   tie-order probe's ``Environment.run`` patch — the tree's ``__slots__``
   discipline rules out per-instance patching).  All originals are
   snapshotted *before* any wrapper is installed so an inherited
   ``__setattr__`` can never capture another class's wrapper.
2. The cluster builder's post-build hook
   (:data:`repro.cluster.builder._POST_BUILD_HOOK`) tags every object
   reachable from a node root with its owning node (``node:i`` /
   ``client``); fabric, shared, and ambient objects are tagged with
   their role and act as traversal barriers.  Objects constructed later
   (connections, in-flight ops, state machines) adopt the owner of the
   nearest registered object on the construction stack.
3. Every attribute mutation is attributed to an *actor* — the nearest
   stack frame whose ``self`` is a registered object.  A mutation is a
   violation iff actor and target are owned by different nodes and the
   (actor class, target class) pair is not a declared
   :data:`~repro.lint.ownership.DYNAMIC_EDGES` fabric edge.  Mutations
   through the target's own methods are by definition performed by the
   owning node's code (a cross-node *call* still serializes through the
   messenger, which is what the static pass checks).

Zero-perturbation rule: the wrapper observes and never schedules, so the
sanitized run's :func:`~repro.trace.simulation_digest` must equal the
plain run's — :class:`SanitizerReport.instrumentation_ok` asserts it,
and runs with the sanitizer off are untouched (no import-time patching).

Limitations (documented, by design): container mutations
(``peer.queue.append(...)``) bypass ``__setattr__``.
"""

from __future__ import annotations

import contextlib
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterator, Optional

from .ownership import (
    AMBIENT_MODULES,
    DYNAMIC_EDGES,
    EDGE_ATTRS,
    MODULE_ROLES,
    ROLE_MANIFEST,
    Role,
    _module_matches,
    is_node_module,
)

__all__ = [
    "OwnershipSanitizer",
    "OwnershipViolation",
    "SanitizerReport",
    "runtime_role",
    "run_sanitized",
]

#: Frame-walk depth bound for actor attribution.
_MAX_FRAMES = 64

#: Recorded violations are capped (a systemic bug would otherwise
#: produce one record per event).
_MAX_VIOLATIONS = 200


def runtime_role(cls: type) -> Role:
    """Role of a *live* class — mirror of the static :func:`role_of`.

    Same resolution order as the static side so the two passes can never
    disagree about a class both can see: class manifest → module
    manifest → structural value heuristics → module defaults.
    """
    qual = f"{cls.__module__}.{cls.__qualname__}"
    entry = ROLE_MANIFEST.get(qual)
    if entry is not None:
        return entry[0]
    mod_role = MODULE_ROLES.get(cls.__module__)
    if mod_role is not None:
        return mod_role
    if cls.__name__.endswith(("Error", "Exception", "Warning")):
        return Role.VALUE
    try:
        if issubclass(cls, BaseException) or issubclass(cls, Enum):
            return Role.VALUE
    except TypeError:  # pragma: no cover - exotic metaclasses
        pass
    if getattr(cls, "_is_protocol", False) or issubclass(cls, tuple):
        return Role.VALUE
    params = getattr(cls, "__dataclass_params__", None)
    if params is not None and params.frozen:
        return Role.VALUE
    if is_node_module(cls.__module__):
        return Role.NODE
    if any(_module_matches(cls.__module__, p) for p in AMBIENT_MODULES):
        return Role.AMBIENT
    return Role.HARNESS


def _tracked_classes() -> list[type]:
    """Concrete node-scoped/shared classes in every imported repro module."""
    out: dict[str, type] = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (
            mod_name == "repro" or mod_name.startswith("repro.")
        ):
            continue
        for obj in list(vars(mod).values()):
            if not isinstance(obj, type) or obj.__module__ != mod_name:
                continue
            if runtime_role(obj) in (Role.NODE, Role.SHARED):
                out[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return [out[q] for q in sorted(out)]


def _qual(cls: type) -> str:
    return f"{cls.__module__}.{cls.__qualname__}"


#: BFS barriers: declared fabric-edge attributes are never traversed
#: (they point into another node by design).
_BARRIER_ATTRS = frozenset(attr for (_cls, attr) in EDGE_ATTRS)


@dataclass(frozen=True)
class OwnershipViolation:
    """One cross-node attribute mutation outside the declared edges."""

    target_cls: str
    attr: str
    target_owner: str
    actor_cls: str
    actor_owner: str

    def render(self) -> str:
        return (
            f"{self.actor_cls} (owner {self.actor_owner}) wrote "
            f"{self.target_cls}.{self.attr} (owner {self.target_owner}) "
            "without crossing the fabric"
        )


@dataclass
class SanitizerReport:
    """Outcome of one sanitized scenario run."""

    scenario: str
    seed: int
    objects_by_owner: dict[str, int] = field(default_factory=dict)
    tracked_classes: int = 0
    mutations: int = 0
    shared_mutations: int = 0
    edge_mutations: int = 0
    violations: list[OwnershipViolation] = field(default_factory=list)
    plain_digest: str = ""
    sanitized_digest: str = ""

    @property
    def instrumentation_ok(self) -> bool:
        """The armed run reproduced the plain digest (zero perturbation)."""
        return (
            self.plain_digest != ""
            and self.plain_digest == self.sanitized_digest
        )

    @property
    def ok(self) -> bool:
        return self.instrumentation_ok and not self.violations

    def render(self) -> str:
        lines = [
            f"ownership sanitizer: scenario={self.scenario} seed={self.seed}",
            f"  tracked classes:   {self.tracked_classes}",
            f"  tagged objects:    {sum(self.objects_by_owner.values())}",
        ]
        for owner in sorted(self.objects_by_owner):
            lines.append(
                f"    {owner:<12} {self.objects_by_owner[owner]}"
            )
        lines.append(
            f"  mutations checked: {self.mutations} "
            f"(shared: {self.shared_mutations}, "
            f"declared edges: {self.edge_mutations})"
        )
        lines.append(
            "  zero-perturbation: "
            + ("ok (digest identical)" if self.instrumentation_ok
               else "FAILED (sanitized digest differs from plain run)")
        )
        if self.violations:
            lines.append(f"  violations: {len(self.violations)}")
            for v in self.violations[:20]:
                lines.append(f"    {v.render()}")
        else:
            lines.append("  violations: 0")
        return "\n".join(lines)


class OwnershipSanitizer:
    """Tags live objects with owners and audits attribute mutations."""

    def __init__(self) -> None:
        #: id(obj) → owner string ("node:0", "client", "shared",
        #: "fabric", "harness").  Strong refs pin ids for the run.
        self._owners: dict[int, str] = {}
        self._refs: list[Any] = []
        self.objects_by_owner: dict[str, int] = {}
        self.mutations = 0
        self.shared_mutations = 0
        self.edge_mutations = 0
        self.violations: list[OwnershipViolation] = []

    # -- tagging ----------------------------------------------------------

    def tag(self, obj: Any, owner: str) -> None:
        """Register ``obj`` as owned by ``owner`` (re-tag allowed)."""
        key = id(obj)
        prev = self._owners.get(key)
        if prev == owner:
            return
        if prev is None:
            self._refs.append(obj)
        else:
            self.objects_by_owner[prev] -= 1
        self._owners[key] = owner
        self.objects_by_owner[owner] = (
            self.objects_by_owner.get(owner, 0) + 1
        )

    def tag_cluster(self, cluster: Any) -> None:
        """Tag everything reachable from a built cluster's node roots.

        Signature matches :data:`repro.cluster.builder._POST_BUILD_HOOK`.
        The monitor is co-located on node 0's CPU (both testbeds), the
        client is its own owner.
        """
        roots: list[tuple[Any, str]] = []
        for seq in (cluster.nodes, cluster.osds, cluster.stores,
                    cluster.proxy_servers):
            for i, obj in enumerate(seq):
                roots.append((obj, f"node:{i}"))
        if cluster.mon is not None:
            roots.append((cluster.mon, "node:0"))
        for obj in (cluster.client, cluster.client_cpu):
            if obj is not None:
                roots.append((obj, "client"))
        for obj, owner in roots:
            self._tag_tree(obj, owner)

    def _tag_tree(self, root: Any, owner: str) -> None:
        stack = [root]
        seen: set[int] = set()
        while stack:
            obj = stack.pop()
            if id(obj) in seen:
                continue
            seen.add(id(obj))
            if isinstance(obj, (list, tuple, set, frozenset)):
                stack.extend(obj)
                continue
            if isinstance(obj, dict):
                stack.extend(obj.values())
                continue
            cls = type(obj)
            if cls.__module__ == "builtins":
                continue
            role = runtime_role(cls)
            if role in (Role.SHARED, Role.FABRIC):
                # Barrier: tagged with the role, never traversed — what
                # lies behind the fabric belongs to other nodes.
                self.tag(obj, role.value)
                continue
            if role is not Role.NODE:
                continue
            prev = self._owners.get(id(obj))
            if prev is None or prev == "harness":
                self.tag(obj, owner)
            for attr, value in _attr_items(obj):
                if attr in _BARRIER_ATTRS:
                    continue
                stack.append(value)

    # -- the mutation check -----------------------------------------------

    def _check(self, target: Any, attr: str) -> None:
        self.mutations += 1
        owners = self._owners
        towner = owners.get(id(target))
        actor: Any = None
        frame = sys._getframe(2)
        depth = 0
        while frame is not None and depth < _MAX_FRAMES:
            code = frame.f_code
            if code.co_varnames[:1] == ("self",):
                obj = frame.f_locals.get("self")
                if obj is not None:
                    if obj is target:
                        if towner is not None:
                            # Own-method mutation: the owning node's
                            # code by definition.
                            return
                        # Still under construction — keep walking to
                        # find the creator and adopt its owner.
                    elif id(obj) in owners:
                        actor = obj
                        break
            frame = frame.f_back
            depth += 1
        if towner is None:
            # First sighting: adopt the creator's owner so objects
            # minted during the run (connections, machines, in-flight
            # ops) inherit their node.
            self.tag(target, owners[id(actor)] if actor is not None
                     else "harness")
            return
        if actor is None:
            return  # harness / module-level code: outside the sim
        aowner = owners[id(actor)]
        if aowner == towner:
            return
        if not (towner.startswith("node:") or towner == "client"):
            if towner == "shared":
                self.shared_mutations += 1
            return
        if not (aowner.startswith("node:") or aowner == "client"):
            return
        pair = (_qual(type(actor)), _qual(type(target)))
        if pair in DYNAMIC_EDGES:
            self.edge_mutations += 1
            return
        if len(self.violations) < _MAX_VIOLATIONS:
            self.violations.append(
                OwnershipViolation(
                    target_cls=pair[1],
                    attr=attr,
                    target_owner=towner,
                    actor_cls=pair[0],
                    actor_owner=aowner,
                )
            )

    # -- arming -----------------------------------------------------------

    @contextlib.contextmanager
    def armed(self) -> Iterator["OwnershipSanitizer"]:
        """Install the ``__setattr__`` wrappers; restore on exit."""
        check = self._check
        # Snapshot every original before installing any wrapper: a
        # subclass snapshotted after its base was patched would capture
        # the base's wrapper and double-check every mutation.
        targets: list[tuple[type, Callable]] = []
        for cls in _tracked_classes():
            if "__setattr__" in cls.__dict__:
                # Defines its own (frozen dataclass, custom guard):
                # patching would change semantics, so it is skipped —
                # frozen classes cannot be mutated anyway.
                continue
            targets.append((cls, cls.__setattr__))
        self.tracked_count = len(targets)
        installed: list[type] = []
        try:
            for cls, orig in targets:
                cls.__setattr__ = _make_wrapper(orig, check)
                installed.append(cls)
            yield self
        finally:
            for cls in installed:
                # None of the patched classes defined their own
                # __setattr__, so deleting restores the inherited slot.
                del cls.__setattr__


def _make_wrapper(orig: Callable, check: Callable) -> Callable:
    def __setattr__(self: Any, name: str, value: Any) -> None:
        check(self, name)
        orig(self, name, value)

    return __setattr__


def _attr_items(obj: Any) -> Iterator[tuple[str, Any]]:
    """(name, value) pairs across ``__dict__`` and every ``__slots__``."""
    d = getattr(obj, "__dict__", None)
    if d is not None:
        yield from list(d.items())
    for klass in type(obj).__mro__:
        slots = getattr(klass, "__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for slot in slots:
            if slot in ("__dict__", "__weakref__"):
                continue
            try:
                yield slot, getattr(obj, slot)
            except AttributeError:
                continue


def run_sanitized(
    scenario: str,
    seed: int = 0,
    runner: Optional[Callable[[str, int], Any]] = None,
) -> SanitizerReport:
    """Run ``scenario`` twice — plain, then armed — and audit ownership.

    ``runner(scenario, seed)`` must build and run the scenario and
    return its :class:`~repro.sim.Environment`; the default uses
    :func:`repro.perf.run_scenario`.  The plain run's digest is the
    zero-perturbation reference the armed run must reproduce.
    """
    from ..cluster import builder as builder_mod
    from ..trace import simulation_digest

    if runner is None:
        from ..perf import run_scenario

        def runner(name: str, s: int) -> Any:
            env, _result = run_scenario(name, seed=s)
            return env

    plain_digest = simulation_digest(runner(scenario, seed))

    san = OwnershipSanitizer()
    prev_hook = builder_mod._POST_BUILD_HOOK
    builder_mod._POST_BUILD_HOOK = san.tag_cluster
    try:
        with san.armed():
            env = runner(scenario, seed)
    finally:
        builder_mod._POST_BUILD_HOOK = prev_hook
    sanitized_digest = simulation_digest(env)

    return SanitizerReport(
        scenario=scenario,
        seed=seed,
        objects_by_owner=dict(san.objects_by_owner),
        tracked_classes=getattr(san, "tracked_count", 0),
        mutations=san.mutations,
        shared_mutations=san.shared_mutations,
        edge_mutations=san.edge_mutations,
        violations=list(san.violations),
        plain_digest=plain_digest,
        sanitized_digest=sanitized_digest,
    )
