"""Whole-program ownership analysis: proves the sim is shardable.

ROADMAP item 1 partitions the event engine into per-node-group shards
that run in parallel and merge digest-identically.  That refactor is
only sound if every mutable object is owned by exactly one node and
every cross-node interaction goes through the network fabric — DoCeph's
own host/DPU offload rests on the same property.  This module answers
the ownership question statically, across the whole tree at once:

* every class in the node-scoped modules (``hw/``, ``osd/``, ``msgr/``,
  ``cluster/``, ``core/``, ``objectstore/``, ``rados/``) gets a
  **role** — node-scoped, fabric, ambient, shared, value, or harness;
* every attribute of every node-scoped class gets a **classification**
  (node-local, fabric edge, ambient, shared, value) by tracing
  constructor-argument and assignment flow across modules through the
  :class:`~repro.lint.engine.ProjectIndex`;
* the cluster builder's constructor-argument flow is analysed so a
  node-scoped instance built once cannot silently fan out into several
  nodes' constructors;
* handler code that resolves a peer through a fabric accessor
  (``directory.lookup``, ``network.nic``) is checked against the
  declared wire interface.

Violations surface as OWN4xx findings (see :mod:`repro.lint.rules`);
every legitimate crossing is **declared** below, in one auditable
manifest, so the sharding PR can read the full edge list off this file.

The runtime counterpart is :mod:`repro.lint.sanitizer`, which tags live
objects with their owning node and checks every attribute mutation
against the same manifest.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .engine import (
    ClassInfo,
    LintConfig,
    ProjectIndex,
    _build_import_table,
    dataclass_slots_decorator,
)

__all__ = [
    "Role",
    "ROLE_MANIFEST",
    "MODULE_ROLES",
    "EDGE_ATTRS",
    "EDGE_INTERFACE",
    "DYNAMIC_EDGES",
    "FABRIC_ACCESSORS",
    "OWN402_ALLOWED",
    "AttrInfo",
    "ClassOwnership",
    "OwnershipGraph",
    "ownership_graph",
    "role_of",
    "is_node_module",
    "render_report",
]


class Role(Enum):
    """What a class's instances are, for shard-partitioning purposes."""

    #: Owned by exactly one node (or the client); lives in that shard.
    NODE = "node"
    #: The wire itself: address routing, partitions, delivery. The
    #: shard boundary — fabric objects are reachable from every shard.
    FABRIC = "fabric"
    #: Simulation infrastructure every shard shares read-mostly:
    #: Environment, Tracer, RNG streams, fault plans, profiles.
    AMBIENT = "ambient"
    #: Explicitly manifested cross-node mutable state.  The sharding PR
    #: must replicate or serialize these (epoch-versioned OsdMap).
    SHARED = "shared"
    #: Pass-by-value payloads: messages, frames, buffers, records.
    #: Ownership transfers with delivery; never aliased across nodes
    #: for mutation.
    VALUE = "value"
    #: Build/bench apparatus that exists outside the simulated world.
    HARNESS = "harness"


#: Module prefixes whose classes default to :attr:`Role.NODE`.
NODE_MODULES: tuple[str, ...] = (
    "repro.hw",
    "repro.osd",
    "repro.msgr",
    "repro.cluster",
    "repro.core",
    "repro.objectstore",
    "repro.rados",
)

#: Module prefixes whose classes default to :attr:`Role.AMBIENT`.
AMBIENT_MODULES: tuple[str, ...] = (
    "repro.sim",
    "repro.trace",
    "repro.util",
    "repro.faults",
    "repro.lint",
)

#: Whole-module role overrides (checked after class-level entries).
MODULE_ROLES: dict[str, Role] = {
    # In-flight payloads: ownership transfers with delivery.
    "repro.msgr.message": Role.VALUE,
    "repro.rados.types": Role.VALUE,
    # Placement state embedded in the shared OsdMap.
    "repro.crush.map": Role.SHARED,
    "repro.crush.buckets": Role.SHARED,
    # Calibrated profiles and offload policies: immutable config.
    "repro.cluster.config": Role.AMBIENT,
    "repro.cluster.strategy": Role.AMBIENT,
}

#: Class-level role overrides: dotted name → (role, justification).
#: This is the authoritative half of the ownership manifest — every
#: entry is a reviewed decision, not an inference.
ROLE_MANIFEST: dict[str, tuple[Role, str]] = {
    # -- fabric: the shard boundary itself --------------------------------
    "repro.hw.net.Network": (
        Role.FABRIC,
        "address→NIC routing, latency, partitions: the wire every "
        "cross-node byte crosses",
    ),
    "repro.hw.net.Partition": (
        Role.FABRIC,
        "a fault of the wire, not of any node",
    ),
    "repro.msgr.messenger.MsgrDirectory": (
        Role.FABRIC,
        "address→messenger registry: every cross-node send resolves "
        "its peer here",
    ),
    # -- shared: manifested cross-node mutable state ----------------------
    "repro.rados.osdmap.OsdMap": (
        Role.SHARED,
        "cluster metadata handed by reference to mon, every OSD and "
        "the client; the sharding PR must replicate it by epoch",
    ),
    "repro.rados.osdmap.OsdInfo": (
        Role.SHARED,
        "per-OSD record inside the shared OsdMap, mutated by the mon",
    ),
    # -- harness ----------------------------------------------------------
    "repro.cluster.builder.Cluster": (
        Role.HARNESS,
        "build/bench apparatus holding every node; not simulated state",
    ),
    # -- values and config inside node-scoped modules ---------------------
    "repro.msgr.messenger.WireFrame": (
        Role.VALUE,
        "bytes in flight; the sender's resend window owns the pristine "
        "copy",
    ),
    "repro.msgr.messenger.MessengerCostModel": (
        Role.AMBIENT,
        "calibrated per-message CPU costs, immutable after build",
    ),
    "repro.osd.daemon.OsdConfig": (
        Role.AMBIENT,
        "tuning constants shared read-only by every OSD",
    ),
    "repro.osd.opqueue.QosSpec": (
        Role.AMBIENT,
        "per-tenant mClock policy tags, immutable after registration",
    ),
    "repro.objectstore.api.Transaction": (
        Role.VALUE,
        "a batch of store ops handed to exactly one store",
    ),
    "repro.objectstore.api.TxnOp": (Role.VALUE, "one op in a Transaction"),
    "repro.objectstore.api.StatResult": (Role.VALUE, "read-only stat reply"),
    "repro.rados.client.OpResult": (Role.VALUE, "read-only op outcome"),
    "repro.hw.cpu.CpuSnapshot": (Role.VALUE, "point-in-time counters copy"),
}

#: Fabric accessor methods: calling one resolves an object owned by a
#: (potentially) different node.  Maps method name → default dotted
#: class of the returned peer object.
FABRIC_ACCESSORS: dict[str, str] = {
    "lookup": "repro.msgr.messenger.AsyncMessenger",
    "nic": "repro.hw.net.Nic",
}

#: Declared attribute-level fabric edges: a node-scoped class is allowed
#: to *store* a fabric-resolved peer reference in these attributes.
EDGE_ATTRS: dict[tuple[str, str], str] = {
    ("repro.msgr.messenger._WirePump", "_tx_pipe"):
        "own NIC tx pipe, re-resolved through the fabric per frame",
    ("repro.msgr.messenger._WirePump", "_rx_pipe"):
        "peer NIC rx pipe, held only for one frame's flight — this is "
        "where wire bytes land: the pump starts the pipe's own chunk "
        "machines (rx_chunk) and hands them back joined (rx_release)",
}

#: The wire interface: attribute reads/calls that ARE the fabric edge.
#: Anything a node does to a fabric-resolved peer beyond this list is a
#: shard-partitioning hazard (OWN401/OWN403).
EDGE_INTERFACE: dict[str, str] = {
    "_enqueue_incoming":
        "frame delivery: bytes land in the peer messenger's receive "
        "path",
    "_skip_seq":
        "sender declares a wire-consumed seq gone so the peer can "
        "advance past the hole (reverse control channel)",
    "handle_nack":
        "receiver-driven retransmit request riding the established "
        "connection (models TCP SACK)",
    "reset":
        "session reset signalled on the reverse channel",
    "epoch":
        "connection-incarnation check before using the reverse channel",
    "down":
        "peer liveness check (models TCP RST visibility)",
    "_connections":
        "resolving the sender-side connection behind a stream for the "
        "reverse channel",
    "rx": "NIC receive pipe: where incoming wire bytes land",
    "tx": "NIC transmit pipe",
    "address": "immutable endpoint identity",
}

#: Runtime fabric edges for the sanitizer: (actor class, target class)
#: pairs allowed to mutate across node owners.  The shipped tree needs
#: none: the one it had, ``_RxChunk`` charging the peer NIC's rx
#: ``BandwidthPipe``, closed when chunk machines moved to the rx pipe's
#: own free list — a chunk is now minted inside, owned by and recycled
#: to the pipe it charges, and the sender only *calls*
#: ``rx_chunk``/``rx_release`` through the declared ``_rx_pipe`` edge.
DYNAMIC_EDGES: dict[tuple[str, str], str] = {}

#: Module-level mutable state in node-scoped modules that is exempt
#: from OWN402, with justification.
OWN402_ALLOWED: dict[tuple[str, str], str] = {
    ("repro.cluster.strategy", "_REGISTRY"):
        "write-once offload-strategy registry, populated at import "
        "time and read-only thereafter",
    ("repro.msgr.message", "_REGISTRY"):
        "write-once message-type codec registry, populated by class "
        "decorators at import time and read-only thereafter",
}

#: Bases whose subclasses are plain values regardless of module.
_VALUE_BASES = frozenset(
    {
        "Exception",
        "BaseException",
        "Enum",
        "IntEnum",
        "StrEnum",
        "Flag",
        "IntFlag",
        "Protocol",
        "NamedTuple",
    }
)


def _module_matches(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


def is_node_module(module: str) -> bool:
    """Does ``module`` default its classes to node-scoped ownership?"""
    return any(_module_matches(module, p) for p in NODE_MODULES)


def role_of(qualname: str, info: Optional[ClassInfo] = None) -> tuple[Role, str]:
    """(role, justification) for a dotted class name.

    Resolution order: class manifest → module manifest → structural
    value heuristics (exceptions, enums, frozen dataclasses) → module
    defaults.
    """
    entry = ROLE_MANIFEST.get(qualname)
    if entry is not None:
        return entry
    module, _, name = qualname.rpartition(".")
    mod_role = MODULE_ROLES.get(module)
    if mod_role is not None:
        return mod_role, f"module manifest: {module}"
    if name.endswith(("Error", "Exception", "Warning")):
        return Role.VALUE, "exception type"
    if info is not None:
        basenames = {b.rpartition(".")[2] for b in info.bases}
        if basenames & _VALUE_BASES:
            return Role.VALUE, "enum/exception/protocol"
        if info.frozen:
            return Role.VALUE, "frozen dataclass"
    if is_node_module(module):
        return Role.NODE, "node-scoped module default"
    if any(_module_matches(module, p) for p in AMBIENT_MODULES):
        return Role.AMBIENT, "simulation-infrastructure module"
    return Role.HARNESS, "outside the modelled tree"


#: Buckets an attribute classification can land in.
_BUCKET_FOR_ROLE = {
    Role.NODE: "node",
    Role.FABRIC: "fabric",
    Role.AMBIENT: "ambient",
    Role.SHARED: "shared",
    Role.VALUE: "value",
    Role.HARNESS: "ambient",  # harness refs inside the sim: env-like
}

#: Builtins whose call result is a node-local container/scalar.
_LOCAL_BUILTINS = frozenset(
    {
        "dict", "list", "set", "frozenset", "tuple", "deque",
        "defaultdict", "OrderedDict", "Counter", "int", "float", "str",
        "bool", "bytes", "bytearray", "min", "max", "len", "abs",
        "round", "sum", "id", "object",
    }
)


@dataclass
class AttrInfo:
    """Classification of one attribute of a node-scoped class."""

    name: str
    #: local | node | fabric | ambient | shared | value | accessor |
    #: unknown
    bucket: str
    #: Dotted class of the referenced object, when resolvable.
    cls: Optional[str] = None
    #: Human-readable origin ("param env", "constructed", "literal").
    origin: str = ""
    line: int = 0


@dataclass
class ClassOwnership:
    """Role + per-attribute classification for one class."""

    qualname: str
    role: Role
    role_reason: str
    attrs: dict[str, AttrInfo] = field(default_factory=dict)

    def bucket_counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for a in self.attrs.values():
            out[a.bucket] = out.get(a.bucket, 0) + 1
        return dict(sorted(out.items()))


class OwnershipGraph:
    """Whole-program reference graph over the node-scoped modules."""

    def __init__(self, project: ProjectIndex) -> None:
        self.project = project
        self.classes: dict[str, ClassOwnership] = {}
        #: (class qualname, accessor method) → dotted return class,
        #: from return annotations (fixture/project directories).
        self.accessor_returns: dict[tuple[str, str], str] = {}
        self._views: dict[str, "_ModuleView"] = {}
        self._in_progress: set[str] = set()

    def view(self, module: str) -> Optional["_ModuleView"]:
        """The parsed-module view for ``module`` (``None`` if not indexed)."""
        return self._views.get(module)

    # -- construction -----------------------------------------------------

    def build(self) -> "OwnershipGraph":
        for module, (relpath, tree) in sorted(self.project.modules.items()):
            if not is_node_module(module):
                continue
            view = _ModuleView(module, tree)
            self._views[module] = view
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    self._record_accessors(view, node)
        for module, view in sorted(self._views.items()):
            for node in view.tree.body:
                if isinstance(node, ast.ClassDef):
                    self.classify_class(f"{module}.{node.name}")
        return self

    def _record_accessors(self, view: "_ModuleView", node: ast.ClassDef) -> None:
        qual = f"{view.module}.{node.name}"
        for stmt in node.body:
            if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if stmt.name not in FABRIC_ACCESSORS or stmt.returns is None:
                continue
            dotted = view.resolve_annotation(stmt.returns)
            if dotted is not None:
                self.accessor_returns[(qual, stmt.name)] = dotted

    def classify_class(self, qualname: str) -> Optional[ClassOwnership]:
        """Classify ``qualname`` (memoized; cycle-safe)."""
        done = self.classes.get(qualname)
        if done is not None:
            return done
        if qualname in self._in_progress:
            return None
        module, _, name = qualname.rpartition(".")
        view = self._views.get(module)
        info = self.project.lookup(qualname)
        role, reason = role_of(qualname, info)
        own = ClassOwnership(qualname=qualname, role=role, role_reason=reason)
        self.classes[qualname] = own
        if view is None or role is not Role.NODE:
            return own
        node = view.class_defs.get(name)
        if node is None:
            return own
        self._in_progress.add(qualname)
        try:
            self._classify_attrs(view, node, own)
        finally:
            self._in_progress.discard(qualname)
        return own

    def _classify_attrs(
        self, view: "_ModuleView", node: ast.ClassDef, own: ClassOwnership
    ) -> None:
        # Dataclass fields: the value is whatever the builder passes in,
        # so classify by the annotated type's role (same as a ctor
        # param).
        is_dataclass = dataclass_slots_decorator(node) is not None
        if is_dataclass:
            for stmt in node.body:
                if not (
                    isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ):
                    continue
                ann = ast.unparse(stmt.annotation)
                if "ClassVar" in ann.split("[")[0]:
                    continue
                dotted = view.resolve_annotation(stmt.annotation)
                bucket, cls = self._bucket_for_class(dotted)
                own.attrs[stmt.target.id] = AttrInfo(
                    name=stmt.target.id,
                    bucket=bucket,
                    cls=cls,
                    origin=f"field: {ann}",
                    line=stmt.lineno,
                )
        methods = [
            m
            for m in node.body
            if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        methods.sort(key=lambda m: (m.name != "__init__",))
        for method in methods:
            params = view.param_types(method)
            self_name = method.args.args[0].arg if method.args.args else ""
            for stmt in ast.walk(method):
                target: Optional[ast.Attribute] = None
                value: Optional[ast.expr] = None
                if isinstance(stmt, ast.Assign):
                    for t in stmt.targets:
                        if (
                            isinstance(t, ast.Attribute)
                            and isinstance(t.value, ast.Name)
                            and t.value.id == self_name
                        ):
                            target, value = t, stmt.value
                            break
                elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                    t = stmt.target
                    if (
                        isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == self_name
                    ):
                        target, value = t, stmt.value
                if target is None or value is None:
                    continue
                bucket, cls, origin = self._classify_expr(
                    value, view, params, own
                )
                prev = own.attrs.get(target.attr)
                if prev is None or (
                    prev.bucket == "unknown" and bucket != "unknown"
                ):
                    own.attrs[target.attr] = AttrInfo(
                        name=target.attr,
                        bucket=bucket,
                        cls=cls,
                        origin=origin,
                        line=target.lineno,
                    )

    def _bucket_for_class(
        self, dotted: Optional[str]
    ) -> tuple[str, Optional[str]]:
        if dotted is None:
            return "unknown", None
        role, _ = role_of(dotted, self.project.lookup(dotted))
        return _BUCKET_FOR_ROLE[role], dotted

    def _classify_expr(
        self,
        expr: ast.expr,
        view: "_ModuleView",
        params: dict[str, Optional[str]],
        own: ClassOwnership,
    ) -> tuple[str, Optional[str], str]:
        """(bucket, referenced class, origin) for one assigned value."""
        if isinstance(expr, (
            ast.Constant, ast.List, ast.Tuple, ast.Dict, ast.Set,
            ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp,
            ast.JoinedStr, ast.Compare, ast.BoolOp, ast.BinOp,
            ast.UnaryOp,
        )):
            return "local", None, "literal"
        if isinstance(expr, ast.IfExp):
            return self._classify_expr(expr.body, view, params, own)
        if isinstance(expr, ast.Call):
            if is_fabric_accessor_call(expr):
                cls = self.accessor_return_class(expr, view, params, own)
                return "accessor", cls, "fabric accessor result"
            dotted = view.resolve_call(expr.func)
            if dotted is not None:
                tail = dotted.rpartition(".")[2]
                if tail in _LOCAL_BUILTINS:
                    return "local", None, f"{tail}()"
                if tail[:1].isupper():
                    # Constructing the object here makes it a node-local
                    # child regardless of the class's own role.
                    return "local", dotted, f"constructed {tail}(...)"
            if isinstance(expr.func, ast.Name):
                if expr.func.id in _LOCAL_BUILTINS:
                    return "local", None, f"{expr.func.id}()"
                if expr.func.id[:1].isupper():
                    return "local", None, f"constructed {expr.func.id}(...)"
            return "unknown", None, "call"
        if isinstance(expr, ast.Name):
            if expr.id in params:
                dotted = params[expr.id]
                bucket, cls = self._bucket_for_class(dotted)
                return bucket, cls, f"param {expr.id}"
            return "unknown", None, f"name {expr.id}"
        if isinstance(expr, ast.Attribute):
            base = expr.value
            if isinstance(base, ast.Name):
                if base.id in params:
                    # one cross-class hop: param's class, then its attr
                    dotted = params[base.id]
                    hop = self._attr_of(dotted, expr.attr)
                    if hop is not None:
                        return hop.bucket, hop.cls, (
                            f"param {base.id}.{expr.attr} "
                            f"(via {dotted})"
                        )
                    return "unknown", None, f"param {base.id}.{expr.attr}"
                # self.y → copy of y's classification
                sibling = own.attrs.get(expr.attr)
                if sibling is not None:
                    return sibling.bucket, sibling.cls, f"self.{expr.attr}"
            dotted = view.resolve(expr)
            if dotted is not None:
                return "local", None, f"module ref {dotted}"
            return "unknown", None, "attribute"
        return "unknown", None, type(expr).__name__.lower()

    def _attr_of(self, qualname: Optional[str], attr: str) -> Optional[AttrInfo]:
        if qualname is None:
            return None
        own = self.classify_class(qualname)
        if own is None:
            return None
        return own.attrs.get(attr)

    def accessor_return_class(
        self,
        call: ast.Call,
        view: "_ModuleView",
        params: dict[str, Optional[str]],
        own: Optional[ClassOwnership],
    ) -> Optional[str]:
        """Dotted class an accessor call resolves to, best effort."""
        assert isinstance(call.func, ast.Attribute)
        method = call.func.attr
        receiver = call.func.value
        recv_cls: Optional[str] = None
        if isinstance(receiver, ast.Name) and receiver.id in params:
            recv_cls = params[receiver.id]
        elif (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and own is not None
        ):
            sibling = own.attrs.get(receiver.attr)
            if sibling is not None:
                recv_cls = sibling.cls
        if recv_cls is not None:
            annotated = self.accessor_returns.get((recv_cls, method))
            if annotated is not None:
                return annotated
        return FABRIC_ACCESSORS.get(method)

    # -- report -----------------------------------------------------------

    def node_classes(self) -> list[ClassOwnership]:
        return [
            c for c in self.classes.values() if c.role is Role.NODE
        ]


def is_fabric_accessor_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in FABRIC_ACCESSORS
    )


class _ModuleView:
    """Per-module name resolution for the graph builder."""

    def __init__(self, module: str, tree: ast.Module) -> None:
        self.module = module
        self.tree = tree
        self.imports = _build_import_table(tree, module)
        self.class_defs: dict[str, ast.ClassDef] = {
            n.name: n for n in tree.body if isinstance(n, ast.ClassDef)
        }
        self.func_defs: dict[str, ast.FunctionDef] = {
            n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)
        }

    def resolve(self, node: ast.AST) -> Optional[str]:
        if isinstance(node, ast.Name):
            if node.id in self.imports:
                return self.imports[node.id]
            if node.id in self.class_defs:
                return f"{self.module}.{node.id}"
            return None
        if isinstance(node, ast.Attribute):
            base = self.resolve(node.value)
            if base is not None:
                return f"{base}.{node.attr}"
        return None

    def resolve_call(self, func: ast.expr) -> Optional[str]:
        return self.resolve(func)

    def resolve_annotation(self, ann: ast.expr) -> Optional[str]:
        """Dotted class named by a (possibly string/Optional) annotation."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        if isinstance(ann, ast.Subscript):
            head = ann.value
            name = head.attr if isinstance(head, ast.Attribute) else (
                head.id if isinstance(head, ast.Name) else ""
            )
            if name in ("Optional", "Annotated"):
                inner = ann.slice
                if isinstance(inner, ast.Tuple) and inner.elts:
                    inner = inner.elts[0]
                return self.resolve_annotation(inner)
            return None  # containers: the element isn't the attr itself
        if isinstance(ann, ast.BinOp) and isinstance(ann.op, ast.BitOr):
            left = self.resolve_annotation(ann.left)
            if left is not None:
                return left
            return self.resolve_annotation(ann.right)
        if isinstance(ann, (ast.Name, ast.Attribute)):
            return self.resolve(ann)
        return None

    def param_types(
        self, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> dict[str, Optional[str]]:
        """Param name → dotted annotated class (skipping ``self``)."""
        out: dict[str, Optional[str]] = {}
        args = list(fn.args.posonlyargs) + list(fn.args.args) + list(
            fn.args.kwonlyargs
        )
        for i, arg in enumerate(args):
            if i == 0 and arg.arg in ("self", "cls"):
                continue
            out[arg.arg] = (
                self.resolve_annotation(arg.annotation)
                if arg.annotation is not None
                else None
            )
        return out


def ownership_graph(
    project: ProjectIndex, config: Optional[LintConfig] = None
) -> OwnershipGraph:
    """Build (or fetch the cached) ownership graph for this lint run."""
    cached = project.cache.get("ownership")
    if isinstance(cached, OwnershipGraph):
        return cached
    graph = OwnershipGraph(project).build()
    project.cache["ownership"] = graph
    return graph


# ----------------------------------------------------------------- report

def render_report(graph: OwnershipGraph) -> str:
    """Human-readable per-node ownership report for ``--ownership``."""
    lines: list[str] = []
    by_role: dict[Role, list[ClassOwnership]] = {}
    for own in graph.classes.values():
        by_role.setdefault(own.role, []).append(own)
    total = len(graph.classes)
    summary = ", ".join(
        f"{len(by_role.get(r, []))} {r.value}"
        for r in (
            Role.NODE, Role.FABRIC, Role.SHARED, Role.AMBIENT,
            Role.VALUE, Role.HARNESS,
        )
        if by_role.get(r)
    )
    lines.append(f"ownership report — {total} classes: {summary}")
    lines.append("")
    lines.append("node-scoped classes (attribute classification):")
    for own in sorted(by_role.get(Role.NODE, []), key=lambda c: c.qualname):
        counts = own.bucket_counts()
        shown = " ".join(f"{k}={v}" for k, v in counts.items()) or "no attrs"
        lines.append(f"  {own.qualname}: {shown}")
        for a in sorted(own.attrs.values(), key=lambda a: a.name):
            if a.bucket in ("fabric", "shared", "accessor"):
                lines.append(
                    f"    .{a.name} → {a.bucket}"
                    + (f" ({a.cls})" if a.cls else "")
                    + (f" [{a.origin}]" if a.origin else "")
                )
    for role, title in (
        (Role.FABRIC, "fabric (the shard boundary)"),
        (Role.SHARED, "shared (manifested cross-node mutable state)"),
    ):
        entries = by_role.get(role, [])
        if not entries:
            continue
        lines.append("")
        lines.append(f"{title}:")
        for own in sorted(entries, key=lambda c: c.qualname):
            lines.append(f"  {own.qualname} — {own.role_reason}")
    lines.append("")
    lines.append("declared fabric edges (attribute level):")
    for (qual, attr), why in sorted(EDGE_ATTRS.items()):
        lines.append(f"  {qual}.{attr} — {why}")
    lines.append("declared wire interface (peer-handle surface):")
    for name, why in sorted(EDGE_INTERFACE.items()):
        lines.append(f"  .{name} — {why}")
    lines.append("declared runtime edges (sanitizer):")
    for (actor, target), why in sorted(DYNAMIC_EDGES.items()):
        lines.append(f"  {actor} → {target} — {why}")
    if not DYNAMIC_EDGES:
        lines.append("  (none)")
    return "\n".join(lines)
