"""Unified, deterministic fault injection (the §4 robustness harness).

Every failure the simulation can inject — DMA transfer errors, RPC
request/reply loss and delay, network link degradation, storage I/O
errors — is declared as a :class:`FaultSpec` and scheduled by a seeded
:class:`FaultPlan`.  The plan derives one independent RNG stream per
(layer, scope), so fault schedules are bit-reproducible regardless of
how many nodes exist or in which order the hardware fires operations.

A spec composes four trigger shapes (all optional, all AND-ed):

* ``probability`` — per-operation firing probability (default 1.0, so a
  bare time window means "every operation in the window fails");
* ``window`` — an absolute simulated-time interval ``(start, end)``
  outside which the spec is dormant;
* ``nth`` — fire on exactly the nth operation (1-based) seen by the
  injector for the spec's kind;
* ``burst`` — once triggered, also fail the next ``burst - 1``
  consecutive operations.

Layers and their fault kinds:

========  =======================================  ==========================
layer     kinds                                    injected effect
========  =======================================  ==========================
dma       ``error``                                transfer raises ``DmaError``
rpc       ``request_loss``, ``reply_loss``,        request/reply vanishes (the
          ``delay``                                caller's timeout + retry
                                                   machinery recovers); delay
                                                   adds ``delay`` seconds
net       ``degrade``, ``partition``,              degrade: chunk serialization
          ``corrupt``, ``dup``, ``reorder``,       slowed by ``factor``×;
          ``truncate``, ``jitter``                 partition: every delivery
                                                   crossing the ``nodes``
                                                   boundary during ``window``
                                                   is dropped; the remaining
                                                   kinds drive the wire
                                                   adversary
                                                   (``repro.msgr.adversary``):
                                                   frame corruption,
                                                   duplication, bounded
                                                   reordering, truncation and
                                                   delivery delay-jitter
storage   ``error``                                I/O raises ``StorageError``
========  =======================================  ==========================

The textual plan format (CLI ``--faults``, benchmarks, examples)::

    dma,p=0.02;rpc:reply_loss,nth=3;net:degrade,window=4-5,factor=8

Specs are ``;``-separated; each is ``layer[:kind]`` followed by
``,key=value`` options (``p``/``probability``, ``window=start-end``,
``nth``, ``burst``, ``delay``, ``factor``, ``nodes=a|b``).

A plan instance carries mutable injection counters, so use one plan per
cluster/run; two plans built from the same seed and specs produce
byte-identical schedules and counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .util.rng import SeededRng

__all__ = [
    "ADVERSARY_KINDS",
    "FAULT_LAYERS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "LayerInjector",
    "format_fault_specs",
    "parse_fault_specs",
]

#: Hardware layers a spec may target.
FAULT_LAYERS = ("dma", "rpc", "net", "storage")

#: ``net`` kinds handled by the per-messenger wire adversary
#: (:mod:`repro.msgr.adversary`) rather than the NIC pipes or fabric.
ADVERSARY_KINDS = ("corrupt", "dup", "reorder", "truncate", "jitter")

#: Valid fault kinds per layer (first entry is the layer's default).
FAULT_KINDS = {
    "dma": ("error",),
    "rpc": ("request_loss", "reply_loss", "delay"),
    "net": ("degrade", "partition") + ADVERSARY_KINDS,
    "storage": ("error",),
}

#: ``net`` kinds that must never reach the chunk-granular pipe
#: injectors: partitions are topology-level, adversary kinds frame-level.
_PIPE_EXCLUDED = frozenset(("partition",) + ADVERSARY_KINDS)


@dataclass(frozen=True)
class FaultSpec:
    """One declarative fault shape (immutable, hashable, composable)."""

    layer: str
    kind: str = ""
    probability: float = 1.0
    window: Optional[tuple[float, float]] = None
    nth: Optional[int] = None
    burst: int = 1
    nodes: Optional[tuple[str, ...]] = None
    delay: float = 0.0
    factor: float = 8.0

    def __post_init__(self) -> None:
        if self.layer not in FAULT_LAYERS:
            raise ValueError(
                f"unknown fault layer {self.layer!r}; one of {FAULT_LAYERS}"
            )
        kind = self.kind or FAULT_KINDS[self.layer][0]
        object.__setattr__(self, "kind", kind)
        if kind not in FAULT_KINDS[self.layer]:
            raise ValueError(
                f"layer {self.layer!r} has no fault kind {kind!r}; "
                f"one of {FAULT_KINDS[self.layer]}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability out of [0,1]: {self.probability}")
        if self.window is not None:
            start, end = self.window
            if end <= start:
                raise ValueError(f"empty fault window: {self.window}")
        if self.nth is not None and self.nth < 1:
            raise ValueError(f"nth is 1-based, got {self.nth}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.delay < 0:
            raise ValueError(f"negative delay: {self.delay}")
        if self.factor < 1.0:
            raise ValueError(f"degrade factor must be >= 1, got {self.factor}")
        if kind == "partition":
            if self.window is None:
                raise ValueError(
                    "net:partition needs a window=start-end (a sustained "
                    "link-down interval, not a per-operation trigger)"
                )
            if not self.nodes:
                raise ValueError(
                    "net:partition needs nodes=a|b (the group to isolate)"
                )

    def active_at(self, now: float) -> bool:
        """Is the spec's time window open at ``now`` (always, if none)?"""
        if self.window is None:
            return True
        return self.window[0] <= now < self.window[1]

    def applies_to(self, scope: str) -> bool:
        """Does the spec target ``scope`` (a node name)?"""
        return self.nodes is None or scope in self.nodes


class LayerInjector:
    """The per-(layer, scope) decision point hardware models consult.

    Hardware calls :meth:`fire` once per operation; the injector walks
    its specs in declaration order and returns the first one that
    triggers (or ``None``).  All randomness comes from the plan-derived
    stream, so the schedule is a pure function of (seed, call sequence).
    """

    def __init__(
        self, plan: "FaultPlan", layer: str, scope: str,
        specs: list[FaultSpec], rng: Any,
    ) -> None:
        self.plan = plan
        self.layer = layer
        self.scope = scope
        self.specs = specs
        self._rng = rng
        self._ops: dict[str, int] = {}
        self._burst_left: dict[int, int] = {}
        # The overwhelmingly common shape — one always-active
        # probabilistic spec with no burst — gets a fast path in
        # :meth:`fire` that makes the identical RNG draw without
        # walking the spec list or maintaining the nth-op counter
        # (which only nth-triggered specs ever read).
        self._simple = (
            len(specs) == 1
            and specs[0].window is None
            and specs[0].nth is None
            and specs[0].burst == 1
            and 0.0 < specs[0].probability < 1.0
        )

    def fire(
        self, now: float, kind: Optional[str] = None, size: int = 0
    ) -> Optional[FaultSpec]:
        """Decide whether this operation fails; returns the spec if so.

        ``kind`` narrows matching for multi-kind layers (RPC); single-
        kind layers pass ``None``.  ``size`` feeds the byte counters.
        """
        quiesced = self.plan.quiesced_at
        if quiesced is not None and now >= quiesced:
            return None
        if self._simple and kind is None:
            spec = self.specs[0]
            if self._rng.random() < spec.probability:
                self.plan._record(self.layer, spec.kind, size)
                return spec
            return None
        key = kind or ""
        index = self._ops.get(key, 0) + 1
        self._ops[key] = index
        for i, spec in enumerate(self.specs):
            if kind is not None and spec.kind != kind:
                continue
            if not spec.active_at(now):
                continue
            hit = False
            if self._burst_left.get(i, 0) > 0:
                self._burst_left[i] -= 1
                hit = True
            elif spec.nth is not None:
                hit = index == spec.nth
                if hit:
                    self._burst_left[i] = spec.burst - 1
            elif spec.probability > 0.0 and (
                spec.probability >= 1.0
                or self._rng.random() < spec.probability
            ):
                hit = True
                self._burst_left[i] = spec.burst - 1
            if hit:
                self.plan._record(self.layer, spec.kind, size)
                return spec
        return None

    def __repr__(self) -> str:
        return (
            f"<LayerInjector {self.layer}@{self.scope} "
            f"{len(self.specs)} specs>"
        )


class FaultPlan:
    """A seeded schedule of faults across every hardware layer.

    Build one per run, attach it to a cluster (the builders do this when
    the plan is passed in, or call :meth:`attach_cluster` post-hoc), and
    read :attr:`injected` / :meth:`snapshot` afterwards.
    """

    def __init__(self, seed: int = 0, specs: Any = ()) -> None:
        self.seed = int(seed)
        self.specs: tuple[FaultSpec, ...] = tuple(specs)
        self._rng = SeededRng(self.seed)
        self._injectors: dict[tuple[str, str], LayerInjector] = {}
        #: ``"layer.kind"`` → number of injected faults.
        self.injected: dict[str, int] = {}
        #: ``"layer.kind"`` → bytes belonging to injected faults.
        self.injected_bytes: dict[str, int] = {}
        #: once set, per-operation injection after this sim-time is off
        #: (see :meth:`quiesce`).
        self.quiesced_at: Optional[float] = None

    def quiesce(self, now: float) -> None:
        """Stop per-operation injection from ``now`` on.

        Open-ended probabilistic specs have no window; a harness whose
        oracle promises "after the faults stop, the healed cluster is
        intact" calls this at the heal boundary, otherwise the
        verifier's own reads keep being failed and every run ends in a
        vacuous violation.  Already-scheduled sustained windows (e.g.
        ``net:partition``) are not cut short — they are bounded by
        construction."""
        self.quiesced_at = now

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Build a plan from the textual spec format (see module doc)."""
        return cls(seed=seed, specs=parse_fault_specs(text))

    # ------------------------------------------------------------- wiring
    def injector(self, layer: str, scope: str) -> LayerInjector:
        """The (cached) injector for ``layer`` on node ``scope``."""
        if layer not in FAULT_LAYERS:
            raise ValueError(f"unknown fault layer: {layer!r}")
        key = (layer, scope)
        inj = self._injectors.get(key)
        if inj is None:
            # partitions are topology-level (Network) and adversary kinds
            # frame-level (messenger); keep both out of the chunk-granular
            # pipe injectors
            specs = [
                s for s in self.specs
                if s.layer == layer and s.applies_to(scope)
                and s.kind not in _PIPE_EXCLUDED
            ]
            rng = self._rng.child(scope).stream(layer)
            inj = self._injectors[key] = LayerInjector(
                self, layer, scope, specs, rng
            )
        return inj

    def adversary_injector(self, scope: str) -> LayerInjector:
        """The (cached) wire-adversary injector for the messenger at
        ``scope``.

        Kept separate from the pipe injector for the same scope — and on
        its own derived RNG stream — so enabling the adversary never
        perturbs the existing ``net:degrade`` draw sequence.
        """
        key = ("net:adversary", scope)
        inj = self._injectors.get(key)
        if inj is None:
            specs = [
                s for s in self.specs
                if s.layer == "net" and s.kind in ADVERSARY_KINDS
                and s.applies_to(scope)
            ]
            rng = self._rng.child(scope).stream("net:adversary")
            inj = self._injectors[key] = LayerInjector(
                self, "net", scope, specs, rng
            )
        return inj

    def layer_specs(self, layer: str) -> list[FaultSpec]:
        return [s for s in self.specs if s.layer == layer]

    def attach_dma(self, engine: Any, scope: str) -> None:
        engine.fault_injector = self.injector("dma", scope)

    def attach_storage(self, device: Any, scope: str) -> None:
        device.fault_injector = self.injector("storage", scope)

    def attach_net(self, nic: Any, scope: str) -> None:
        inj = self.injector("net", scope)
        nic.tx.fault_injector = inj
        nic.rx.fault_injector = inj

    def attach_rpc(self, channel: Any, scope: str) -> None:
        channel.fault_injector = self.injector("rpc", scope)

    def attach_msgr(self, messenger: Any, scope: str) -> None:
        """Arm the wire adversary on one messenger's outbound frames.

        A no-op when the plan has no adversary-kind ``net`` specs for
        ``scope``, so un-adversarial runs keep a ``None`` adversary and
        the messenger's integrity layer stays entirely event-free.
        """
        inj = self.adversary_injector(scope)
        if not inj.specs:
            return
        from .msgr.adversary import WireAdversary  # local: layering

        messenger.adversary = WireAdversary(inj)

    def attach_network(self, network: Any) -> None:
        """Install every ``net:partition`` spec as a sustained link-down
        window on the fabric (drops are recorded in the plan counters)."""
        for spec in self.layer_specs("net"):
            if spec.kind != "partition":
                continue
            assert spec.window is not None and spec.nodes is not None
            network.partition(
                spec.nodes, spec.window[0], spec.window[1],
                on_drop=lambda size: self._record("net", "partition", size),
            )

    def attach_cluster(self, cluster: Any) -> None:
        """Wire every layer of an already-built cluster to this plan."""
        for node in cluster.nodes:
            if node.dma is not None:
                self.attach_dma(node.dma, node.name)
            self.attach_storage(node.ssd, node.name)
            self.attach_net(node.nic, node.name)
        for server in getattr(cluster, "proxy_servers", []):
            self.attach_rpc(server.rpc, server.node.name)
        self.attach_network(cluster.network)
        if any(s.kind in ADVERSARY_KINDS for s in self.layer_specs("net")):
            for osd in getattr(cluster, "osds", []):
                self.attach_msgr(osd.messenger, osd.messenger.address)
            mon = getattr(cluster, "mon", None)
            if mon is not None:
                self.attach_msgr(mon.messenger, mon.messenger.address)
            client = getattr(cluster, "client", None)
            if client is not None:
                self.attach_msgr(client.messenger, client.messenger.address)

    # ------------------------------------------------------------- counters
    def _record(self, layer: str, kind: str, size: int) -> None:
        key = f"{layer}.{kind}"
        self.injected[key] = self.injected.get(key, 0) + 1
        if size:
            self.injected_bytes[key] = self.injected_bytes.get(key, 0) + size

    @property
    def total_injected(self) -> int:
        return sum(self.injected.values())

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Stable, comparison-friendly copy of all plan counters."""
        return {
            "injected": dict(sorted(self.injected.items())),
            "injected_bytes": dict(sorted(self.injected_bytes.items())),
        }

    def __repr__(self) -> str:
        return (
            f"<FaultPlan seed={self.seed} specs={len(self.specs)} "
            f"injected={self.total_injected}>"
        )


def format_fault_specs(specs: Any) -> str:
    """Render specs back into the textual plan format (the exact inverse
    of :func:`parse_fault_specs`): non-default options only, floats via
    ``repr`` so ``parse(format(specs))`` round-trips to equal specs."""

    def fnum(x: float) -> str:
        return repr(int(x)) if float(x).is_integer() else repr(float(x))

    chunks: list[str] = []
    for spec in specs:
        head = spec.layer
        if spec.kind != FAULT_KINDS[spec.layer][0]:
            head = f"{spec.layer}:{spec.kind}"
        opts: list[str] = []
        if spec.probability != 1.0:
            opts.append(f"p={fnum(spec.probability)}")
        if spec.window is not None:
            opts.append(
                f"window={fnum(spec.window[0])}-{fnum(spec.window[1])}"
            )
        if spec.nth is not None:
            opts.append(f"nth={spec.nth}")
        if spec.burst != 1:
            opts.append(f"burst={spec.burst}")
        if spec.delay:
            opts.append(f"delay={fnum(spec.delay)}")
        if spec.factor != 8.0:
            opts.append(f"factor={fnum(spec.factor)}")
        if spec.nodes is not None:
            opts.append("nodes=" + "|".join(spec.nodes))
        chunks.append(",".join([head] + opts))
    return ";".join(chunks)


def parse_fault_specs(text: str) -> list[FaultSpec]:
    """Parse ``"dma,p=0.02;rpc:reply_loss,nth=3"`` into specs."""
    specs: list[FaultSpec] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, *options = [part.strip() for part in chunk.split(",")]
        layer, _, kind = head.partition(":")
        kwargs: dict[str, Any] = {"layer": layer.strip(), "kind": kind.strip()}
        for opt in options:
            key, sep, value = opt.partition("=")
            key = key.strip()
            value = value.strip()
            if not sep or not value:
                raise ValueError(f"malformed fault option {opt!r} in {chunk!r}")
            if key in ("p", "probability"):
                kwargs["probability"] = float(value)
            elif key == "window":
                start, sep2, end = value.partition("-")
                if not sep2:
                    raise ValueError(
                        f"window must be start-end, got {value!r}"
                    )
                kwargs["window"] = (float(start), float(end))
            elif key == "nth":
                kwargs["nth"] = int(value)
            elif key == "burst":
                kwargs["burst"] = int(value)
            elif key == "delay":
                kwargs["delay"] = float(value)
            elif key == "factor":
                kwargs["factor"] = float(value)
            elif key == "nodes":
                kwargs["nodes"] = tuple(
                    n.strip() for n in value.split("|") if n.strip()
                )
            else:
                raise ValueError(f"unknown fault option {key!r} in {chunk!r}")
        specs.append(FaultSpec(**kwargs))
    if not specs:
        raise ValueError(f"no fault specs in {text!r}")
    return specs
