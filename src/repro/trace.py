"""Cross-layer distributed tracing with critical-path analysis.

The paper's headline claim is *where* cycles go — ``msgr-worker`` vs
``bstore`` vs ``tp_osd_tp``, host vs DPU — but ``CpuSampler`` windows
only answer that in aggregate.  This module follows a *single*
operation end to end:

``RadosClient`` op → messenger send/recv (parent span carried on the
``Message``) → OSD opqueue/PG → ``ProxyObjectStore`` dispatch → RPC call
or DMA pipeline segments (one span per 2 MB segment, so stage/transmit
overlap is visible) → host BlueStore ``queue_transaction`` → replication
sub-ops.  Each span records simulated begin/end times, the node + CPU
complex + thread category that executed it, and byte counts.  The
tracer records spans only: per-category CPU busy time is the
:class:`~repro.hw.cpu.CpuAccounting` ledger, read by ``CpuSampler``
windows.

Design rules
------------

**Determinism.**  A :class:`Tracer` mints trace/span ids from its own
:class:`~repro.util.rng.SeededRng` stream, so two runs with the same
seed produce byte-identical span sets (see :meth:`TraceReport.fingerprint`).

**Zero perturbation.**  Tracing hooks are synchronous Python
bookkeeping only: no simulation events, no timeouts, no CPU charges, no
draws from any shared RNG stream.  With no tracer attached (the
default) every hook is a guarded no-op and the event sequence is
bit-identical to an untraced run; with a tracer attached only
*observation* changes, never simulated timing.

**Causality model.**  Parent/child edges are *time-nested* (a child
begins and ends within its parent).  Causality that is not time-nested
— a receive that starts after its send finished, a retry that follows a
failed attempt — is expressed as span *links* instead, so the span tree
stays well-formed under the nesting invariant.  The one exception is
OpenTelemetry's: a span its owner *abandoned* (a client attempt given
up on a timeout) may be outlived by the work it started, and every
child that does so is tagged ``outlives=abandoned-parent``.

Critical-path extraction walks backwards from a root span's end: at
each step the predecessor is the child-or-link with the latest end time
not after the cursor; the gap between that end and the cursor is the
current span's *exclusive* (self) time.  Summing exclusive time by span
name answers "what would speeding up DMA actually buy".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from .util.digest import fingerprint
from .util.rng import SeededRng

__all__ = [
    "QOS_CATEGORY",
    "Span",
    "Tracer",
    "TraceReport",
    "PathStep",
    "simulation_digest",
]

#: Tolerance for float comparisons on simulated timestamps.
EPS = 1e-9

#: Span category for QoS-plane work (admission shedding, mClock
#: scheduling decisions) — keeps serving-control spans separable from
#: data-path categories (``client``/``msgr``/``osd``/``bstore``) in
#: span queries.
QOS_CATEGORY = "qos"


class Span:
    """One timed unit of work attributed to a node/CPU/thread.

    Created through :meth:`Tracer.start_span` (or :meth:`child`);
    finished explicitly with :meth:`finish` / :meth:`error`.  All
    mutators are plain attribute updates — no simulation side effects.
    """

    __slots__ = (
        "tracer", "trace_id", "span_id", "parent", "parent_id", "name",
        "node", "cpu", "thread", "category", "begin", "end", "nbytes",
        "status", "tags", "events", "links",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent: Optional["Span"],
        name: str,
        begin: float,
        node: str,
        cpu: str,
        thread: str,
        category: str,
        nbytes: int = 0,
    ) -> None:
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent = parent
        self.parent_id = parent.span_id if parent is not None else None
        self.name = name
        self.begin = begin
        self.end: Optional[float] = None
        self.node = node
        self.cpu = cpu
        self.thread = thread
        self.category = category
        self.nbytes = nbytes
        self.status = "ok"
        self.tags: dict[str, Any] = {}
        self.events: list[tuple[float, str]] = []
        #: (span_id, kind) causal links that are not time-nested
        #: (``follows``: cross-wire/async causality, ``retry``: this span
        #: retries the linked failed span).
        self.links: list[tuple[int, str]] = []

    # -- mutators ----------------------------------------------------------
    def event(self, t: float, name: str) -> None:
        """Record a point-in-time annotation (the OSD's per-op stage
        marks land here)."""
        self.events.append((t, name))

    def tag(self, key: str, value: Any) -> None:
        self.tags[key] = value

    def link(self, other: "Span | int", kind: str = "follows") -> None:
        """Add a causal link to another span (by object or id)."""
        other_id = other.span_id if isinstance(other, Span) else other
        self.links.append((other_id, kind))

    def finish(self, now: float, status: Optional[str] = None) -> None:
        if self.end is None:
            self.end = now
            parent = self.parent
            if (parent is not None and parent.end is not None
                    and now > parent.end + EPS and "abandoned" in parent.tags):
                # late work of an abandoned parent: the one case where a
                # child may outlive its parent (OpenTelemetry's rule)
                self.tags["outlives"] = "abandoned-parent"
        if status is not None:
            self.status = status

    def error(self, now: float, reason: str) -> None:
        """Finish the span in error state with a reason tag."""
        self.tag("error", reason)
        self.finish(now, status="error")

    def abandon(self, now: float, reason: str) -> None:
        """Finish the span in error state as given up on by its owner.

        Work it started elsewhere (a server's ``osd.op``, the reply's
        wire spans) carries on and may end later; those children are
        tagged ``outlives=abandoned-parent`` when they finish."""
        self.tag("abandoned", True)
        self.error(now, reason)

    # -- propagation -------------------------------------------------------
    def child(self, name: str, now: float, **kw: Any) -> "Span":
        """Start a child span.  Messages, transactions and RPC requests
        carry their parent span as a ``span_ctx`` attribute; layers
        that find ``None`` skip all tracing."""
        return self.tracer.start_span(name, now, parent=self, **kw)

    @property
    def duration(self) -> Optional[float]:
        if self.end is None:
            return None
        return self.end - self.begin

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} [{self.begin:.6f}"
            f"..{'?' if self.end is None else format(self.end, '.6f')}]"
            f" {self.node}/{self.category}>"
        )


class Tracer:
    """Mints deterministic ids and owns the span list.

    ``seed`` feeds a private :class:`SeededRng` stream used *only* for
    id minting — no shared simulation stream is ever consumed, so
    attaching a tracer cannot shift any other random draw.
    """

    def __init__(self, seed: int = 0) -> None:
        self._ids = SeededRng(seed).child("trace").stream("ids")
        self._used_ids: set[int] = set()
        self.spans: list[Span] = []
        self.cluster: Any = None

    # -- ids ---------------------------------------------------------------
    def _mint_id(self) -> int:
        while True:
            i = self._ids.getrandbits(64)
            if i not in self._used_ids:
                self._used_ids.add(i)
                return i

    # -- span creation -----------------------------------------------------
    def start_span(
        self,
        name: str,
        now: float,
        *,
        parent: Optional[Span] = None,
        trace_id: Optional[int] = None,
        thread: Any = None,
        node: Optional[str] = None,
        cpu: Optional[str] = None,
        category: Optional[str] = None,
        thread_name: Optional[str] = None,
        nbytes: int = 0,
    ) -> Span:
        """Start a span.  ``thread`` may be a
        :class:`~repro.hw.cpu.SimThread`, from which node/CPU/category
        are derived; explicit keywords override."""
        if thread is not None:
            cpu = cpu or thread.cpu.name
            category = category or thread.category
            thread_name = thread_name or thread.name
        if cpu is not None and node is None:
            node = cpu.split(".")[0]
        if trace_id is None:
            trace_id = parent.trace_id if parent is not None else self._mint_id()
        span = Span(
            tracer=self,
            trace_id=trace_id,
            span_id=self._mint_id(),
            parent=parent,
            name=name,
            begin=now,
            node=node or "?",
            cpu=cpu or "?",
            thread=thread_name or "?",
            category=category or "?",
            nbytes=nbytes,
        )
        self.spans.append(span)
        return span

    # -- wiring ------------------------------------------------------------
    def attach_cluster(self, cluster: Any) -> None:
        """Wire this tracer into a built cluster: the client mints root
        spans."""
        self.cluster = cluster
        cluster.tracer = self
        if cluster.client is not None:
            cluster.client.tracer = self

    def report(self) -> "TraceReport":
        return TraceReport(spans=list(self.spans))


# ---------------------------------------------------------------------------
# analysis


@dataclass(frozen=True)
class PathStep:
    """One hop of a critical path: ``span`` is on the path and
    ``(t0, t1)`` is the interval exclusively attributed to it."""

    span: Span
    t0: float
    t1: float

    @property
    def self_time(self) -> float:
        return self.t1 - self.t0


def _canonical_span(span: Span) -> dict[str, Any]:
    return {
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "node": span.node,
        "cpu": span.cpu,
        "thread": span.thread,
        "category": span.category,
        "begin": round(span.begin, 9),
        "end": None if span.end is None else round(span.end, 9),
        "nbytes": span.nbytes,
        "status": span.status,
        "tags": {k: span.tags[k] for k in sorted(span.tags)},
        "events": [(round(t, 9), name) for t, name in span.events],
        "links": sorted(span.links),
    }


@dataclass
class TraceReport:
    """The analyzed view over one run's spans.

    Attached to :class:`~repro.bench.radosbench.BenchResult` when a
    tracer is wired into the cluster; also the object behind the
    ``repro bench --trace`` CLI run.
    """

    spans: list[Span]

    # -- structure ---------------------------------------------------------
    def traces(self) -> dict[int, list[Span]]:
        """Spans grouped by trace id."""
        out: dict[int, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent_id is None]

    def find(self, name_prefix: str) -> list[Span]:
        return [s for s in self.spans if s.name.startswith(name_prefix)]

    # -- determinism -------------------------------------------------------
    def fingerprint(self) -> str:
        """sha256 over the canonicalized span set.

        Spans are sorted by (begin, trace id, span id); timestamps are
        rounded to nanoseconds.  Two runs with the same seeds must
        produce identical fingerprints."""
        return fingerprint([
            _canonical_span(s)
            for s in sorted(
                self.spans, key=lambda s: (s.begin, s.trace_id, s.span_id)
            )
        ])

    # -- critical path -----------------------------------------------------
    def critical_path(self, root: Span) -> list[PathStep]:
        """Longest causal chain ending at ``root``'s end.

        Walks backwards from the root's end.  At each cursor position
        the predecessor is the child (or link target) of the current
        span with the latest end at or before the cursor; the uncovered
        remainder is the current span's exclusive time.  When no
        predecessor qualifies, the stretch back to the span's begin is
        exclusive and the walk *ascends* to the parent at that begin —
        so the chain crosses wire hops (via the reply spans'
        ``follows`` links) and continues through the request side all
        the way back to the client issue time."""
        if root.end is None:
            return []
        return self._walk_back(
            root,
            *self._family(
                [s for s in self.spans if s.trace_id == root.trace_id]
            ),
        )

    @staticmethod
    def _family(
        trace: list[Span],
    ) -> tuple[dict[int, Span], dict[int, list[Span]]]:
        """One trace's spans by id, and its child lists by parent id."""
        members = {s.span_id: s for s in trace}
        children: dict[int, list[Span]] = {}
        for s in members.values():
            if s.parent_id is not None and s.parent_id in members:
                children.setdefault(s.parent_id, []).append(s)
        return members, children

    @staticmethod
    def _walk_back(
        root: Span,
        members: dict[int, Span],
        children: dict[int, list[Span]],
    ) -> list[PathStep]:
        def predecessors(span: Span) -> list[Span]:
            preds = list(children.get(span.span_id, []))
            for other_id, _kind in span.links:
                other = members.get(other_id)
                if other is not None:
                    preds.append(other)
            return preds

        steps: list[PathStep] = []
        span, cursor = root, root.end
        visited: set[int] = {root.span_id}
        while True:
            cands = [
                p for p in predecessors(span)
                if p.span_id not in visited
                and p.end is not None
                and p.end <= cursor + EPS
            ]
            if cands:
                pred = max(cands, key=lambda p: (p.end, p.span_id))
                steps.append(PathStep(span, pred.end, cursor))  # type: ignore[arg-type]
                span, cursor = pred, pred.end  # type: ignore[assignment]
                visited.add(span.span_id)
                continue
            begin = min(span.begin, cursor)
            steps.append(PathStep(span, begin, cursor))
            parent = (
                members.get(span.parent_id)
                if span.parent_id is not None else None
            )
            if parent is None:
                break
            span, cursor = parent, begin
        steps.reverse()
        return steps

    def critical_path_summary(self) -> dict[str, float]:
        """Mean exclusive seconds per span name along the critical path,
        averaged over every completed root trace.

        Linear in spans: they are grouped by trace once, where calling
        :meth:`critical_path` per root would re-filter all of them for
        every root."""
        totals: dict[str, float] = {}
        n = 0
        by_trace = self.traces()
        for root in self.roots():
            if root.end is None:
                continue
            n += 1
            family = self._family(by_trace[root.trace_id])
            for step in self._walk_back(root, *family):
                totals[step.span.name] = (
                    totals.get(step.span.name, 0.0) + step.self_time
                )
        if n == 0:
            return {}
        return {name: t / n for name, t in sorted(totals.items())}

    # -- exporters ---------------------------------------------------------
    def to_perfetto(self) -> dict[str, Any]:
        """Chrome/Perfetto trace-event JSON (load in ui.perfetto.dev).

        One process per node, one thread per simulated thread; spans are
        complete ("X") events in microseconds; links become flow
        ("s"/"f") events so send→recv and retry causality renders as
        arrows."""
        pids: dict[str, int] = {}
        tids: dict[tuple[str, str], int] = {}
        events: list[dict[str, Any]] = []

        def pid_of(node: str) -> int:
            if node not in pids:
                pids[node] = len(pids) + 1
                events.append({
                    "name": "process_name", "ph": "M", "pid": pids[node],
                    "args": {"name": node},
                })
            return pids[node]

        def tid_of(node: str, thread: str) -> int:
            key = (node, thread)
            if key not in tids:
                tids[key] = len(tids) + 1
                events.append({
                    "name": "thread_name", "ph": "M", "pid": pid_of(node),
                    "tid": tids[key], "args": {"name": thread},
                })
            return tids[key]

        #: span id -> (pid, tid, begin, end or None)
        span_pos: dict[int, tuple[int, int, float, Optional[float]]] = {}
        for span in self.spans:
            pid = pid_of(span.node)
            tid = tid_of(span.node, span.thread)
            end = span.end if span.end is not None else span.begin
            args: dict[str, Any] = {
                "trace_id": f"{span.trace_id:016x}",
                "span_id": f"{span.span_id:016x}",
                "category": span.category,
                "cpu": span.cpu,
                "status": span.status,
            }
            if span.nbytes:
                args["nbytes"] = span.nbytes
            if span.tags:
                args.update({f"tag.{k}": v for k, v in span.tags.items()})
            if span.events:
                args["events"] = [
                    {"t_us": round(t * 1e6, 3), "name": name}
                    for t, name in span.events
                ]
            events.append({
                "name": span.name,
                "cat": span.category,
                "ph": "X",
                "ts": round(span.begin * 1e6, 3),
                "dur": round((end - span.begin) * 1e6, 3),
                "pid": pid,
                "tid": tid,
                "args": args,
            })
            span_pos[span.span_id] = (pid, tid, span.begin, span.end)

        flow_id = 0
        for span in self.spans:
            for other_id, kind in span.links:
                src = span_pos.get(other_id)
                if src is None:
                    continue
                flow_id += 1
                src_pid, src_tid, _, src_end = src
                src_ts = src_end if src_end is not None else span.begin
                events.append({
                    "name": kind, "cat": "flow", "ph": "s", "id": flow_id,
                    "ts": round(src_ts * 1e6, 3),
                    "pid": src_pid, "tid": src_tid,
                })
                pid, tid, begin, _ = span_pos[span.span_id]
                events.append({
                    "name": kind, "cat": "flow", "ph": "f", "bp": "e",
                    "id": flow_id, "ts": round(begin * 1e6, 3),
                    "pid": pid, "tid": tid,
                })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def flame_summary(self, limit: int = 20) -> str:
        """Text flame view: per span name, count, total/mean wall time,
        critical-path exclusive time, and bytes."""
        by_name: dict[str, list[Span]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span)
        crit = self.critical_path_summary()
        lines = [
            f"{'span':<26}{'count':>7}{'total_s':>10}{'mean_ms':>9}"
            f"{'crit_ms':>9}{'MB':>8}"
        ]
        rows = []
        for name, spans in by_name.items():
            finished = [s for s in spans if s.end is not None]
            total = sum(s.end - s.begin for s in finished)  # type: ignore[operator]
            mean = total / len(finished) if finished else 0.0
            nbytes = sum(s.nbytes for s in spans)
            rows.append((total, name, len(spans), mean, nbytes))
        rows.sort(reverse=True)
        for total, name, count, mean, nbytes in rows[:limit]:
            lines.append(
                f"{name:<26}{count:>7}{total:>10.3f}{mean * 1e3:>9.3f}"
                f"{crit.get(name, 0.0) * 1e3:>9.3f}{nbytes / 1e6:>8.1f}"
            )
        errors = sum(1 for s in self.spans if s.status == "error")
        open_spans = sum(1 for s in self.spans if s.end is None)
        lines.append(
            f"spans={len(self.spans)} traces={len(self.traces())}"
            f" errors={errors} unfinished={open_spans}"
        )
        return "\n".join(lines)

    def as_dict(self) -> dict[str, Any]:
        """Machine-readable summary (what BENCH_*.json embeds)."""
        return {
            "spans": len(self.spans),
            "traces": len(self.traces()),
            "errors": sum(1 for s in self.spans if s.status == "error"),
            "unfinished": sum(1 for s in self.spans if s.end is None),
            "fingerprint": self.fingerprint(),
            "critical_path_mean_s": {
                name: round(t, 9)
                for name, t in self.critical_path_summary().items()
            },
        }


def simulation_digest(env: Any) -> str:
    """Digest of a run's event-sequence identity.

    ``env._seq`` counts every event ever scheduled; together with the
    final clock it pins down the shape of the whole run — any extra
    timeout, process or charge introduced by tracing would change it.
    Used by the zero-perturbation tests and the golden digests."""
    return fingerprint({"seq": getattr(env, "_seq", None),
                        "now": round(env.now, 9)})
