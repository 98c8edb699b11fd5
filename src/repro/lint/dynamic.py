"""Dynamic companion: same-timestamp tie-order sensitivity detector.

The static rules catch *sources* of nondeterminism; this module catches
a subtler class the AST cannot see — model logic whose outcome depends
on the order in which same-timestamp, same-priority events happen to be
processed.  The kernel breaks such ties by insertion sequence, so the
result is reproducible, but it is *fragile*: any refactor that changes
scheduling order (or a port to a kernel with a different tie-break)
changes behavior.  A well-posed model must be tie-order independent.

Mechanism: the scenario is run three times —

1. natively, recording the simulation digest;
2. with :meth:`Environment.run` replaced by an instrumented drain loop
   that pops each equal-``(time, priority)`` batch and processes it in
   FIFO (= native) order.  This digest must match run 1; it proves the
   instrumentation itself is behavior-neutral.  Batches are read off
   one heap, so the probe's environments are single-heap
   (:func:`repro.sim.core._install_loop`) while run 1's are tiered.
3. with the same drain loop processing each batch in LIFO order —
   a legal tie-break under the model's contract.  A digest mismatch
   means some same-timestamp batch is order-sensitive; the recorded
   batches (time + event descriptions) are the candidate sites.

The drain loop reproduces the native loop's semantics exactly: the
``until`` event/number protocol, :class:`StopSimulation` unwinding,
undefused-failure propagation and the ``stop_at`` horizon.
Unprocessed batch entries are pushed back onto the heap on
any non-local exit, because ``run()`` is routinely called repeatedly on
one environment (e.g. once per bench worker).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Callable, Iterator, Optional

from ..sim.core import Environment, Event, _HeapTier, _install_loop
from ..sim.exceptions import SimulationError, StopSimulation

__all__ = [
    "TieSite",
    "TieOrderReport",
    "patched_tie_order",
    "check_tie_order",
]

#: Recorded tie batches are capped so a pathological scenario does not
#: produce an unbounded report.
_MAX_SITES = 100


@dataclass(frozen=True)
class TieSite:
    """One same-``(time, priority)`` batch with more than one event."""

    time: float
    events: tuple[str, ...]

    def render(self) -> str:
        return f"t={self.time:.9g}: [{', '.join(self.events)}]"


@dataclass
class TieOrderReport:
    """Outcome of one tie-order sensitivity probe."""

    scenario: str
    seed: int
    baseline_digest: str
    fifo_digest: str
    perturbed_digest: str
    ties_seen: int
    tie_sites: list[TieSite] = field(default_factory=list)

    @property
    def instrumentation_ok(self) -> bool:
        """FIFO drain reproduced the native digest (probe is neutral)."""
        return self.fifo_digest == self.baseline_digest

    @property
    def order_sensitive(self) -> bool:
        """LIFO tie-break changed the digest: the model leans on seq order."""
        return self.perturbed_digest != self.baseline_digest

    def render(self) -> str:
        lines = [
            f"tie-order probe: scenario={self.scenario} seed={self.seed}",
            f"  native digest:    {self.baseline_digest}",
            f"  fifo-drain digest: {self.fifo_digest} "
            f"({'ok' if self.instrumentation_ok else 'MISMATCH — probe bug'})",
            f"  lifo-drain digest: {self.perturbed_digest}",
            f"  same-timestamp tie batches seen: {self.ties_seen}",
        ]
        if not self.order_sensitive:
            lines.append("  verdict: tie-order independent")
        else:
            lines.append(
                "  verdict: ORDER-SENSITIVE — digest depends on "
                "same-timestamp tie-breaking; candidate sites:"
            )
            for site in self.tie_sites:
                lines.append(f"    {site.render()}")
            if self.ties_seen > len(self.tie_sites):
                lines.append(
                    f"    ... {self.ties_seen - len(self.tie_sites)} more "
                    "batch(es) not shown"
                )
        return "\n".join(lines)


def _describe(event: Event) -> str:
    """Human-oriented label for one scheduled event."""
    name = type(event).__name__
    owner = getattr(event, "name", None)
    if isinstance(owner, str) and owner:
        return f"{name}({owner})"
    for cb in event.callbacks or ():
        bound = getattr(cb, "__self__", None)
        bound_name = getattr(bound, "name", None)
        if isinstance(bound_name, str) and bound_name:
            return f"{name}->{bound_name}"
    return name


def _make_batch_run(
    mode: str,
    recorder: Optional[Callable[[float, list[Event]], None]] = None,
):
    """Build a drop-in ``Environment.run`` draining ties in ``mode`` order."""
    if mode not in ("fifo", "lifo"):
        raise ValueError(f"unknown tie order mode: {mode!r}")

    def run(self: Environment, until: Any = None) -> Any:
        stop_at: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    return until.value if until.ok else None
                until.callbacks.append(StopSimulation.callback)
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise SimulationError(
                        f"until={stop_at} lies in the past (now={self._now})"
                    )

        queue = self._queue
        if not isinstance(self._normal, _HeapTier):
            raise SimulationError(
                "the tie-order probe reads one heap: construct the "
                "Environment inside patched_tie_order()"
            )
        horizon = float("inf") if stop_at is None else stop_at
        batch: list[tuple[float, int, int, Event]] = []
        try:
            while queue:
                if len(queue) > self._peak_pending:
                    self._peak_pending = len(queue)
                if queue[0][0] >= horizon:
                    self._now = stop_at  # type: ignore[assignment]
                    return None
                t0, p0 = queue[0][0], queue[0][1]
                batch = []
                while queue and queue[0][0] == t0 and queue[0][1] == p0:
                    batch.append(heappop(queue))
                if len(batch) > 1:
                    if recorder is not None:
                        recorder(t0, [entry[3] for entry in batch])
                    if mode == "lifo":
                        batch.reverse()
                while batch:
                    self._now, _, _, event = batch.pop(0)
                    callbacks = event.callbacks
                    event.callbacks = None
                    for callback in callbacks:  # type: ignore[union-attr]
                        callback(event)
                    if not event._ok and not event._defused:
                        raise event._value  # type: ignore[misc]
        except StopSimulation as stop:
            return stop.args[0]
        finally:
            # A non-local exit (StopSimulation, model failure) may leave
            # popped-but-unprocessed entries; restore them so a later
            # run() on this environment sees the same pending set the
            # native loop would.
            for entry in batch:
                heappush(queue, entry)
            self._popped = self._seq - len(queue)

        if stop_at is not None:
            self._now = stop_at
        return None

    return run


@contextlib.contextmanager
def patched_tie_order(
    mode: str = "lifo",
    recorder: Optional[Callable[[float, list[Event]], None]] = None,
) -> Iterator[None]:
    """Swap :meth:`Environment.run` for the instrumented batch drain.

    Class-level patch: the environment is slotted, so per-instance
    patching is impossible — every environment created inside the
    ``with`` block uses the perturbed loop.
    """
    previous = _install_loop(_make_batch_run(mode, recorder), single_heap=True)
    try:
        yield
    finally:
        _install_loop(*previous)


def check_tie_order(
    scenario: str,
    seed: int = 0,
    runner: Optional[Callable[[str, int], Environment]] = None,
) -> TieOrderReport:
    """Probe one scenario for same-timestamp order sensitivity.

    ``runner(scenario, seed)`` must build and run the scenario to
    completion and return its :class:`Environment`; the default uses
    :func:`repro.perf.run_scenario`.
    """
    from ..trace import simulation_digest

    if runner is None:
        from ..perf import run_scenario

        def runner(name: str, s: int) -> Environment:
            env, _result = run_scenario(name, seed=s)
            return env

    baseline = simulation_digest(runner(scenario, seed))

    with patched_tie_order("fifo"):
        fifo = simulation_digest(runner(scenario, seed))

    sites: list[TieSite] = []
    ties = [0]

    def record(time: float, events: list[Event]) -> None:
        ties[0] += 1
        if len(sites) < _MAX_SITES:
            sites.append(
                TieSite(time=time, events=tuple(_describe(e) for e in events))
            )

    with patched_tie_order("lifo", recorder=record):
        lifo = simulation_digest(runner(scenario, seed))

    report = TieOrderReport(
        scenario=scenario,
        seed=seed,
        baseline_digest=baseline,
        fifo_digest=fifo,
        perturbed_digest=lifo,
        ties_seen=ties[0],
        tie_sites=sites if lifo != baseline else [],
    )
    return report
