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
2. with :meth:`Environment.run` replaced by a loop that takes each
   equal-``(time, priority)`` tie class out of the pending store and
   feeds it back, one event per :meth:`Environment.step`, in FIFO
   (= native) order.  This digest must match run 1; it proves the
   instrumentation itself is behavior-neutral.
3. with the same loop feeding each tie class in LIFO order — a legal
   tie-break under the model's contract.  A digest mismatch means some
   same-timestamp batch is order-sensitive; the recorded batches (time
   + event descriptions) are the candidate sites.

The probe owns neither dispatch nor the ``until`` protocol: ``step()``
pops and dispatches every event but the until-event, and the native
``run`` is called last — with that one event at the head of the store,
or with nothing left to do but apply the protocol's end state (the
return value, the clock at a numeric deadline, the argument checks).
One difference follows: a :class:`~repro.sim.StopSimulation` raised by
a model callback (no model in ``src/`` does) propagates out of the
probe's ``run`` where the native one returns its argument.
"""

from __future__ import annotations

import contextlib
from collections import deque
from dataclasses import dataclass, field
from heapq import heappop
from typing import Any, Callable, Iterator, Optional

from ..sim.core import _CANCELLED, Environment, Event

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


def _take_tie_class(env: Environment) -> tuple[deque[Event], deque[Event]]:
    """Remove the events :meth:`Environment.step` would pop next that
    share one ``(time, priority)`` key, in pop order: the urgent FIFO,
    or else the heap entries due at the next instant followed (when
    that instant is now) by the normal FIFO.  Cancelled timeouts are
    dropped, as the pop rule drops them.  Also returns the FIFO whose
    head they are put back at if the run stops mid-batch."""
    if not env._urgent and not env._normal:
        # The clock advances next: drop the cancelled entries at the
        # heap's head first, as the pop rule does.
        env.peek()
    home = env._urgent or env._normal
    batch: deque[Event] = deque()
    queue = env._queue
    if not env._urgent and queue and (
        queue[0][0] == env._now or not env._normal
    ):
        # Leaving the heap also moves the clock, as the pop would have.
        env._now = at = queue[0][0]
        while queue and queue[0][0] == at:
            batch.append(heappop(queue)[3])
    batch.extend(home)
    home.clear()
    return deque(e for e in batch if e.callbacks is not _CANCELLED), home


@contextlib.contextmanager
def patched_tie_order(
    mode: str = "lifo",
    recorder: Optional[Callable[[float, list[Event]], None]] = None,
) -> Iterator[None]:
    """Swap :meth:`Environment.run` for one feeding ties in ``mode`` order.

    Class-level patch: the environment is slotted, so per-instance
    patching is impossible — every ``run()`` inside the ``with`` block
    uses the perturbed loop.
    """
    if mode not in ("fifo", "lifo"):
        raise ValueError(f"unknown tie order mode: {mode!r}")
    native = Environment.run

    def run(self: Environment, until: Any = None) -> Any:
        horizon = float("inf")
        if isinstance(until, Event):
            if until.processed:
                return native(self, until)
        elif until is not None:
            horizon = float(until)
        while self.peek() < horizon:
            batch, home = _take_tie_class(self)
            if len(batch) > 1:
                if recorder is not None:
                    recorder(self._now, list(batch))
                if mode == "lifo":
                    batch.reverse()
            try:
                # A batch is dispatched whole before anything scheduled
                # meanwhile, urgent included: the head of the urgent
                # FIFO is what the pop rule takes first.
                while batch:
                    event = batch.popleft()
                    self._urgent.appendleft(event)
                    if event is until:
                        # One event for the native loop: it attaches
                        # the stop callback, dispatches, and returns.
                        return native(self, until)
                    self.step()
            finally:
                # Stopped by the until-event or a model failure: what
                # is left goes back where the next run() will find it.
                home.extendleft(reversed(batch))
        return native(self, until)

    Environment.run = run  # type: ignore[method-assign]
    try:
        yield
    finally:
        Environment.run = native  # type: ignore[method-assign]


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
