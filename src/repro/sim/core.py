"""Deterministic discrete-event simulation kernel.

This module implements the event loop at the heart of the DoCeph
reproduction: a SimPy-flavoured kernel built from scratch so that the
whole repository is dependency-free and bit-reproducible.

Design notes
------------
* **Determinism.**  Events are dispatched in ``(time, priority,
  sequence)`` order.  The monotonically increasing sequence number
  breaks ties in insertion order, so two runs of the same model with the
  same seed produce identical traces.
* **Pending events live where their key puts them** (DESIGN.md §13).
  Most events are scheduled for the current instant, so the pending set
  is split four ways: ``_urgent`` and ``_normal`` are FIFOs of events
  due *now* at each priority, ``_queue`` is the hot heap of ``(time,
  priority, sequence, event)`` for the near future, and ``_far`` is a
  second heap, keyed the same way, for timeouts filed at least
  :data:`FAR_S` ahead — watchdogs and 1-s tickers, which almost never
  fire as anything but no-ops and would otherwise make up nearly all
  of the hot heap.  A far entry moves into the hot heap before the
  clock can reach it.  The pop rule (:meth:`Environment.step`) walks
  the containers in an order that equals the one-heap order exactly.
  Heap entries keep their small ints unpacked,
  because CPython compares them in one machine word whereas a
  ``priority << k | seq`` packed key goes multi-digit and slows every
  heap sift (measured ~5% on the fallback scenario).
* **Every schedule mints exactly one sequence number**, whichever
  container it files the event in: ``env._seq`` is the event count the
  simulation digest hashes.  Hot constructors do it inline;
  :meth:`Environment.schedule` is the generic route.
* **Processes are generators.**  A process yields events; when a yielded
  event triggers, the process is resumed with the event's value (or the
  event's exception is thrown into it).
* **No wall-clock anywhere.**  ``env.now`` is the only notion of time.

The public surface mirrors the familiar SimPy API (``Environment``,
``Process``, ``Timeout``, ``Event``, ``AllOf``, ``AnyOf``) which keeps the
higher-level hardware models readable to anyone who has written DES
models before.
"""

from __future__ import annotations

import gc
from collections import deque
from collections.abc import Generator
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional

from .exceptions import Interrupt, SimulationError, StopSimulation

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "PRIORITY_URGENT",
    "PRIORITY_NORMAL",
    "FAR_S",
    "register_fresh_env_hook",
]

#: Scheduling priority for urgent events (processed before normal events
#: scheduled at the same simulated time).  Used internally for process
#: initialisation and interrupts.
PRIORITY_URGENT = 0

#: Default scheduling priority.
PRIORITY_NORMAL = 1

#: Delay (simulated seconds) from which :class:`Timeout` and
#: :meth:`Environment.schedule` file an event on the far heap instead of
#: the hot one.  Read off the delay histogram of the benchmark workloads
#: (DESIGN.md §13): every service hold, machine timer and short timeout
#: is < 0.15 s ahead, and the RPC watchdogs (0.5 s under the
#: fast-recovery profile, 1-10 s otherwise) and the heartbeat, beacon,
#: recovery and metrics tickers (1 s) are >= 0.5 s.  Dispatch order
#: does not depend on the value.
FAR_S = 0.5

_INF = float("inf")

# Sentinel distinguishing "not yet triggered" from "triggered with None".
_PENDING = object()

#: Callables invoked (in registration order) whenever a new
#: :class:`Environment` is constructed.  Modules with process-global
#: counters (e.g. the bufferlist blob-id mint) register a reset here so
#: every simulation starts from the same state regardless of what ran
#: earlier in the process — a fresh run and a run-after-run must be
#: bit-identical.
_fresh_env_hooks: list[Callable[[], None]] = []


def register_fresh_env_hook(hook: Callable[[], None]) -> None:
    """Run ``hook()`` at every :class:`Environment` construction."""
    _fresh_env_hooks.append(hook)


class Event:
    """An event that may happen at some point in simulated time.

    An event starts *untriggered*.  Calling :meth:`succeed` or
    :meth:`fail` *triggers* it, scheduling it on the environment's queue;
    when the event loop pops it, the event is *processed*: all callbacks
    run and any waiting processes resume.

    Attributes
    ----------
    env:
        The owning :class:`Environment`.
    callbacks:
        List of callables invoked with the event when it is processed.
        ``None`` once the event has been processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed`/:meth:`fail` has been called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the event's callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded (only meaningful if triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value.  Raises if the event is not yet triggered."""
        if self._value is _PENDING:
            raise AttributeError(f"value of {self!r} is not yet available")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception of a failed event, else ``None``."""
        if not self._ok and self._value is not _PENDING:
            return self._value  # type: ignore[return-value]
        return None

    @property
    def defused(self) -> bool:
        """Whether a failure has been marked as handled.

        A failed event whose exception is never retrieved would silently
        swallow the error; the kernel re-raises undefused failures at the
        top of the event loop.
        """
        return self._defused

    @defused.setter
    def defused(self, value: bool) -> None:
        self._defused = bool(value)

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        env._normal.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(
                f"fail() requires an exception, got {exception!r}"
            )
        self._ok = False
        self._value = exception
        self.env.schedule(self)
        return self

    def trigger(self, event: "Event") -> None:
        """Trigger this event with the state of another (callback helper)."""
        if self._value is not _PENDING:
            return
        self._ok = event._ok
        self._value = event._value
        self.env.schedule(self)

    # -- composition -------------------------------------------------------
    def __and__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.all_events, [self, other])

    def __or__(self, other: "Event") -> "Condition":
        return Condition(self.env, Condition.any_events, [self, other])

    def __repr__(self) -> str:
        state = (
            "processed"
            if self.processed
            else "triggered"
            if self.triggered
            else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after ``delay`` units of simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        # Timeouts are the highest-churn event type, so the generic
        # Event.__init__ chain is inlined: a timeout is born triggered,
        # and its fields are each written exactly once.
        if not 0 <= delay < _INF:  # negative, infinite, or NaN
            raise SimulationError(f"invalid timeout delay: {delay!r}")
        self.env = env
        self.callbacks = []
        self._defused = False
        self._ok = True
        self._value = value
        self.delay = delay
        env._seq = seq = env._seq + 1
        now = env._now
        at = now + delay
        if at > now:
            if delay < FAR_S:
                heappush(env._queue, (at, PRIORITY_NORMAL, seq, self))
            else:
                env._file_far((at, PRIORITY_NORMAL, seq, self))
        else:
            # Zero delay, or one the clock's precision absorbs: due now.
            env._normal.append(self)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class Initialize(Event):
    """Internal: first resumption of a freshly started process."""

    __slots__ = ()

    def __init__(self, env: "Environment", process: "Process") -> None:
        # Inlined Event.__init__ + env.schedule(self, priority=URGENT):
        # one Initialize per process makes this a hot constructor.
        self.env = env
        self.callbacks = [process._bound_resume]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq += 1
        env._urgent.append(self)


class _Interruption(Event):
    """Internal: delivers an :class:`Interrupt` into a process."""

    __slots__ = ("process",)

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.env)
        if process.triggered:
            raise SimulationError("cannot interrupt a terminated process")
        if process is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        self.process = process
        self.callbacks.append(self._deliver)  # type: ignore[union-attr]
        self._ok = False
        self._value = Interrupt(cause)
        self._defused = True
        self.env.schedule(self, priority=PRIORITY_URGENT)

    def _deliver(self, event: "Event") -> None:
        proc = self.process
        if proc.triggered:
            return  # process terminated before interrupt delivery
        # Detach the process from the event it is currently waiting for.
        target = proc._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(proc._bound_resume)
            except ValueError:
                pass
        proc._resume(self)


class Process(Event):
    """A process: a generator driven by the events it yields.

    A ``Process`` is itself an event that triggers when the generator
    terminates — either with the generator's return value (success) or
    with the uncaught exception (failure).
    """

    __slots__ = ("_generator", "_target", "name", "_bound_resume")

    def __init__(
        self,
        env: "Environment",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        # Inlined Event.__init__ (one Process per spawned generator).
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        # One bound method for the process's whole life: parking on an
        # event appends this same object instead of minting a new bound
        # method per yield.
        self._bound_resume = self._resume
        self._target: Optional[Event] = Initialize(env, self)
        self.name = name or getattr(generator, "__name__", "process")

    @property
    def is_alive(self) -> bool:
        """``True`` while the underlying generator has not terminated."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this process currently waits for (``None`` if running)."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process."""
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of ``event``."""
        env = self.env
        env._active_process = self
        gen = self._generator
        while True:
            try:
                if event._ok:
                    next_event = gen.send(event._value)
                else:
                    # The process handles (or not) the failure.
                    event._defused = True
                    next_event = gen.throw(event._value)
            except StopIteration as stop:
                # Process finished successfully.
                self._ok = True
                self._value = stop.value
                env._seq += 1
                env._normal.append(self)
                # A finished process drops its generator and the bound
                # method that points back at it: that cycle would wait
                # for the collector, which run() suspends.
                self._target = self._generator = self._bound_resume = None
                break
            except BaseException as exc:  # noqa: BLE001 - model errors propagate
                self._ok = False
                self._value = exc
                env.schedule(self)
                self._target = self._generator = self._bound_resume = None
                break

            # Fetching .callbacks doubles as the is-this-an-event check:
            # every Event has the attribute, and anything a model could
            # plausibly mis-yield (None, numbers, generators) does not.
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                exc2 = SimulationError(
                    f"process {self.name!r} yielded a non-event: {next_event!r}"
                )
                event = Event(env)
                event._ok = False
                event._value = exc2
                continue

            if callbacks is not None:
                # Event not yet processed: park until it triggers.
                self._target = next_event
                callbacks.append(self._bound_resume)
                break
            # Event already processed: feed its outcome straight back in.
            event = next_event

        env._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} alive={self.is_alive}>"


class Condition(Event):
    """An event that triggers when a predicate over child events holds.

    Used through the :class:`AllOf` / :class:`AnyOf` helpers or the
    ``&`` / ``|`` operators on events.  The condition's value is a dict
    mapping each *triggered* child event to its value, preserving the
    original event order.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for ev in self._events:
            if ev.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed(self._collect())
            return

        for ev in self._events:
            if self._value is not _PENDING:
                break  # an already-processed child decided it
            if ev.callbacks is None:
                self._check(ev)
            else:
                ev.callbacks.append(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {
            ev: ev._value
            for ev in self._events
            if ev.callbacks is None and ev._ok and ev._value is not _PENDING
        }

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return  # a child listed twice, dispatched once
        self._count += 1
        if not event._ok:
            event._defused = True
            self._ok = False
            self._value = event._value
        elif self._evaluate(self._events, self._count):
            self._ok = True
            self._value = self._collect()
        else:
            return
        self.env.schedule(self)
        # Let go of the children still pending: an RPC watchdog that
        # lost to the reply would otherwise pin this condition, its
        # events and its value until the deadline.  A child that fails
        # later still surfaces from run(), as nothing defuses it.
        check = self._check
        for ev in self._events:
            callbacks = ev.callbacks
            if callbacks is not None and check in callbacks:
                callbacks.remove(check)

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        """Predicate: every child event has triggered."""
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        """Predicate: at least one child event has triggered."""
        return count > 0 or not events


class AllOf(Condition):
    """Condition that triggers once *all* of ``events`` have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once *any* of ``events`` has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


def _finish_stopped(
    event: Event, callbacks: list[Callable[[Event], None]], raised: Any
) -> None:
    """Run the callbacks parked behind the until-event's stop callback.

    ``run(until=event)`` appends :meth:`StopSimulation.callback` to the
    event, and that callback unwinds the loop from the middle of the
    event's dispatch.  A process that parked on the event *after* the
    call sits behind it in ``callbacks``, and ``event.callbacks`` is
    already ``None``: resumed now or never.  ``raised`` is the callback
    the :class:`StopSimulation` came out of; when a model callback
    raised it, the rest of the dispatch is abandoned as before.
    """
    stop = StopSimulation.callback
    if raised != stop:
        return
    for callback in callbacks[callbacks.index(stop) + 1:]:
        if callback != stop:  # run(until=event) was asked for twice
            callback(event)


class Environment:
    """The simulation environment: clock plus pending events.

    Examples
    --------
    >>> env = Environment()
    >>> def proc(env):
    ...     yield env.timeout(5)
    ...     return env.now
    >>> p = env.process(proc(env))
    >>> env.run()
    >>> p.value
    5
    """

    __slots__ = (
        "_now",
        "_urgent",
        "_normal",
        "_queue",
        "_far",
        "_far_at",
        "_seq",
        "_popped",
        "_active_process",
        "_peak_pending",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        # Heap entries are (time, priority, seq, event), on both heaps.
        self._queue: list[tuple[float, int, int, Event]] = []
        self._far: list[tuple[float, int, int, Event]] = []
        #: Time of the far heap's top entry, ``inf`` when it is empty.
        self._far_at = _INF
        self._urgent: deque[Event] = deque()
        self._normal: deque[Event] = deque()
        self._seq = 0
        #: Events dispatched so far; ``_seq - _popped`` are pending.
        self._popped = 0
        self._active_process: Optional[Process] = None
        #: High-water mark of the pending-event count (a perf observable:
        #: memory pressure and heap-op cost both scale with it).
        self._peak_pending = 0
        for hook in _fresh_env_hooks:
            hook()

    @property
    def peak_pending(self) -> int:
        """Largest number of simultaneously scheduled events so far,
        sampled before each pop and at the end of each ``run()``."""
        return self._peak_pending

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the run's sequence counter)."""
        return self._seq

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed (``None`` between events)."""
        return self._active_process

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start a new process driven by ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event triggering when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        """Queue ``event`` for processing ``delay`` time units from now.

        The generic route into the pending set (hot constructors file
        their event inline).  ``priority`` is :data:`PRIORITY_NORMAL` or
        :data:`PRIORITY_URGENT`, and an urgent event is always due now:
        the pop rule relies on every future entry being normal.  A
        negative, infinite or NaN ``delay`` raises
        :class:`SimulationError` (a "never" is an untriggered event).
        """
        if not 0 <= delay < _INF:  # negative, infinite, or NaN
            raise SimulationError(f"invalid schedule delay: {delay!r}")
        now = self._now
        at = now + delay
        if at > now:
            if priority != PRIORITY_NORMAL:
                raise SimulationError(
                    f"a delayed event must have normal priority, "
                    f"got priority={priority!r} with delay={delay!r}"
                )
            self._seq = seq = self._seq + 1
            if delay < FAR_S:
                heappush(self._queue, (at, priority, seq, event))
            else:
                self._file_far((at, priority, seq, event))
        elif priority == PRIORITY_NORMAL:
            self._seq += 1
            self._normal.append(event)
        elif priority == PRIORITY_URGENT:
            self._seq += 1
            self._urgent.append(event)
        else:
            raise SimulationError(f"unknown scheduling priority: {priority!r}")

    def _file_far(self, entry: tuple[float, int, int, Event]) -> None:
        """File a heap entry at least :data:`FAR_S` ahead on the far heap."""
        heappush(self._far, entry)
        if entry[0] < self._far_at:
            self._far_at = entry[0]

    def _migrate(self, at: float) -> None:
        """Move every far entry due at or before ``at`` to the hot heap."""
        far = self._far
        queue = self._queue
        while far and far[0][0] <= at:
            heappush(queue, heappop(far))
        self._far_at = far[0][0] if far else _INF

    def peek(self) -> float:
        """Time of the next pending event, or ``inf`` if there is none."""
        if self._urgent or self._normal:
            return self._now
        at = self._queue[0][0] if self._queue else _INF
        return min(at, self._far_at)

    def step(self) -> None:
        """Process exactly one event (advancing the clock to it).

        **The pop rule**, which :meth:`run` inlines unchanged.  The next
        event is the first of:

        1. the head of the urgent FIFO;
        2. the hot heap's top entry, if its time equals ``now``;
        3. the head of the normal FIFO;
        4. the hot heap's top entry; the clock advances to its time.
           First, every far-heap entry due at or before that time (or,
           with the hot heap empty, at the far heap's top time) moves
           into the hot heap.

        This is the ``(time, priority, sequence)`` order of one heap
        holding everything.  Nothing pending is earlier than ``now``, so
        what is due now goes first, urgent before normal (beside a
        FIFO every heap entry is normal: :meth:`schedule`).  Among
        normal events due now, a heap entry was scheduled before the
        clock reached ``now`` and a FIFO entry after, so the heap entry
        holds the smaller sequence number; each FIFO is in sequence
        order by construction.  A far entry is keyed like a hot one and
        is born at least :data:`FAR_S` ahead, and step 4 moves it to
        the hot heap before the clock can reach its time, so no far
        entry is ever due now: the order does not depend on which heap
        an entry waited in, nor on the value of :data:`FAR_S`.

        Interleaving ``step()`` with ``run()`` is behavior-identical to
        one uninterrupted ``run()``; neither may be called from inside
        an event callback.
        """
        urgent = self._urgent
        queue = self._queue
        if urgent:
            event = urgent.popleft()
        elif queue and queue[0][0] == self._now:
            event = heappop(queue)[3]
        elif self._normal:
            event = self._normal.popleft()
        else:
            at = queue[0][0] if queue else self._far_at
            if self._far_at <= at:
                if at == _INF:
                    raise IndexError("no more events")
                self._migrate(at)
            self._now, _, _, event = heappop(queue)
        pending = self._seq - self._popped
        if pending > self._peak_pending:
            self._peak_pending = pending
        self._popped += 1

        callbacks = event.callbacks
        event.callbacks = None
        try:
            for callback in callbacks:
                callback(event)
        except StopSimulation:
            # A caller driving the until-protocol by hand (append
            # StopSimulation.callback, catch it around step()).
            if len(callbacks) > 1:
                _finish_stopped(event, callbacks, callback)
            raise

        if not event._ok and not event._defused:
            # An unhandled failure: surface it instead of losing it.
            raise event._value  # type: ignore[misc]

    def run(self, until: Any = None) -> Any:
        """Run the event loop.

        Parameters
        ----------
        until:
            ``None`` — run until nothing is pending.
            a number — run until simulated time reaches that point.
            an :class:`Event` — run until it triggers; its value is returned.

        Implementation notes (the simulator's hottest loop):

        * It is :meth:`step` inlined — same pop rule, same dispatch —
          with the containers, the clock and the counters held in
          locals: at hundreds of thousands of events per run a method
          call or an attribute load per event is measurable.  The
          horizon is tested only where the clock would advance, after
          the far-heap migration, which costs one float comparison
          there unless a far entry is due.
        * Cyclic garbage collection is suspended for the duration of the
          loop.  Event/process/generator webs are cyclic by nature, so
          the collector otherwise scans a few hundred thousand live
          objects mid-run to free almost nothing.  The other half of the
          bargain is kept by the model: finished processes and machines
          drop the callbacks bound to themselves, so a steady-state op
          leaves nothing only the collector could free
          (tests/test_sim_garbage.py).  This does not affect simulated
          behavior.
        * Dispatch is all the loop does to an event.  Wait objects that
          live more than once are re-armed by their owners
          (:meth:`~repro.sim.resources.Request.hold`, DESIGN.md §13), so
          there is no free list to feed from here.
        """
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

        urgent = self._urgent
        normal = self._normal
        queue = self._queue
        # ``inf`` stands in for "no deadline" so the loop tests a single
        # float comparison per clock advance instead of a None check too.
        horizon = _INF if stop_at is None else stop_at
        now = self._now
        popped = self._popped
        peak = self._peak_pending
        # Bind loop invariants to locals: ~300k iterations make even a
        # LOAD_GLOBAL per event measurable.
        pop = heappop
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if now >= horizon:
                # until == now: events due now belong to the next run.
                return None
            while True:
                if urgent:
                    event = urgent.popleft()
                elif queue and queue[0][0] == now:
                    event = pop(queue)[3]
                elif normal:
                    event = normal.popleft()
                else:
                    at = queue[0][0] if queue else self._far_at
                    if self._far_at <= at:
                        if at == _INF:
                            break  # nothing is pending
                        self._migrate(at)
                        at = queue[0][0]
                    if at >= horizon:
                        self._now = stop_at  # type: ignore[assignment]
                        return None
                    self._now = now = at
                    event = pop(queue)[3]
                count = self._seq - popped
                if count > peak:
                    peak = count
                popped += 1

                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)

                if not event._ok and not event._defused:
                    # An unhandled failure: surface it, don't lose it.
                    raise event._value  # type: ignore[misc]
        except StopSimulation as stop:
            if len(callbacks) > 1:
                # Waiters may be parked behind the stop callback.
                _finish_stopped(event, callbacks, callback)
            return stop.args[0]
        finally:
            # Run-boundary sample: events scheduled since the last pop
            # (setup before run(), pushes during the final callback) are
            # still part of the high-water mark.
            count = self._seq - popped
            if count > peak:
                peak = count
            self._peak_pending = peak
            self._popped = popped
            if gc_was_enabled:
                gc.enable()

        if stop_at is not None:
            # Drained before the deadline; clock still advances.
            self._now = stop_at
        return None

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={self._seq - self._popped}>"
