"""Flattened callback state machines for hot process types.

A :class:`Machine` replaces ``env.process(generator)`` *at the event
level*: it is an :class:`~repro.sim.core.Event` (exactly like
:class:`~repro.sim.core.Process`) that schedules an urgent kick event
with the same sequence-number cost as ``Initialize``, parks bound-method
states on exactly the events the generator version would park on, and on
completion schedules itself with the same cost as the ``StopIteration``
path.  Simulation digests (sequence counter + clock) and the peak-heap
observable are therefore byte-identical to the generator version; only
the Python-level resumption machinery — generator frames, ``send()``
trampolines, ``StopIteration`` materialization at every subgenerator
boundary — is gone.

The flattening contract (DESIGN.md §13):

1. Creation mints one urgent kick event (parity with ``Initialize``).
2. Every wait parks a state callback on the *same* event the generator
   version yielded, adding no events; ``yield from`` boundaries
   disappear entirely (a subgenerator call is just more states).
3. Completion schedules the machine itself at normal priority (parity
   with the ``StopIteration`` completion event); joiners ``yield`` the
   machine exactly as they would a :class:`Process`.
4. Failures mirror ``Process``: the machine event fails and undefused
   failures surface in the run loop.
5. Interruptible machines duck-type as :class:`Process` for
   :class:`~repro.sim.core._Interruption`: they maintain ``_target`` and
   ``_bound_resume`` at every park and route ``_resume`` of a failed
   interruption event to their interrupt handler.

Cold or deeply branchy sub-paths need not be hand-flattened:
:meth:`Machine._drive` runs any generator with ``Process._resume``'s
exact parking semantics but calls a continuation on ``StopIteration``
instead of scheduling a completion event — i.e. ``yield from`` parity,
not process parity.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from .core import Event, _PENDING, _Interruption
from .exceptions import Interrupt, SimulationError

__all__ = ["Machine"]


class _Kick(Event):
    """Internal: first activation of a freshly started machine.

    Sequence-number and priority parity with
    :class:`~repro.sim.core.Initialize` (one urgent event per start).
    A machine that lives more than once keeps its kick and re-files the
    same object for every life (:meth:`Machine._restart`).
    """

    __slots__ = ()

    def __init__(self, env: Any, callback: Callable[[Event], None]) -> None:
        # Inlined Event.__init__, mirroring Initialize.__init__.
        self.env = env
        self.callbacks = [callback]
        self._value = None
        self._ok = True
        self._defused = False
        env._seq += 1
        env._urgent.append(self)


class _Timer(Event):
    """Internal: a timeout owned by one machine and re-armed in place
    for each of its waits, instead of a :class:`~repro.sim.core.Timeout`
    constructed per wait.  For the wait that holds no resource; a holder
    re-arms its :meth:`~repro.sim.resources.Request.hold`."""

    __slots__ = ()

    def __init__(self, env: Any) -> None:
        self.env = env
        self.callbacks = None
        self._value = None
        self._ok = True
        self._defused = False

    def arm(self, delay: float, callback: Callable[[Event], None]) -> None:
        """Fire ``callback`` after ``delay``; the timer must be idle."""
        if self.callbacks is not None:
            raise SimulationError("arm() of a timer that is still pending")
        self.callbacks = [callback]
        self.env.schedule(self, delay)


class Machine(Event):
    """Base class for flattened process state machines.

    Subclasses call :meth:`_start` once from their constructor, park
    states with :meth:`_park`, and end with :meth:`_finish` or
    :meth:`_fail`.  The charge helper and the generator driver cover the
    two recurring composition patterns (CPU charges and cold-path
    ``yield from``).
    """

    __slots__ = (
        "name",
        "_target",
        "_bound_resume",
        # generator-driver state (cold-path `yield from` composition)
        "_gen",
        "_gen_cont",
        "_gen_step_cb",
        # charge-chain state (`yield from thread.charge(w)` parity)
        "_chg_thread",
        "_chg_wall",
        "_chg_req",
        "_chg_cont",
        "_chg_granted_cb",
        "_chg_done_cb",
    )

    def __init__(self, env: Any, name: str) -> None:
        # Inlined Event.__init__ (machines are minted on hot paths).
        # Only the Event-protocol fields are set; the interruption,
        # charge-chain and generator-driver slots stay *unset* unless a
        # subclass opts in via _init_interruptible() — short-lived
        # machines minted tens of thousands of times (rx-chunk) must not
        # pay a dozen dead attribute writes each.
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.name = name

    def _init_interruptible(self) -> None:
        """Initialize the slots :meth:`_resume`, :meth:`_charge` and
        :meth:`_drive` inspect.  Mandatory for machines that may be
        interrupted, charge CPU, or drive generators."""
        self._target = None
        self._bound_resume = None
        self._gen = None
        self._gen_cont = None
        self._gen_step_cb = None
        self._chg_thread = None
        self._chg_wall = 0.0
        self._chg_req = None
        self._chg_cont = None
        self._chg_granted_cb = None
        self._chg_done_cb = None

    # -- process duck-typing ----------------------------------------------
    @property
    def is_alive(self) -> bool:
        """``True`` while the machine has not completed."""
        return self._value is _PENDING

    @property
    def target(self) -> Optional[Event]:
        """The event this machine currently waits for."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`~repro.sim.exceptions.Interrupt` into the
        machine (same event-level protocol as ``Process.interrupt``)."""
        _Interruption(self, cause)

    # -- state plumbing ----------------------------------------------------
    def _start(self, state: Callable[[Event], None]) -> _Kick:
        """Schedule the kick that runs ``state`` (Initialize parity)."""
        return _Kick(self.env, state)

    def _restart(self, kick: _Kick, state: Callable[[Event], None]) -> None:
        """Begin another life of a machine that completed successfully
        and whose completion has been dispatched: an untriggered event
        again, started by its own ``kick`` (event parity with minting a
        new machine; nobody may still hold the previous life)."""
        self.callbacks = []
        self._value = _PENDING
        kick.callbacks = [state]
        env = self.env
        env._seq += 1
        env._urgent.append(kick)

    def _park(self, event: Event, state: Callable[[Event], None]) -> None:
        """Wait for ``event``; ``state`` runs when it is processed.

        Maintains the Process duck-type fields so interruption can
        detach the parked callback, exactly like ``_Interruption``
        detaches ``Process._bound_resume``.
        """
        self._target = event
        self._bound_resume = state
        event.callbacks.append(state)  # type: ignore[union-attr]

    def _finish(self, value: Any = None) -> None:
        """Complete successfully (StopIteration-path parity)."""
        self._ok = True
        self._value = value
        env = self.env
        env._seq += 1
        env._normal.append(self)
        # Drop every callback bound to the finished machine: each is a
        # cycle through ``self`` that would wait for the collector,
        # which run() suspends.
        self._target = self._bound_resume = None
        self._chg_granted_cb = self._chg_done_cb = self._gen_step_cb = None

    def _fail(self, exc: BaseException) -> None:
        """Complete as failed (Process failure-path parity)."""
        self._ok = False
        self._value = exc
        self.env.schedule(self)
        self._target = self._bound_resume = None
        self._chg_granted_cb = self._chg_done_cb = self._gen_step_cb = None

    # -- interruption ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Entry point for :class:`_Interruption` delivery.

        The interruption already detached the parked state callback from
        ``_target``; route the failure into whatever composition helper
        is mid-flight, then hand the (by then defused) interrupt to the
        subclass hook.
        """
        if event._ok:  # pragma: no cover - only interruptions route here
            raise SimulationError(f"unexpected resume of machine {self.name!r}")
        if self._gen is not None:
            # Exact Process._resume throw semantics: the generator's
            # try/finally blocks run before the machine reacts.
            self._gen_throw(event)
            return
        if self._chg_req is not None:
            # Parity with CpuComplex.execute's `finally: pool.finish(req)`
            # unwinding as the Interrupt propagates out of the charge.
            req = self._chg_req
            self._chg_req = None
            self._chg_cont = None
            self._chg_thread.cpu._core_pool.finish(req)
        exc = event._value
        if isinstance(exc, Interrupt):
            self._on_interrupt(exc)
        else:  # pragma: no cover - interruptions always carry Interrupt
            self._fail(exc)

    def _on_interrupt(self, exc: Interrupt) -> None:
        """Subclass hook: the machine was interrupted between states.

        Default mirrors the common ``except Interrupt: return`` loop
        idiom — complete successfully with ``None``.
        """
        self._finish(None)

    # -- charge chain ------------------------------------------------------
    def _charge(
        self, thread: Any, work: float, cont: Callable[[], None]
    ) -> None:
        """Event-parity equivalent of ``yield from thread.charge(work)``.

        Requests a core, holds it for the scaled wall time, accounts the
        busy seconds, releases the core, then calls ``cont`` — the same
        two parks (request grant, hold) and the same accounting order as
        :meth:`~repro.hw.cpu.CpuComplex.execute`.
        """
        if work <= 0:
            if work < 0:
                raise SimulationError(f"negative CPU work: {work}")
            cont()
            return
        cpu = thread.cpu
        self._chg_thread = thread
        self._chg_wall = work / cpu.perf
        self._chg_cont = cont
        if self._chg_granted_cb is None:
            self._chg_granted_cb = self._chg_granted
            self._chg_done_cb = self._chg_done
        req = cpu._core_pool.request()
        self._chg_req = req
        self._park(req, self._chg_granted_cb)

    def _chg_granted(self, event: Event) -> None:
        if not event._ok:
            self._resume(event)
            return
        # ``event`` is the granted request: it times its own hold.
        self._park(event.hold(self._chg_wall), self._chg_done_cb)

    def _chg_done(self, event: Event) -> None:
        if not event._ok:
            self._resume(event)
            return
        thread = self._chg_thread
        cpu = thread.cpu
        wall = self._chg_wall
        cpu.accounting.add_busy(thread.category, thread.name, wall)
        if cpu.observer is not None:
            cpu.observer(
                thread.category, thread.name, cpu.name, self.env.now, wall
            )
        req = self._chg_req
        self._chg_req = None
        cont = self._chg_cont
        self._chg_cont = None
        cpu._core_pool.finish(req)
        cont()  # type: ignore[misc]

    def _ctx_switch(
        self, thread: Any, cont: Callable[[], None], count: int = 1
    ) -> None:
        """Event-parity equivalent of ``yield from thread.ctx_switch()``."""
        cpu = thread.cpu
        cpu.accounting.add_ctx(thread.category, count)
        self._charge_raw(thread, count * cpu.ctx_switch_cost, cont)

    def _charge_raw(
        self, thread: Any, work: float, cont: Callable[[], None]
    ) -> None:
        # ctx_switch charges pre-scaled cost with no negative-work guard
        # (count and ctx_switch_cost are validated at construction).
        if work <= 0:
            cont()
            return
        self._charge(thread, work, cont)

    # -- generator driver --------------------------------------------------
    def _drive(
        self,
        gen: Generator[Any, Any, Any],
        cont: Callable[[Any], None],
    ) -> None:
        """Run ``gen`` with ``yield from`` parity.

        Parks on the events ``gen`` yields exactly like
        ``Process._resume`` (same already-processed fast path, same
        defuse-then-throw failure delivery) but calls ``cont(value)`` on
        ``StopIteration`` instead of scheduling a completion event, and
        routes an uncaught :class:`Interrupt` to :meth:`_on_interrupt` /
        anything else to :meth:`_fail` — the propagation a generator
        caller would see.
        """
        self._gen = gen
        self._gen_cont = cont
        if self._gen_step_cb is None:
            self._gen_step_cb = self._gen_step
        self._gen_send(None)

    def _gen_step(self, event: Event) -> None:
        if event._ok:
            self._gen_send(event._value)
        else:
            self._gen_throw(event)

    def _gen_send(self, value: Any) -> None:
        gen = self._gen
        while True:
            try:
                next_event = gen.send(value)  # type: ignore[union-attr]
            except StopIteration as stop:
                self._gen_done(stop.value)
                return
            except BaseException as exc:  # noqa: BLE001 - parity with Process
                self._gen_error(exc)
                return
            try:
                callbacks = next_event.callbacks
            except AttributeError:
                self._gen_throw_exc(
                    SimulationError(
                        f"machine {self.name!r} drove a generator that "
                        f"yielded a non-event: {next_event!r}"
                    )
                )
                return
            if callbacks is not None:
                self._park(next_event, self._gen_step_cb)  # type: ignore[arg-type]
                return
            if not next_event._ok:
                next_event._defused = True
                self._gen_throw_exc(next_event._value)
                return
            value = next_event._value

    def _gen_throw(self, event: Event) -> None:
        event._defused = True
        self._gen_throw_exc(event._value)

    def _gen_throw_exc(self, exc: BaseException) -> None:
        gen = self._gen
        try:
            next_event = gen.throw(exc)  # type: ignore[union-attr]
        except StopIteration as stop:
            self._gen_done(stop.value)
            return
        except BaseException as caught:  # noqa: BLE001 - parity with Process
            self._gen_error(caught)
            return
        try:
            callbacks = next_event.callbacks
        except AttributeError:
            self._gen_throw_exc(
                SimulationError(
                    f"machine {self.name!r} drove a generator that "
                    f"yielded a non-event: {next_event!r}"
                )
            )
            return
        if callbacks is not None:
            self._park(next_event, self._gen_step_cb)  # type: ignore[arg-type]
            return
        if not next_event._ok:
            next_event._defused = True
            self._gen_throw_exc(next_event._value)
            return
        self._gen_send(next_event._value)

    def _gen_done(self, value: Any) -> None:
        self._gen = None
        cont = self._gen_cont
        self._gen_cont = None
        cont(value)  # type: ignore[misc]

    def _gen_error(self, exc: BaseException) -> None:
        self._gen = None
        self._gen_cont = None
        if isinstance(exc, Interrupt):
            self._on_interrupt(exc)
        else:
            self._on_gen_error(exc)

    def _on_gen_error(self, exc: BaseException) -> None:
        """Subclass hook: a driven generator raised (non-Interrupt).

        Default mirrors an uncaught exception unwinding a process.
        """
        self._fail(exc)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} alive={self.is_alive}>"
