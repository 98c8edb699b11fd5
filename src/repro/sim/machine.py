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
"""

from __future__ import annotations

from typing import Any, Callable, Optional

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
    :meth:`_fail`.
    """

    __slots__ = ("name", "_target", "_bound_resume")

    def __init__(self, env: Any, name: str) -> None:
        # Inlined Event.__init__ (machines are minted on hot paths).
        # Only the Event-protocol fields are set; the interruption
        # slots stay *unset* unless a subclass opts in via
        # _init_interruptible().
        self.env = env
        self.callbacks = []
        self._value = _PENDING
        self._ok = True
        self._defused = False
        self.name = name

    def _init_interruptible(self) -> None:
        """Initialize the slots an interruption reads (contract item
        5).  Mandatory for machines that may be interrupted."""
        self._target = None
        self._bound_resume = None

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

    def _fail(self, exc: BaseException) -> None:
        """Complete as failed (Process failure-path parity)."""
        self._ok = False
        self._value = exc
        self.env.schedule(self)
        self._target = self._bound_resume = None

    # -- interruption ------------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Entry point for :class:`_Interruption` delivery.

        The interruption already detached the parked state callback from
        ``_target`` and defused itself; hand the interrupt to the
        subclass hook.
        """
        if event._ok:  # pragma: no cover - only interruptions route here
            raise SimulationError(f"unexpected resume of machine {self.name!r}")
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

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} alive={self.is_alive}>"
