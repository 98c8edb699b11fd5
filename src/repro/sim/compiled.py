"""Optional compiled event-loop kernel: loader and ``run()`` wrapper.

``REPRO_ENGINE=compiled`` (read through the injectable
:mod:`repro.util.wallclock` boundary at :mod:`repro.sim` import time)
swaps :meth:`Environment.run` for :func:`_run_compiled`, which delegates
the per-event work — heap pops, dispatch, peak-heap accounting — to the
C extension built from ``_ckernel.c``.
The extension reads one heap, so activation also makes new
environments single-heap (:func:`repro.sim.core._install_loop`): every
schedule lands on ``_queue`` and the kernel's pop order is the textbook
one the tiered pure loop is proven equal to.  Everything that runs once
per ``run()`` call (the until-event protocol, gc suspension, the
``stop_at`` clock fixup, the dispatched-event count) stays in Python
where it is free.

The extension is built by :mod:`repro.engine_build` (which may invoke
the compiler and therefore lives *outside* the simulated layers — SIM201
bans real subprocesses here).  This module only imports the finished
artifact; when it is absent, :func:`activate` reports failure and the
pure-Python loop stays in place.  The two engines are digest-identical
by contract, enforced by tests/test_engine_matrix.py and the CI
``perf-engine`` job.
"""

from __future__ import annotations

import gc
from typing import Any, Optional

from .core import _HeapTier, Environment, Event, _install_loop
from .exceptions import SimulationError, StopSimulation

#: Which loop Environment.run currently uses: "pure" or "compiled".
ACTIVE_ENGINE = "pure"

_ckernel = None


def load() -> bool:
    """Import and initialise the C extension.  True on success."""
    global _ckernel
    if _ckernel is not None:
        return True
    try:
        from . import _ckernel as ext  # type: ignore[attr-defined]
    except ImportError:
        return False
    ext.setup(Event, Environment)
    _ckernel = ext
    return True


def _run_compiled(self: Environment, until: Any = None) -> Any:
    """Drop-in :meth:`Environment.run` backed by ``_ckernel.drain``.

    Mirrors the pure loop's until-protocol exactly (core.py): an
    already-processed until-event returns immediately, a numeric
    deadline becomes the drain horizon, ``StopSimulation`` raised by the
    until-event's callback surfaces the event value, and a queue that
    drains before the deadline still advances the clock to ``stop_at``.
    """
    queue = self._queue
    if not isinstance(self._normal, _HeapTier):
        raise SimulationError(
            "the compiled kernel reads one heap: construct the "
            "Environment after compiled.activate()"
        )
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

    horizon = float("inf") if stop_at is None else stop_at
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        _ckernel.drain(self, horizon)
    except StopSimulation as stop:
        return stop.args[0]
    finally:
        # On one heap, what the kernel dispatched is what is no longer
        # there; and the pure loop's run-boundary peak sample is taken
        # here, once per run() rather than in C.
        pending = len(queue)
        self._popped = self._seq - pending
        if pending > self._peak_pending:
            self._peak_pending = pending
        if gc_was_enabled:
            gc.enable()

    if stop_at is not None:
        # Horizon hit, or queue drained before the deadline: either way
        # the clock lands on stop_at, exactly as in the pure loop.
        self._now = stop_at
    return None


def activate() -> bool:
    """Patch :meth:`Environment.run` to the compiled loop.

    Returns True if the extension loaded and the patch is in place;
    False leaves the pure-Python loop untouched (graceful fallback —
    the digests are identical either way, only throughput differs).
    """
    global ACTIVE_ENGINE
    if not load():
        return False
    _install_loop(_run_compiled, single_heap=True)
    ACTIVE_ENGINE = "compiled"
    return True


def deactivate() -> None:
    """Restore the pure-Python loop (used by the parity tests)."""
    global ACTIVE_ENGINE
    _install_loop(Environment._run_pure, single_heap=False)
    ACTIVE_ENGINE = "pure"
