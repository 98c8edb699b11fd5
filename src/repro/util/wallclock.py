"""The one wall-clock accessor.

The simulator's determinism contract says *model* code never reads the
host: ``env.now`` is the only clock and :class:`~repro.util.rng.SeededRng`
the only randomness.  One harness concern legitimately needs the host —
measuring how fast the *engine* runs (wall-clock seconds per simulated
second) — and this module is the single place it is allowed:

* :func:`perf_counter` — monotonic wall-clock read for engine-speed
  metrics.

``repro.lint``'s wall-clock rule (DET101) bans direct ``time`` access
everywhere else, so every clock read in the tree is forced through this
function.  Environment variables have no such accessor: the simulation
takes no configuration from the process environment (DET106).
"""

from __future__ import annotations

import time

__all__ = ["perf_counter"]


def perf_counter() -> float:
    """Monotonic wall-clock seconds (engine-speed measurement only).

    Never feed this into simulated behavior or a result payload: wall
    time belongs only to the harnesses that measure host time
    (``benchmarks/e2e``, ``benchmarks/pair.py``, the fuzz budget).
    """
    return time.perf_counter()
