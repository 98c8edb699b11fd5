"""Host time and Python calls attributed to simulator layers.

A layer is one of eight packages under ``src/repro/``; the rest of
``repro`` (``bench``, ``qos``, ``cluster``, ``trace.py``, ...) is
``other``, and so is a stack with no ``repro`` frame at all (this
harness).  Two instruments share the mapping:

* :class:`StackSampler` — an interval timer; each signal charges one
  sample to the innermost ``repro`` frame, so standard library code is
  charged to the layer that called it.  CPython services signals
  between bytecodes, so time inside a C call (``heappush``,
  ``zlib.crc32``) is likewise charged to the Python frame that made
  the call.  The timer is ``ITIMER_REAL``: ``ITIMER_PROF`` is paced by
  the kernel tick and tops out near 250 samples/s here, the real-time
  timer delivers 1 kHz, and for one CPU-bound thread wall time and CPU
  time agree to 1 %.
* :func:`profile_calls` — one cProfile'd call, reduced to the number of
  Python-level calls into each layer.  cProfile distorts time but not
  counts: for a deterministic replay the counts repeat exactly.
"""

from __future__ import annotations

import cProfile
import pstats
import signal
from types import CodeType, FrameType
from typing import Any, Callable, Optional

#: The layers host time is reported for, in report order.
LAYERS = ("sim", "hw", "msgr", "osd", "core", "objectstore", "rados", "util")
OTHER = "other"

_MARKER = "/repro/"

#: The sampler's period: 1 kHz, fixed so that sample counts and shares
#: are comparable between any two runs.
INTERVAL_S = 0.001


def layer_of(filename: str) -> Optional[str]:
    """``.../repro/<layer>/...py`` -> ``<layer>``; any other file of
    ``repro`` -> ``other``; a file outside ``repro`` -> None."""
    normalized = filename.replace("\\", "/")
    idx = normalized.rfind(_MARKER)
    if idx < 0:
        return None
    head, sep, _ = normalized[idx + len(_MARKER):].partition("/")
    return head if sep and head in LAYERS else OTHER


class StackSampler:
    """Counts timer-signal samples per layer while started.

    ``code_layers`` pins specific code objects to a layer; the
    sensitivity check uses it so that a delay wrapped around a layer's
    function is charged to that layer and not to its caller.
    """

    def __init__(
        self, code_layers: Optional[dict[CodeType, str]] = None
    ) -> None:
        self.counts: dict[str, int] = {name: 0 for name in (*LAYERS, OTHER)}
        self._by_code: dict[CodeType, Optional[str]] = dict(code_layers or {})
        self._previous: Any = None

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def _on_signal(self, _signum: int, frame: Optional[FrameType]) -> None:
        by_code = self._by_code
        while frame is not None:
            code = frame.f_code
            try:
                layer = by_code[code]
            except KeyError:
                layer = by_code[code] = layer_of(code.co_filename)
            if layer is not None:
                self.counts[layer] += 1
                return
            frame = frame.f_back
        self.counts[OTHER] += 1

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_signal)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def self_pct(self) -> dict[str, float]:
        total = self.samples
        return {
            name: 100.0 * n / total if total else 0.0
            for name, n in self.counts.items()
        }


def profile_calls(fn: Callable[[], Any]) -> tuple[Any, dict[str, int]]:
    """Run ``fn`` under cProfile; return its result and the number of
    calls into each layer (Python functions only, built-ins excluded)."""
    profiler = cProfile.Profile()
    result = profiler.runcall(fn)
    calls = {name: 0 for name in LAYERS}
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    for (filename, _line, _func), (_cc, ncalls, *_rest) in stats.items():
        layer = layer_of(filename)
        if layer in calls:
            calls[layer] += ncalls
    return result, calls
