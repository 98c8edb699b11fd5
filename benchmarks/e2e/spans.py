"""Harness-boundary spans: wall-clock intervals around calls into the
program, recorded from the benchmark's own files.

A span is (name, start, end, parent, replay id).  Spans nest by call
structure on the one harness thread, so a span's children never overlap
and its self time is its duration minus the sum of theirs.  Everything
stays in memory until :meth:`SpanLog.dump` writes it out at exit.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterator, Optional

from repro.util.wallclock import perf_counter


@dataclass
class HarnessSpan:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`SpanLog.spans`, or None.
    parent: Optional[int]
    #: Which replay of the invocation the span belongs to (None for
    #: spans outside any replay, e.g. imports).
    replay: Optional[int]

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """An in-memory list of harness spans with a current-parent stack."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self._clock = clock
        self._open: list[int] = []
        self.spans: list[HarnessSpan] = []

    @contextmanager
    def span(self, name: str, replay: Optional[int] = None) -> Iterator[int]:
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        now = self._clock()
        self.spans.append(HarnessSpan(name, now, now, parent, replay))
        self._open.append(index)
        try:
            yield index
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span measured elsewhere (the import phase, which
        runs before this module exists)."""
        self.spans.append(HarnessSpan(name, start, end, None, None))

    def self_time(self, index: int) -> float:
        """Duration of span ``index`` not covered by its child spans."""
        covered = sum(
            s.duration for s in self.spans if s.parent == index
        )
        return self.spans[index].duration - covered

    def total(self, name: str, replay: Optional[int] = None) -> float:
        """Summed duration of the spans called ``name`` in ``replay``."""
        return sum(
            s.duration for s in self.spans
            if s.name == name and s.replay == replay
        )

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps([asdict(s) for s in self.spans]))
