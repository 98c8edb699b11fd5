"""Helper factories shared across test modules."""

import contextlib
import pathlib
import re
from heapq import heappush

from repro.crush import CrushMap
from repro.hw import CpuComplex, Network, Nic, TcpStackModel
from repro.hw.node import NetStack
from repro.rados.osdmap import OsdMap
from repro.sim import (
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Environment,
    Event,
    StopSimulation,
)


class _HeapTier:
    """Stand-in for a current-tick FIFO on a single-heap environment:
    ``append`` files the event on the heap under the key the FIFO's
    position implies, so the tier itself is always empty."""

    def __init__(self, env, priority):
        self._env = env
        self._priority = priority

    def append(self, event):
        env = self._env
        # The caller has already minted the sequence number.
        heappush(env._queue, (env._now, self._priority, env._seq, event))

    def __len__(self):
        return 0


def _stepping_run(observe):
    """The textbook ``Environment.run``: re-test the horizon before
    every pop and take exactly one event per iteration via ``step()``,
    calling ``observe(env)`` after each."""

    def run(self, until=None):
        stop_at = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    return until.value if until.ok else None
                until.callbacks.append(StopSimulation.callback)
            else:
                stop_at = float(until)
        horizon = float("inf") if stop_at is None else stop_at
        try:
            while self.peek() < horizon:
                self.step()
                if observe is not None:
                    observe(self)
        except StopSimulation as stop:
            return stop.args[0]
        if stop_at is not None:
            self._now = stop_at
        elif self._dropped_at > self._now:
            # peek() dropped the cancelled entries left: end where
            # dispatching them would have, as the kernel's run() does.
            self._now = self._dropped_at
        return None

    return run


@contextlib.contextmanager
def reference_loop(observe=None, single_heap=True):
    """The tests' reference implementation of the event kernel, patched
    over ``Environment`` for the duration of a ``with`` block (``src/``
    carries nothing for it).

    ``run`` is the textbook loop above.  With ``single_heap`` every
    environment *constructed inside the block* keeps all its pending
    events on one heap in ``(time, priority, sequence)`` order, and
    ``step()`` reduces to a plain heap pop whatever its pop rule says
    about the FIFOs: the order the tiered store must equal.
    """
    init, run = Environment.__init__, Environment.run

    def single_heap_init(self, initial_time=0.0):
        init(self, initial_time)
        self._urgent = _HeapTier(self, PRIORITY_URGENT)
        self._normal = _HeapTier(self, PRIORITY_NORMAL)

    Environment.run = _stepping_run(observe)
    if single_heap:
        Environment.__init__ = single_heap_init
    try:
        yield
    finally:
        Environment.__init__, Environment.run = init, run


def two_osd_map():
    """osd.0 at "a" and osd.1 at "b", both up."""
    osdmap = OsdMap(crush=CrushMap())
    osdmap.add_osd(0, address="a")
    osdmap.add_osd(1, address="b")
    return osdmap


def make_stack(
    env: Environment,
    network: Network,
    address: str,
    cores: int = 4,
    perf: float = 1.0,
    bandwidth_bps: float = 100e9,
    tcp: TcpStackModel | None = None,
) -> NetStack:
    """Build a CPU+NIC endpoint attached to ``network``."""
    cpu = CpuComplex(env, f"{address}.cpu", cores=cores, perf=perf)
    nic = Nic(env, f"{address}.nic", bandwidth_bps=bandwidth_bps)
    network.attach(address, nic)
    return NetStack(
        cpu=cpu,
        nic=nic,
        network=network,
        address=address,
        tcp=tcp or TcpStackModel(),
    )


WORKFLOWS = pathlib.Path(__file__).resolve().parent.parent / ".github" / "workflows"
#: Job ids: two-space-indented keys under a workflow's ``jobs:``.
_JOB_ID = re.compile(r"^  ([\w-]+):\s*$", re.M)


def workflow_jobs(text: str) -> dict[str, str]:
    """Job id -> the text of that job, for one workflow file's text."""
    body = text[text.index("\njobs:\n"):]
    marks = [(m.group(1), m.start()) for m in _JOB_ID.finditer(body)]
    ends = [start for _, start in marks[1:]] + [len(body)]
    return {name: body[start:end] for (name, start), end in zip(marks, ends)}
