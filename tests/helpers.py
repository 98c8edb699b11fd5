"""Helper factories shared across test modules."""

import contextlib

from repro.hw import CpuComplex, Network, Nic, TcpStackModel
from repro.hw.node import NetStack
from repro.sim import Environment, Event, StopSimulation
from repro.sim.core import _install_loop


def stepping_run(observe=None):
    """Build the textbook ``Environment.run``: re-test the horizon before
    every pop and take exactly one event per iteration via ``step()``,
    calling ``observe(env)`` after each.

    Installed with ``single_heap=True`` every pending event sits on one
    heap in ``(time, priority, sequence)`` order and ``step()`` reduces
    to a plain heap pop — the order the tiered loop must equal.
    """

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
        return None

    return run


@contextlib.contextmanager
def installed_loop(run, single_heap):
    """Install a dispatch loop (and the kind of ``Environment`` built
    under it) for the duration of a ``with`` block."""
    previous = _install_loop(run, single_heap)
    try:
        yield
    finally:
        _install_loop(*previous)


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
