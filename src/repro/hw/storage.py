"""Block storage device model (the testbed's Samsung PM893 SATA SSD).

A single-channel FIFO service model: each I/O seizes the device for
``base_latency + size / bandwidth`` seconds.  That makes saturated
throughput exactly the device bandwidth (which is what bounds the
large-block IOPS ceiling in Figure 10) while small I/Os see the base
latency, and concurrent submitters experience realistic queueing.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..sim import Environment, Resource
from ..sim.exceptions import SimulationError

__all__ = ["SsdDevice", "StorageError"]


class StorageError(Exception):
    """An I/O failed at the device (injected media/link error)."""


class SsdDevice:
    """A flash device with distinct read/write service rates."""

    __slots__ = (
        "env",
        "name",
        "write_bandwidth",
        "read_bandwidth",
        "write_latency",
        "read_latency",
        "_chan",
        "fault_injector",
        "bytes_written",
        "bytes_read",
        "writes",
        "reads",
        "io_errors",
        "failed_bytes",
        "busy_time",
    )

    def __init__(
        self,
        env: Environment,
        name: str,
        write_bandwidth: float = 1.3e9,
        read_bandwidth: float = 1.6e9,
        write_latency: float = 60e-6,
        read_latency: float = 90e-6,
    ) -> None:
        if min(write_bandwidth, read_bandwidth) <= 0:
            raise SimulationError("device bandwidth must be positive")
        if min(write_latency, read_latency) < 0:
            raise SimulationError("device latency must be >= 0")
        self.env = env
        self.name = name
        self.write_bandwidth = write_bandwidth
        self.read_bandwidth = read_bandwidth
        self.write_latency = write_latency
        self.read_latency = read_latency
        self._chan = Resource(env, capacity=1)

        #: Optional :class:`~repro.faults.LayerInjector` (layer
        #: "storage"); a hit fails the I/O with :class:`StorageError`
        #: after the device has been held for the full service time.
        self.fault_injector: Optional[Any] = None

        # statistics
        self.bytes_written = 0
        self.bytes_read = 0
        self.writes = 0
        self.reads = 0
        self.io_errors = 0
        self.failed_bytes = 0
        self.busy_time = 0.0

    def _io(
        self, nbytes: int, latency: float, bandwidth: float
    ) -> Generator[Any, Any, None]:
        if nbytes < 0:
            raise SimulationError(f"negative I/O size: {nbytes}")
        with self._chan.request() as req:
            yield req
            service = latency + nbytes / bandwidth
            yield req.hold(service)
            self.busy_time += service
            if self.fault_injector is not None and self.fault_injector.fire(
                self.env.now, size=nbytes
            ):
                self.io_errors += 1
                self.failed_bytes += nbytes
                raise StorageError(
                    f"{self.name}: I/O of {nbytes} B failed (injected)"
                )

    def write(self, nbytes: int) -> Generator[Any, Any, None]:
        """Persist ``nbytes`` (durable once this returns)."""
        yield from self._io(nbytes, self.write_latency, self.write_bandwidth)
        self.bytes_written += nbytes
        self.writes += 1

    def read(self, nbytes: int) -> Generator[Any, Any, None]:
        """Fetch ``nbytes`` from media."""
        yield from self._io(nbytes, self.read_latency, self.read_bandwidth)
        self.bytes_read += nbytes
        self.reads += 1

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` the device spent servicing I/O."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def __repr__(self) -> str:
        return (
            f"<SsdDevice {self.name} w={self.write_bandwidth/1e6:.0f} MB/s"
            f" r={self.read_bandwidth/1e6:.0f} MB/s>"
        )
