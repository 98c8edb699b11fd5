"""Deterministic discrete-event simulation kernel (SimPy-flavoured).

The kernel is the foundation of the DoCeph reproduction: every hardware
component (CPU cores, NICs, the DMA engine, SSDs) and every daemon
(messenger workers, OSD threads, BlueStore threads) is a process or a
resource running on one shared :class:`Environment`.
"""

from .core import (
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    PRIORITY_NORMAL,
    PRIORITY_URGENT,
    Process,
    Timeout,
)
from .exceptions import Interrupt, SimulationError, StopSimulation
from .resources import (
    Container,
    Release,
    Request,
    Resource,
    Store,
)

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Container",
    "Environment",
    "Event",
    "Interrupt",
    "PRIORITY_NORMAL",
    "PRIORITY_URGENT",
    "Process",
    "Release",
    "Request",
    "Resource",
    "SimulationError",
    "StopSimulation",
    "Store",
    "Timeout",
]
