"""Discrete-event simulation kernel (the reproduction's time substrate)."""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    Simulator,
    Timeout,
    Timer,
    Watchdog,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Interrupt",
    "Process",
    "Simulator",
    "Timeout",
    "Timer",
    "TraceRecord",
    "Tracer",
    "Watchdog",
]
