"""Discrete-event simulation kernel (the reproduction's time substrate)."""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Condition,
    Event,
    NamedEvent,
    Process,
    Simulator,
    Timeout,
    Timer,
)
from repro.sim.trace import TraceRecord, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "NamedEvent",
    "Process",
    "Simulator",
    "Timeout",
    "Timer",
    "TraceRecord",
    "Tracer",
]
