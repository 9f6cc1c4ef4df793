# nm-path: repro/core/fixture_good_blocking.py
"""Fixture: non-blocking idioms the checker must accept."""
import math


def chunks(nbytes: int, mtu: int) -> int:
    return math.ceil(nbytes / mtu)


def defer(sim, fn, delay: float) -> None:
    sim.schedule(delay, fn)  # simulated time, never wall-clock waits


def trace(tracer, now: float, what: str) -> None:
    if tracer.enabled:
        tracer.emit(now, "core", what)  # tracer buffers in memory
