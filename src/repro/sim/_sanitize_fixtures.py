"""Planted nondeterminism fixtures for the sanitizer's self-test.

Each function here contains a *deliberate* determinism bug of a class
the sanitizer must catch — they are the positive controls proving the
detector actually detects, run by ``python -m repro sanitize`` on every
invocation.  Nothing in the engine imports this module.
"""

from __future__ import annotations

from repro.sim.core import Simulator
from repro.sim.sanitizer import SanitizeConfig

#: Enough members that three hash seeds agreeing on iteration order is
#: a ~1-in-10^107 fluke, but small enough to stay instant.
_PEERS = frozenset(f"peer-{i:02d}" for i in range(32))


def hash_order_engine() -> str:
    """Dict/set-iteration-order bug: output follows the process hash seed.

    Iterating an unordered collection and emitting in encounter order is
    exactly the bug class NM103 flags statically; this copy is suppressed
    so the *runtime* detector (byte-comparison across forced
    ``PYTHONHASHSEED`` values) has a live specimen to catch.
    """
    visit_order = []
    for peer in _PEERS:  # nm: allow[NM103] -- deliberately nondeterministic: the sanitizer self-test must catch this
        visit_order.append(peer)
    return ",".join(visit_order)


def batch_order_engine(sanitize: SanitizeConfig | None) -> str:
    """Intra-timestamp order bug: output follows same-t dispatch order.

    Schedules same-timestamp callbacks whose *observable* result depends
    on the order the kernel dispatches them — legal by the ``(time, seq)``
    contract only as long as nothing perturbs intra-timestamp order, which
    is precisely what the sanitizer's shake mode does.  Different shake
    seeds must therefore yield different outputs here.
    """
    sim = Simulator(sanitize=sanitize)
    arrival_order: list[str] = []

    def land(name: str) -> None:
        arrival_order.append(name)

    def takeoff() -> None:
        # Ten distinct timers, one shared future timestamp: the clock
        # reaches it with one equal-t run of ten queued entries.
        for i in range(10):
            sim.schedule(5.0, lambda i=i: land(f"pkt-{i}"))

    sim.schedule(0.0, takeoff)
    sim.run()
    return ",".join(arrival_order)
