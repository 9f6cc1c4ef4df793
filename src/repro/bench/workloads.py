"""Irregular multi-flow workload generation.

Paper §1-2 motivates the engine with "the irregular and multi-flow
communication schemes" of composite applications that simple ping-pongs do
not capture.  This module generates seeded random traffic — many flows,
mixed sizes, bursts, priorities — and replays it through any backend,
so tests can assert correctness invariants under realistic chaos and the
benches can compare strategies beyond the paper's regular workloads.

Generation is fully deterministic per seed (``random.Random``), matching
the library-wide reproducibility guarantee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.errors import ReproError

__all__ = ["TrafficSpec", "Message", "generate_messages", "replay"]


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of a random traffic mix."""

    n_messages: int = 50
    n_flows: int = 4
    n_tags: int = 4
    min_size: int = 1
    max_size: int = 64 * 1024
    large_fraction: float = 0.1       # fraction forced above 128 KB
    large_max: int = 1 << 20
    burst_prob: float = 0.5           # chance the next message has no gap
    max_gap_us: float = 5.0
    priority_levels: int = 3

    def __post_init__(self) -> None:
        if self.n_messages < 1 or self.n_flows < 1 or self.n_tags < 1:
            raise ReproError("traffic spec needs at least one of everything")
        if not 0 <= self.min_size <= self.max_size:
            raise ReproError(
                f"bad size range [{self.min_size}, {self.max_size}]"
            )
        if not 0.0 <= self.large_fraction <= 1.0:
            raise ReproError(f"bad large_fraction {self.large_fraction}")
        if not 0.0 <= self.burst_prob <= 1.0:
            raise ReproError(f"bad burst_prob {self.burst_prob}")


@dataclass(frozen=True)
class Message:
    """One generated message: submission gap, addressing, size, priority."""

    gap_us: float
    flow: int
    tag: int
    size: int
    priority: int
    payload_seed: int

    def payload(self) -> bytes:
        """Deterministic content so receivers can verify integrity."""
        rng = random.Random(self.payload_seed)
        return bytes(rng.getrandbits(8) for _ in range(min(self.size, 512))) \
            + bytes(max(0, self.size - 512))


def generate_messages(spec: TrafficSpec, seed: int = 0) -> list[Message]:
    """Produce the deterministic message list for ``spec`` and ``seed``."""
    rng = random.Random(seed)
    out: list[Message] = []
    for i in range(spec.n_messages):
        if rng.random() < spec.large_fraction:
            size = rng.randint(128 * 1024, spec.large_max)
        else:
            size = rng.randint(spec.min_size, spec.max_size)
        gap = 0.0 if rng.random() < spec.burst_prob \
            else rng.uniform(0.0, spec.max_gap_us)
        out.append(Message(
            gap_us=gap,
            flow=rng.randrange(spec.n_flows),
            tag=rng.randrange(spec.n_tags),
            size=size,
            priority=rng.randrange(spec.priority_levels),
            payload_seed=seed * 1_000_003 + i,
        ))
    return out


def replay(pair, messages: Sequence[Message], verify_content: bool = True):
    """Replay ``messages`` from rank 0 to rank 1 of a backend pair.

    Returns the list of completed receive requests (in per-flow order).
    Raises through the simulator if anything is lost, corrupted, reordered
    within a flow, or left dangling.
    """
    sim = pair.sim
    m0, m1 = pair.m0, pair.m1
    from repro.core.data import VirtualData

    # One communicator per flow: this is what makes the traffic genuinely
    # multi-flow from the engine's point of view.
    flows = sorted({msg.flow for msg in messages})
    comms = {f: pair.world.dup() for f in flows}

    def sender():
        for msg in messages:
            if msg.gap_us > 0:
                yield sim.timeout(msg.gap_us)
            data = msg.payload() if verify_content else VirtualData(msg.size)
            m0.isend(data, dest=1, tag=msg.tag, comm=comms[msg.flow])

    done: list = []

    def receiver():
        # Post receives in submission order (tags + communicators
        # disambiguate through the matcher as usual).
        reqs = []
        for msg in messages:
            reqs.append((msg, m1.irecv(source=0, tag=msg.tag,
                                       comm=comms[msg.flow],
                                       nbytes=msg.size)))
        for msg, req in reqs:
            yield req
            done.append((msg, req))

    sim.spawn(sender(), name="traffic-sender")
    sim.run_process(receiver(), name="traffic-receiver")
    if verify_content:
        for msg, req in done:
            got = req.data.tobytes()
            if got != msg.payload():
                raise ReproError(
                    f"payload corrupted for {msg} (got {len(got)} bytes)"
                )
    return done
