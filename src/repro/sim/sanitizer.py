"""Runtime determinism sanitizer for the event kernel.

The repo's standing acceptance bar is *bit-identical* output: figures and
seeded chaos runs must not change across processes, Python versions, or
hash seeds.  The static pass (NM1xx/NM5xx) proves what it can about
iteration order and generation guards; this module hunts the rest
**dynamically**, by making the kernel actively hostile to latent order
dependence while staying observably equivalent for correct code:

* ``no_coalesce`` — :meth:`~repro.sim.core.Simulator.mark` returns a
  fresh stamp on every call, so no two marks ever compare equal and every
  mark-guarded coalescing fast path (the NIC rx/refill batching) is
  forced onto its slow path; ``schedule_batch`` is likewise de-batched
  into consecutive ``schedule`` calls.  Both rewrites are equivalent *by
  the kernel's own contract* (a batch is defined as consecutive pushes;
  coalescing is only legal when it is unobservable) — so any output
  difference under ``no_coalesce`` is a real bug in a coalescing guard.

* ``shake_seed`` — after the calendar queue sorts an extracted slot, runs
  of *equal-timestamp* entries are deterministically permuted by a
  :class:`random.Random` seeded with ``shake_seed``.  Inter-timestamp
  order is untouched.  Handlers whose observable writes depend on
  intra-timestamp arrival order produce different fingerprints under
  different shake seeds.  Unlike ``no_coalesce`` this is **not**
  output-preserving in general — protocol layers may legitimately rely
  on FIFO fairness within a timestamp — so the shake is applied to
  workloads that are claimed order-insensitive (the kernel storm profile
  and the sanitizer's own fixtures), not to the figure pipeline.

* ``trace`` — every :class:`~repro.sim.trace.Tracer` is constructed
  enabled (records are built, then dropped), so each guarded
  ``tracer.emit(...)`` site evaluates its arguments.  Tracing is
  observation only: output must stay byte-identical, and a difference
  means an emit site (or the code computing its details) mutates state.

Sanitize mode is **opt-in and default-off**: a plain ``Simulator()``
checks the ``REPRO_SANITIZE`` environment variable once at construction
(unset in normal runs) and takes zero extra branches on the push paths
either way.  ``python -m repro sanitize`` is the driver that
combines these hooks with forced hash randomization and byte-compares
the output (see ``repro.cli``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from random import Random
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - core imports this module
    from repro.sim.core import Simulator

__all__ = [
    "SanitizeConfig",
    "active_sanitizer",
    "parse_sanitize_spec",
    "post_storm",
    "shake_slot",
    "storm_fingerprint",
]

#: Environment variable holding the sanitize spec for subprocess runs.
SANITIZE_ENV = "REPRO_SANITIZE"


@dataclass(frozen=True)
class SanitizeConfig:
    """Kernel sanitize mode: which determinism hazards to provoke."""

    no_coalesce: bool = False
    shake_seed: int | None = None
    trace: bool = False

    def spec(self) -> str:
        """The ``REPRO_SANITIZE`` string that reproduces this config."""
        parts = []
        if self.no_coalesce:
            parts.append("nocoalesce")
        if self.shake_seed is not None:
            parts.append(f"shake:{self.shake_seed}")
        if self.trace:
            parts.append("trace")
        return ",".join(parts)


def parse_sanitize_spec(spec: str) -> SanitizeConfig | None:
    """Parse ``"nocoalesce"``, ``"shake:SEED"``, ``"trace"``, or a comma
    combination.

    An empty/blank spec means "not sanitizing" (returns ``None``); an
    unknown token raises, so a typo'd CI variable cannot silently run the
    un-sanitized kernel and report success.
    """
    spec = spec.strip()
    if not spec:
        return None
    no_coalesce = False
    shake_seed: int | None = None
    trace = False
    for token in spec.split(","):
        token = token.strip()
        if token == "nocoalesce":
            no_coalesce = True
        elif token.startswith("shake:"):
            shake_seed = int(token[len("shake:"):])
        elif token == "trace":
            trace = True
        else:
            raise ValueError(f"unknown sanitize token {token!r} (expected "
                             "'nocoalesce', 'shake:SEED' or 'trace')")
    return SanitizeConfig(no_coalesce=no_coalesce, shake_seed=shake_seed,
                          trace=trace)


def active_sanitizer() -> SanitizeConfig | None:
    """The process-wide sanitize config (``REPRO_SANITIZE``), if any."""
    return parse_sanitize_spec(os.environ.get(SANITIZE_ENV, ""))


def shake_slot(slot: list[tuple[float, int, Any]], rng: Random) -> None:
    """Permute runs of equal-timestamp entries of a sorted slot in place.

    Entries are ``(t, seq, item)`` and the slot arrives sorted, so equal-t
    runs are contiguous; only their internal order changes.  Because the
    ``(t, seq)`` prefix is unique, later ``insort`` calls into the live
    batch never compare payloads, and any bisection misplacement stays
    inside the equal-t region — which is exactly the variance being
    injected.
    """
    i, n = 0, len(slot)
    while i < n:
        t = slot[i][0]
        j = i + 1
        while j < n and slot[j][0] == t:
            j += 1
        if j - i > 1:
            run = slot[i:j]
            rng.shuffle(run)
            slot[i:j] = run
        i = j


def post_storm(
    sim: Simulator, rounds: int, fanout: int, stragglers: int
) -> list[int]:
    """Post the completion-storm workload on ``sim``; run it with ``sim.run()``.

    Per round, ``fanout`` same-timestamp completions go through
    ``schedule_batch`` (one queue entry, one dispatch — the way the batched
    NIC refill/rx paths post them) plus ``stragglers`` timers spread across
    the epoch.  Completions only count, so the workload is order-insensitive
    by construction.  Returns the one-cell completion counter.  Shared by
    :func:`storm_fingerprint` and ``repro.bench.perf.bench_kernel_storm``.
    """
    count = [0]

    def completion() -> None:
        count[0] += 1

    def round_fn(r: int) -> None:
        sim.schedule_batch(1.0, [completion] * fanout)
        for k in range(stragglers):
            sim.schedule(1.0 + (k + 1) * 0.07, completion)
        if r + 1 < rounds:
            sim.schedule(1.0, lambda: round_fn(r + 1))

    sim.schedule(0.0, lambda: round_fn(0))
    return count


def storm_fingerprint(
    config: SanitizeConfig | None,
    rounds: int = 40,
    fanout: int = 64,
    stragglers: int = 8,
) -> tuple[float, int, int]:
    """Deterministic fingerprint of a :func:`post_storm` run.

    A correct kernel yields the same ``(final clock, events processed,
    completions)`` triple under every sanitize config, while a kernel
    whose batching or intra-slot ordering leaks into observable state
    does not.
    """
    from repro.sim.core import Simulator

    sim = Simulator(sanitize=config)
    count = post_storm(sim, rounds, fanout, stragglers)
    final = sim.run()
    return (final, sim.events_processed, count[0])
