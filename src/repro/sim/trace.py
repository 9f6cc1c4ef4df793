"""Structured tracing of simulation activity.

Every layer of the stack (NICs, the engine's scheduler, the MPI models)
emits trace records through a shared :class:`Tracer`.  Tracing serves three
purposes in the reproduction:

* tests assert on the *sequence* of protocol actions (e.g. "the 16 segments
  crossed the wire in 2 physical packets"),
* the examples print human-readable timelines, and
* benchmark debugging (why did a curve move?) without a debugger.

Tracing is disabled by default.  Every call site tests ``tracer.enabled``
*before* it builds the record's arguments (lint rule NM402 enforces this
under ``core/``, ``sim/``, ``netsim/`` and ``madmpi/``), so a disabled
tracer costs one attribute test per site: no call, no keyword dict, no
source string.  Source strings are built once, at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterator

from typing import Any

from repro.sim.sanitizer import active_sanitizer

__all__ = ["TraceRecord", "Tracer"]


def _discard(record: TraceRecord) -> None:
    """Sink of a tracer that sanitize mode, not its owner, switched on."""


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    ``time`` is simulated microseconds, ``source`` identifies the emitting
    component (e.g. ``"node0.nic.mx0"``), ``kind`` is a short machine-friendly
    verb (e.g. ``"tx_start"``), and ``detail`` carries free-form fields.
    """

    time: float
    source: str
    kind: str
    detail: dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        fields = " ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"[{self.time:12.3f}us] {self.source:<24} {self.kind:<16} {fields}"


class Tracer:
    """Collects :class:`TraceRecord` instances when enabled.

    A ``filter`` predicate can restrict capture (useful for keeping memory
    bounded during long sweeps while still observing, say, only rendezvous
    events).
    """

    def __init__(
        self,
        enabled: bool = False,
        filter: Callable[[TraceRecord], bool] | None = None,
        sink: Callable[[TraceRecord], None] | None = None,
    ) -> None:
        if not enabled:
            # Sanitize mode (``REPRO_SANITIZE=trace``, read once here like
            # the kernel reads it at construction) turns every tracer on to
            # prove tracing does not move the simulation; the records of a
            # tracer nobody asked for are dropped.
            config = active_sanitizer()
            if config is not None and config.trace:
                enabled = True
                sink = sink if sink is not None else _discard
        self.enabled = enabled
        self.filter = filter
        self.sink = sink
        self.records: list[TraceRecord] = []

    def emit(self, time: float, source: str, kind: str, **detail: Any) -> None:
        """Record one occurrence if tracing is enabled and unfiltered.

        Hot-path callers guard the call with ``if tracer.enabled:``; the
        check here keeps an unguarded call (tests, examples) harmless.
        """
        if not self.enabled:
            return
        rec = TraceRecord(time=time, source=source, kind=kind, detail=detail)
        if self.filter is not None and not self.filter(rec):
            return
        if self.sink is not None:
            self.sink(rec)
        else:
            self.records.append(rec)

    def clear(self) -> None:
        """Drop all captured records."""
        self.records.clear()

    def of_kind(self, kind: str) -> list[TraceRecord]:
        """All captured records with the given ``kind``."""
        return [r for r in self.records if r.kind == kind]

    def from_source(self, prefix: str) -> list[TraceRecord]:
        """All captured records whose source starts with ``prefix``."""
        return [r for r in self.records if r.source.startswith(prefix)]

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __bool__(self) -> bool:
        # An empty tracer is still a tracer: never falsy (guards against
        # `tracer or Tracer()` silently dropping an enabled tracer).
        return True

    def dump(self, limit: int | None = None) -> str:
        """Render captured records as a printable timeline."""
        recs = self.records if limit is None else self.records[:limit]
        return "\n".join(str(r) for r in recs)
