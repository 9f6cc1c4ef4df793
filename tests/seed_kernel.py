"""The seed repo's single-heap simulation kernel, frozen as a test oracle.

This is the pre-overhaul discrete-event kernel (PR 2 vintage: one binary
heap, a fresh ``(time, seq, item)`` tuple per occurrence, a fresh
:class:`LegacyEvent` per timeout) kept verbatim next to the tests that
compare against it (``tests/seed_kernel.py``; nothing under ``src/``
imports it, and the perf gate measures live code only).

It is the ordering oracle: the Hypothesis equivalence property in
``tests/test_sim_wheel.py`` replays random schedules on both kernels and
requires identical dispatch sequences, which pins the timer wheel to the
heap's exact ``(time, seq)`` FIFO semantics.

Not for engine use.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable, Generator, Iterable

from typing import Any

from repro.errors import SimulationError

__all__ = [
    "LegacySimulator",
    "LegacyEvent",
    "LegacyTimeout",
    "LegacyProcess",
    "LegacyInterrupt",
]


class LegacyEvent:
    """One-shot occurrence (frozen copy of the seed ``Event``)."""

    __slots__ = ("sim", "_callbacks", "_ok", "_value", "_exc", "_defused", "name")

    def __init__(self, sim: LegacySimulator, name: str = "") -> None:
        self.sim = sim
        self.name = name
        self._callbacks: list[Callable[[LegacyEvent], None]] | None = []
        self._ok: bool | None = None
        self._value: Any = None
        self._exc: BaseException | None = None
        self._defused = False

    @property
    def triggered(self) -> bool:
        return self._ok is not None

    @property
    def ok(self) -> bool:
        return bool(self._ok)

    @property
    def value(self) -> Any:
        if self._ok is None:
            raise SimulationError(f"value of pending event {self!r}")
        if self._ok:
            return self._value
        self._defused = True
        assert self._exc is not None
        raise self._exc

    @property
    def exception(self) -> BaseException | None:
        return self._exc

    def succeed(self, value: Any = None) -> LegacyEvent:
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._activate(self)
        return self

    def fail(self, exc: BaseException) -> LegacyEvent:
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._exc = exc
        self.sim._activate(self)
        return self

    def defuse(self) -> None:
        self._defused = True

    def add_callback(self, fn: Callable[[LegacyEvent], None]) -> None:
        if self._callbacks is None:
            self.sim.schedule(0.0, lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._ok is None
            else ("ok" if self._ok else f"failed({self._exc!r})")
        )
        label = f" {self.name!r}" if self.name else ""
        return f"<{type(self).__name__}{label} {state}>"


class LegacyTimeout(LegacyEvent):
    """Event triggering ``delay`` units after creation (frozen copy)."""

    __slots__ = ("delay",)

    def __init__(
        self, sim: LegacySimulator, delay: float, value: Any = None
    ) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name=f"timeout({delay})")
        self.delay = delay
        self._value = value
        sim._schedule_event(delay, self)


class LegacyInterrupt(SimulationError):
    """Raised inside a process another process interrupted (frozen copy)."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"process interrupted (cause={cause!r})")
        self.cause = cause


class LegacyProcess(LegacyEvent):
    """Generator coroutine over simulated time (frozen copy)."""

    __slots__ = ("_gen", "_waiting_on")

    def __init__(
        self, sim: LegacySimulator, gen: Generator, name: str = ""
    ) -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: LegacyEvent | None = None
        init = LegacyEvent(sim, name=f"init:{self.name}")
        init.add_callback(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself at spawn")
        self.sim.schedule(0.0, lambda: self._throw(LegacyInterrupt(cause)))

    def _resume(self, evt: LegacyEvent) -> None:
        if not self.is_alive:
            if not evt._ok:
                evt._defused = True
            return
        if self._waiting_on is not None and evt is not self._waiting_on:
            return
        self._waiting_on = None
        if evt._ok:
            self._step(lambda: self._gen.send(evt._value))
        else:
            evt._defused = True
            exc = evt._exc
            assert exc is not None
            self._step(lambda: self._gen.throw(exc))

    def _throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            return
        self._waiting_on = None
        self._step(lambda: self._gen.throw(exc))

    def _step(self, advance: Callable[[], Any]) -> None:
        try:
            target = advance()
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process failure path
            self.fail(exc)
            return
        if not isinstance(target, LegacyEvent):
            self.fail(
                SimulationError(
                    f"process {self.name!r} yielded {target!r}; "
                    "processes may only yield Event instances"
                )
            )
            return
        if target.sim is not self.sim:
            self.fail(SimulationError("yielded event belongs to another simulator"))
            return
        self._waiting_on = target
        target.add_callback(self._resume)


class LegacyCondition(LegacyEvent):
    """Base for composites over a fixed child set (frozen copy)."""

    __slots__ = ("events", "_n_done")

    def __init__(
        self, sim: LegacySimulator, events: Iterable[LegacyEvent]
    ) -> None:
        super().__init__(sim, name=type(self).__name__)
        self.events: tuple[LegacyEvent, ...] = tuple(events)
        for evt in self.events:
            if evt.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._n_done = 0
        if not self.events:
            self.succeed(self._collect())
            return
        for evt in self.events:
            evt.add_callback(self._child_done)

    def _collect(self) -> dict[LegacyEvent, Any]:
        return {e: e._value for e in self.events if e._ok}

    def _child_done(self, evt: LegacyEvent) -> None:
        raise NotImplementedError


class LegacyAllOf(LegacyCondition):
    __slots__ = ()

    def _child_done(self, evt: LegacyEvent) -> None:
        if self.triggered:
            if not evt._ok:
                evt._defused = True
            return
        if not evt._ok:
            evt._defused = True
            assert evt._exc is not None
            self.fail(evt._exc)
            return
        self._n_done += 1
        if self._n_done == len(self.events):
            self.succeed(self._collect())


class LegacyAnyOf(LegacyCondition):
    __slots__ = ()

    def _child_done(self, evt: LegacyEvent) -> None:
        if self.triggered:
            if not evt._ok:
                evt._defused = True
            return
        if evt._ok:
            self.succeed(self._collect())
        else:
            evt._defused = True
            assert evt._exc is not None
            self.fail(evt._exc)


class LegacySimulator:
    """The seed event loop: one clock plus one binary heap (frozen copy)."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._running = False
        self._n_processed = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._n_processed

    def event(self, name: str = "") -> LegacyEvent:
        return LegacyEvent(self, name=name)

    def timeout(self, delay: float, value: Any = None) -> LegacyTimeout:
        return LegacyTimeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> LegacyProcess:
        return LegacyProcess(self, gen, name=name)

    def all_of(self, events: Iterable[LegacyEvent]) -> LegacyAllOf:
        return LegacyAllOf(self, events)

    def any_of(self, events: Iterable[LegacyEvent]) -> LegacyAnyOf:
        return LegacyAnyOf(self, events)

    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, fn))

    def _schedule_event(self, delay: float, event: LegacyEvent) -> None:
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now + delay, seq, event))

    def _activate(self, event: LegacyEvent) -> None:
        self._seq = seq = self._seq + 1
        heapq.heappush(self._queue, (self._now, seq, event))

    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        queue = self._queue
        pop = heapq.heappop
        event_cls = LegacyEvent
        processed = 0
        try:
            while queue:
                t = queue[0][0]
                if until is not None and t > until:
                    self._now = until
                    return until
                t, _, item = pop(queue)
                self._now = t
                processed += 1
                if processed > max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock"
                    )
                if isinstance(item, event_cls):
                    if item._ok is None:
                        item._ok = True
                    callbacks = item._callbacks
                    item._callbacks = None
                    if callbacks:
                        for fn in callbacks:
                            fn(item)
                    if item._ok is False and not item._defused:
                        assert item._exc is not None
                        raise item._exc
                else:
                    item()
            return self._now
        finally:
            self._n_processed += processed
            self._running = False

    def run_process(self, gen: Generator, name: str = "") -> Any:
        proc = self.spawn(gen, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} never finished (deadlock: queue "
                "drained while the process was still waiting)"
            )
        return proc.value

    def peek(self) -> float:
        return self._queue[0][0] if self._queue else float("inf")
