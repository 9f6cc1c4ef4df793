"""Discrete-event simulation kernel.

This is the substrate on which every experiment in the reproduction runs.
The paper's engine reacts to *hardware activity* (a NIC finishing a
transmission), so we need an event-driven clock rather than wall time.  The
kernel is deliberately small and SimPy-flavoured:

* :class:`Simulator` owns a monotonically non-decreasing clock (``now``, in
  microseconds by convention) and a deterministic priority queue.
* :class:`Event` is a one-shot occurrence that callbacks and processes can
  wait on.  :class:`Timeout` is an event scheduled at ``now + delay``.
* :class:`Process` wraps a generator; the generator yields events (or other
  processes, or :class:`AllOf`/:class:`AnyOf` conditions) and is resumed with
  the event's value when it triggers.  This lets the ping-pong applications,
  protocol state machines, and the engine's progress loop all be written as
  straight-line coroutines over simulated time.

The kernel is single-threaded and deterministic: events scheduled for the
same timestamp fire in FIFO scheduling order (a strictly increasing sequence
number breaks ties), which makes every simulation and therefore every
benchmark series exactly reproducible.

The queue is a three-tier calendar structure rather than the seed's single
binary heap (frozen as ``tests/seed_kernel.py``, the oracle of the
ordering-equivalence property test):

* a **now-queue** — a plain FIFO for occurrences at exactly the current
  timestamp (event activations, zero-delay schedules).  These are by far
  the most common push in the engine (every ``succeed`` travels through
  it) and need neither a tuple nor a heap: append order *is* ``(time,
  seq)`` order because the clock cannot move while they wait;
* a **timer wheel** — ``wheel_buckets`` buckets of ``wheel_width_us``
  (sized around the dominant NIC-latency granularity) covering the near
  future.  A push is an O(1) list append; a bucket is sorted by ``(time,
  seq)`` only when the clock reaches it, so a burst of same-timestamp
  completions costs one extraction instead of N heap pops;
* an **overflow heap** — far timers beyond the wheel horizon
  (retransmission backoffs, heartbeats) fall back to a binary heap and
  are merged per-bucket when the wheel reaches their epoch.

Ordering is exactly heap-equivalent: buckets partition the time axis, so
cross-bucket order is free, and the per-bucket sort (plus bisect insertion
for entries scheduled into the in-flight bucket) restores ``(time, seq)``
within one.  ``tests/test_sim_wheel.py`` pins the equivalence with a
Hypothesis property against the frozen seed kernel.
"""

from __future__ import annotations

import sys
from bisect import insort
from collections import deque
from collections.abc import Callable, Generator, Iterable
from functools import partial
from heapq import heappop, heappush
from itertools import islice

from typing import Any, ClassVar

from random import Random

from repro.errors import ProgressStallError, SimulationError
from repro.sim.sanitizer import SanitizeConfig, active_sanitizer, shake_slot

#: Event/Timeout freelist recycling relies on CPython reference counts to
#: prove no condition, process, or user closure still holds the object.
#: Kept because it pays: with the freelist off the serial cascade runs 21%
#: slower (docs/PERFORMANCE.md).
_POOLING = sys.implementation.name == "cpython"
_POOL_CAP = 4096
_getrefcount: Callable[[Any], int] = getattr(sys, "getrefcount", lambda _o: -1)

#: Wheel geometry: 1024 buckets of 2us cover a ~2ms near-term horizon —
#: wide enough that the dominant NIC-latency delays (sub-us CPU gaps,
#: us-scale wire/DMA times) *and* heartbeat/retransmission timers all land
#: in the wheel, with only pathological far timers overflowing to the
#: heap; fine enough that one bucket extraction amortizes the sort over a
#: dense burst without pulling in distant work.  Power-of-two bucket count
#: keeps the slot index a mask instead of a modulo.
_WHEEL_BITS = 10
_NB = 1 << _WHEEL_BITS
_MASK = _NB - 1
_WIDTH_US = 2.0
_INV_WIDTH = 1.0 / _WIDTH_US
#: Push-time horizon guard: rejects inf/nan timestamps, which the epoch
#: arithmetic (``int(t * _INV_WIDTH)``) cannot digest.  The seed heap
#: silently accepted them; nothing in the engine ever scheduled one.
_T_MAX = 1e300
_INF = float("inf")

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "Timer",
    "Watchdog",
]


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it may be :meth:`succeed`-ed (optionally with
    a value) or :meth:`fail`-ed (with an exception) exactly once.  Callbacks
    registered before triggering run, in registration order, when the
    simulator processes the event; callbacks registered after triggering are
    scheduled to run immediately (still via the event queue, preserving
    determinism).

    Subclassing (an operation that *is* its completion event, like the
    engine's requests): add ``__slots__``, call :meth:`Event.__init__`, and
    use the public surface only — ``triggered``/``ok``/``exception``/
    ``succeed``/``fail``/``defuse``/``add_callback``; the underscored
    fields stay the kernel's (lint NM301).  A subclass may override
    :attr:`name` to render its label from its own fields on demand.  Never
    store a reference to ``self`` in a slot: a one-object cycle is still a
    cycle only the collector can free.
    """

    __slots__ = (
        "sim", "_callbacks", "_ok", "_value", "_exc", "_defused", "_name",
        "_pooled",
    )

    def __init__(
        self, sim: Simulator, name: str | tuple[Any, ...] = ""
    ) -> None:
        self.sim = sim
        # A tuple is a lazy label ``(template, *args)``: per-message events
        # are named for diagnostics only, so the string is built when
        # somebody reads :attr:`name`, not once per message.
        self._name = name
        self._callbacks: list[Callable[[Event], None]] | None = []
        self._ok: bool | None = None  # None=pending, True=succeeded, False=failed
        self._value: Any = None
        self._exc: BaseException | None = None
        # Failed events whose exception is never observed raise at run() end
        # unless "defused" (observed by a waiter or explicitly).
        self._defused = False
        # Freelist-eligible (only kernel-created Timeouts set this; the run
        # loop additionally proves via refcount that nobody else holds the
        # object before recycling it).
        self._pooled = False

    # -- state ----------------------------------------------------------
    @property
    def name(self) -> str:
        """Debug label (a lazy ``(template, *args)`` is rendered here)."""
        name = self._name
        if name.__class__ is tuple:
            return name[0] % name[1:]
        return name

    @property
    def triggered(self) -> bool:
        """True once the event succeeded or failed."""
        return self._ok is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value (or raises the failure exception)."""
        if self._ok is None:
            raise SimulationError(f"value of pending event {self!r}")
        if self._ok:
            return self._value
        self._defused = True
        assert self._exc is not None
        raise self._exc

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or ``None`` (non-raising inspection)."""
        return self._exc

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None) -> Event:
        """Mark the event successful and schedule its callbacks."""
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._ok = True
        self._value = value
        self.sim._activate(self)
        return self

    def fail(self, exc: BaseException) -> Event:
        """Mark the event failed; waiters will see ``exc`` raised."""
        if self._ok is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exc, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._exc = exc
        self.sim._activate(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as observed so run() does not re-raise it."""
        self._defused = True

    # -- waiting --------------------------------------------------------
    def add_callback(self, fn: Callable[[Event], None]) -> None:
        """Run ``fn(event)`` when the event triggers (immediately if done)."""
        if self._callbacks is None:
            # Already processed: schedule the callback as a fresh occurrence.
            self.sim.schedule(0.0, lambda: fn(self))
        else:
            self._callbacks.append(fn)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._ok is None
            else ("ok" if self._ok else f"failed({self._exc!r})")
        )
        name = self.name
        label = f" {name!r}" if name else ""
        return f"<{type(self).__name__}{label} {state}>"


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Completed timeouts with no remaining holders are recycled through
    :attr:`Simulator._timeout_pool` (the name is left empty rather than the
    old ``f"timeout({delay})"`` — the f-string alone was ~25% of timeout
    creation cost; :meth:`__repr__` still shows the delay).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: Simulator, delay: float, value: Any = None) -> None:
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim)
        self.delay = delay
        # The success value is stored now; the event only *triggers* when the
        # run loop pops it at now+delay (see Simulator.run), so `triggered`
        # and condition bookkeeping stay accurate in the meantime.
        self._value = value
        self._pooled = _POOLING
        sim._schedule_event(delay, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._ok is None
            else ("ok" if self._ok else f"failed({self._exc!r})")
        )
        return f"<Timeout({self.delay:g}) {state}>"


class Interrupt(SimulationError):
    """Raised inside a process that another process interrupted."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"process interrupted (cause={cause!r})")
        self.cause = cause


class Process(Event):
    """A running coroutine over simulated time.

    A process *is* an event: it triggers with the generator's return value
    when the generator finishes (or fails with the raised exception), so
    processes can wait on each other by yielding them.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: Simulator, gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(sim, name=name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Event | None = None
        # Kick off the process at the current time.
        init = Event(sim, name=f"init:{self.name}")
        init.add_callback(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned (its callback is
        disabled); the process decides how to recover.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self!r}")
        if self._waiting_on is self:
            raise SimulationError("a process cannot interrupt itself at spawn")
        self.sim.schedule(0.0, lambda: self._throw(Interrupt(cause)))

    # -- internal -------------------------------------------------------
    def _resume(self, evt: Event) -> None:
        if not self.is_alive:
            # Stale wakeup of a finished process (e.g. the timeout it was
            # interrupted out of finally fired).
            if not evt._ok:
                evt._defused = True
            return
        if self._waiting_on is not None and evt is not self._waiting_on:
            # Stale wakeup from an event we abandoned after an interrupt.
            return
        self._waiting_on = None
        if evt._ok:
            self._step(self._gen.send, evt._value)
        else:
            evt._defused = True
            assert evt._exc is not None
            self._step(self._gen.throw, evt._exc)

    def _throw(self, exc: BaseException) -> None:
        if not self.is_alive:
            return
        self._waiting_on = None
        self._step(self._gen.throw, exc)

    def _step(self, advance: Callable[[Any], Any], arg: Any) -> None:
        try:
            target = advance(arg)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - process failure path
            self.fail(exc)
            return
        if not isinstance(target, Event):
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


class Condition(Event):
    """Base for composite events over a fixed set of child events.

    A child's outcome is announced to the condition through the queue, in
    ``(time, seq)`` order with everything else — including the outcome of a
    child that was processed before the condition was built
    (:meth:`Event.add_callback` posts it as a fresh occurrence).  The one
    exception is a subclass whose :attr:`_counts_successes` is true: there a
    processed *success* can only ever be counted, so when it is counted
    cannot change what the condition reports, and the constructor counts it
    on the spot instead of queueing one entry per finished child to
    announce what it can read.  An outcome that can *decide* the condition
    (any failure, any ``AnyOf`` child) always takes the queue.
    """

    __slots__ = ("events", "_n_left")

    #: True when a succeeded child only moves a count (see the class doc).
    _counts_successes: ClassVar[bool] = False

    def __init__(self, sim: Simulator, events: Iterable[Event]) -> None:
        super().__init__(sim, name=type(self).__name__)
        self.events: tuple[Event, ...] = tuple(events)
        for evt in self.events:
            if evt.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._n_left = len(self.events)
        if not self.events:
            self.succeed(self._collect())
            return
        child_done = self._child_done
        counts = self._counts_successes
        for evt in self.events:
            if counts and evt._callbacks is None and evt._ok:
                child_done(evt)
            else:
                evt.add_callback(child_done)

    def _collect(self) -> dict[Event, Any]:
        return {e: e._value for e in self.events if e._ok}

    def _child_done(self, evt: Event) -> None:
        raise NotImplementedError


class AllOf(Condition):
    """Triggers when *every* child event has succeeded.

    Fails fast (with the child's exception) if any child fails.  Children
    that had already succeeded and been processed when the condition was
    built cost no queue entry; if that is all of them, the condition
    succeeds from its constructor.
    """

    __slots__ = ()

    _counts_successes = True

    def _child_done(self, evt: Event) -> None:
        if self._ok is not None:
            if not evt._ok:
                evt._defused = True
            return
        if not evt._ok:
            evt._defused = True
            assert evt._exc is not None
            self.fail(evt._exc)
            return
        self._n_left -= 1
        if not self._n_left:
            self.succeed(self._collect())


class AnyOf(Condition):
    """Triggers when the *first* child event succeeds (or fails)."""

    __slots__ = ()

    def _child_done(self, evt: Event) -> None:
        if self._ok is not None:
            if not evt._ok:
                evt._defused = True
            return
        if evt._ok:
            self.succeed(self._collect())
        else:
            evt._defused = True
            assert evt._exc is not None
            self.fail(evt._exc)


class Timer:
    """One callback on the virtual clock that can be re-armed and cancelled.

    Queue entries cannot be withdrawn, so a superseded or cancelled arming
    still comes up for dispatch; the generation compare in :meth:`_fire` —
    written here once, instead of a flag, a counter and a guard per owner —
    voids it before the callback could touch anything.  :meth:`arm`
    supersedes any earlier arming, :meth:`cancel` voids it, ``fn()`` runs
    only for the latest un-cancelled arming.  ``armed`` (owners only read
    it) is true from ``arm`` until the callback is entered or the timer is
    cancelled: a periodic user re-arms from inside its callback, a one-shot
    user tests ``armed`` instead of keeping a flag.  One
    :meth:`Simulator.schedule` per ``arm``, none per ``cancel``.

    The device-incarnation fences (``Nic._gen`` / ``_rx_gen``,
    ``Switch.generation``) are a different thing: they void *many*
    in-flight per-frame closures at once, not one re-armable timer.
    """

    __slots__ = ("_sim", "_fn", "_gen", "armed")

    def __init__(self, sim: Simulator, fn: Callable[[], None]) -> None:
        self._sim = sim
        self._fn = fn
        self._gen = 0
        self.armed = False

    def arm(self, delay: float) -> None:
        """Run ``fn()`` after ``delay``, instead of any earlier arming."""
        gen = self._gen + 1
        self._sim.schedule(delay, partial(self._fire, gen))
        self._gen = gen  # only once the kernel accepted the delay
        self.armed = True

    def cancel(self) -> None:
        """Void the pending arming, if any."""
        self._gen += 1
        self.armed = False

    def _fire(self, gen: int) -> None:
        if gen != self._gen:
            return  # superseded or cancelled since this entry was queued
        self.armed = False
        self._fn()


class Watchdog:
    """Virtual-time progress watchdog: detects stalls *with work pending*.

    A deadlock (event queue drained while a process waits) is caught by
    :meth:`Simulator.run_process`; a *livelock* is not — the queue keeps
    ticking (retransmission timers, delayed grants) while no useful work
    completes.  The watchdog samples an engine-supplied ``progress`` token
    every ``interval_us`` of simulated time; if the token is unchanged for
    ``patience`` consecutive samples while ``active()`` reports outstanding
    work, it raises :class:`~repro.errors.ProgressStallError` carrying the
    ``diagnose()`` report.  The exception propagates out of
    :meth:`Simulator.run` like any unobserved failure, so tests and the CLI
    see the stall as a hard, diagnosable error instead of a hang.

    When ``active()`` is false the watchdog goes dormant (so a finished
    simulation can drain its queue); :meth:`arm` re-arms it and is called
    from the engine's work-creating entry points.  ``arm`` is idempotent.
    :meth:`disarm` kills the watchdog immediately — including the tick
    already sitting in the event queue — which the engine uses when its
    node crashes (a dead process must not diagnose the survivors).
    """

    __slots__ = ("sim", "interval_us", "_progress", "_active", "_diagnose",
                 "patience", "name", "_timer", "_last_token", "_strikes")

    def __init__(
        self,
        sim: Simulator,
        interval_us: float,
        progress: Callable[[], object],
        active: Callable[[], bool],
        diagnose: Callable[[], str],
        patience: int = 2,
        name: str = "watchdog",
    ) -> None:
        if interval_us <= 0:
            raise SimulationError(f"watchdog interval must be > 0, got {interval_us}")
        if patience < 1:
            raise SimulationError(f"watchdog patience must be >= 1, got {patience}")
        self.sim = sim
        self.interval_us = interval_us
        self._progress = progress
        self._active = active
        self._diagnose = diagnose
        self.patience = patience
        self.name = name
        self._timer = Timer(sim, self._tick)
        self._last_token: object = None
        self._strikes = 0

    def arm(self) -> None:
        """Start (or keep) watching; call whenever new work is created."""
        if self._timer.armed:
            return
        self._last_token = self._progress()
        self._strikes = 0
        self._timer.arm(self.interval_us)

    def disarm(self) -> None:
        """Stop watching now; the pending tick (if any) becomes a no-op."""
        self._timer.cancel()

    def _tick(self) -> None:
        if not self._active():
            return  # nothing outstanding: dormant until the next arm()
        token = self._progress()
        if token != self._last_token:
            self._last_token = token
            self._strikes = 0
        else:
            self._strikes += 1
            if self._strikes >= self.patience:
                raise ProgressStallError(
                    f"{self.name}: no progress for "
                    f"{self._strikes * self.interval_us:g}us with work "
                    f"pending at t={self.sim.now:g}us\n{self._diagnose()}"
                )
        self._timer.arm(self.interval_us)


class Simulator:
    """The event loop: a clock plus a deterministic priority queue.

    The queue is the three-tier calendar structure described in the module
    docstring (now-queue / timer wheel / far heap).  All three tiers share
    one strictly increasing sequence counter, so the dispatch order is
    exactly the ``(time, seq)`` order the seed's single heap produced —
    the representation changed, the contract did not.
    """

    def __init__(self, sanitize: SanitizeConfig | None = None) -> None:
        # Determinism-sanitizer mode (see repro.sim.sanitizer): default-off,
        # falls back to the REPRO_SANITIZE environment variable so subprocess
        # harnesses can arm it without threading a parameter through every
        # experiment entry point.  The hooks live on cold paths only (mark,
        # schedule_batch, slot refill) — the hot push paths are untouched
        # either way.
        if sanitize is None:
            sanitize = active_sanitizer()
        self._sanitize = sanitize
        self._no_coalesce = sanitize is not None and sanitize.no_coalesce
        self._shake_rng = (
            Random(sanitize.shake_seed)
            if sanitize is not None and sanitize.shake_seed is not None
            else None
        )
        #: Current simulated time (microseconds by library convention).  A
        #: plain attribute, because it is the most-read value in the tree;
        #: only :meth:`run` writes it (lint NM301 holds everyone else to
        #: reading).
        self.now = 0.0
        self._seq = 0
        self._running = False
        self._n_processed = 0
        self._last_t = 0.0
        self._deadlock_hints: list[Callable[[], str | None]] = []
        # Tier 1: occurrences at exactly the current timestamp, FIFO.  Bare
        # items — while the clock stands still, append order IS (time, seq)
        # order, so no tuple is built for the hottest push path.
        self._now_q: deque[Any] = deque()
        # Tier 2: the timer wheel.  Bucket ``e & _MASK`` holds entries of
        # exactly one epoch ``e = int(t * _INV_WIDTH)`` within the window
        # [_cur_epoch, _wheel_end); the window invariant is what makes the
        # per-slot sort-on-extract equivalent to a global heap.
        self._buckets: list[list[tuple[float, int, Any]]] = [
            [] for _ in range(_NB)
        ]
        self._cur_epoch = 0
        self._wheel_end = _NB
        self._n_wheel = 0
        # Tier 3: far timers beyond the wheel horizon (plus, transiently,
        # entries behind the cursor after an early run() exit).
        self._far: list[tuple[float, int, Any]] = []
        # The bucket currently being dispatched: sorted entries, a cursor,
        # and the epoch it was extracted for (consumed slots become None).
        self._batch: list[Any] = []
        self._batch_i = 0
        self._batch_epoch = -1
        # Freelist of completed, unreferenced Timeouts (see Simulator.run).
        self._timeout_pool: list[Timeout] = []

    def add_deadlock_hint(self, fn: Callable[[], str | None]) -> None:
        """Register a diagnosis callback consulted when a deadlock fires.

        Each callback returns a short explanation string (or ``None`` for
        "nothing to add"); engines use this to distinguish a paper-mode
        stall (no retransmission) from an exhausted retry budget in the
        deadlock message of :meth:`run_process`.
        """
        self._deadlock_hints.append(fn)

    # -- clock ------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        """Total number of occurrences processed so far (for stats).

        Exact at every timestamp boundary, including *during* ``run()``
        (the hot loop mirrors the count in a local and flushes it whenever
        the clock is about to move); within a same-timestamp cascade it may
        lag by the cascade's in-flight portion.
        """
        return self._n_processed

    @property
    def last_event_time(self) -> float:
        """Time of the most recently dispatched occurrence.

        Unlike :attr:`now`, this does not advance when ``run(until=...)``
        outlives the queue — it answers "when did the simulation last do
        something", which is what activity reports want.
        """
        return self._last_t

    # -- event construction ------------------------------------------------
    def event(self, name: str | tuple[Any, ...] = "") -> Event:
        """Create a fresh pending :class:`Event`.

        ``name`` may be a lazy label ``(template, *args)``, rendered as
        ``template % args`` only when :attr:`Event.name` is read.
        """
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers after ``delay`` time units."""
        pool = self._timeout_pool
        if pool:
            if delay < 0:
                raise SimulationError(f"negative timeout delay {delay!r}")
            to = pool.pop()
            to.delay = delay
            to._value = value
            self._schedule_event(delay, to)
            return to
        return Timeout(self, delay, value)

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Start a new process from a generator."""
        return Process(self, gen, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event succeeding when all ``events`` succeed."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event succeeding at the first ``events`` success."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    # Each entry point does the tie-breaking sequence increment and the
    # now-queue fast path itself; every timed occurrence then goes through
    # the one _push.  (A private copy of it in each entry point saves the
    # method call: ~5% on the serial-cascade micro-bench, nothing on the
    # storm, nothing resolvable end to end — docs/PERFORMANCE.md.)
    # Every push — including now-queue appends — bumps the sequence counter,
    # which is what keeps mark() an exact "nothing happened in between"
    # witness for the netsim coalescing guards.
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` time units (0 = this timestamp)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self._seq = seq = self._seq + 1
        t = self.now + delay
        if t <= self.now:
            self._now_q.append(fn)
        else:
            self._push(t, seq, fn)

    def schedule_batch(self, delay: float, fns: list[Callable[[], None]]) -> None:
        """Run ``fns`` back-to-back after ``delay``, as ONE queue entry.

        Exactly equivalent to *consecutive* ``schedule(delay, fn)`` calls
        (nothing can interleave between back-to-back pushes in a
        single-threaded kernel, so collapsing the run of adjacent sequence
        numbers into one entry is unobservable) but costs one push and one
        dispatch; each ``fn`` still counts as one processed event.  The
        kernel takes ownership of the list — callers must not mutate it
        afterwards.  This is the primitive the NIC layers use to make a
        burst of same-timestamp completions cost one dispatch.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        if not fns:
            return
        if self._no_coalesce:
            # Sanitizer: exercise the documented equivalence — a batch IS
            # its consecutive individual pushes; any observable difference
            # is a kernel or caller bug the sanitize run exists to catch.
            for fn in fns:
                self.schedule(delay, fn)
            return
        self._seq = seq = self._seq + 1
        t = self.now + delay
        if t <= self.now:
            self._now_q.append(fns)
        else:
            self._push(t, seq, fns)

    def mark(self) -> int:
        """Opaque, strictly increasing stamp of the latest queue push.

        Two equal marks prove no occurrence was scheduled in between; the
        netsim layers use this to coalesce adjacent same-timestamp
        completions into one batched dispatch without reordering anything.

        Under the ``no_coalesce`` sanitizer every call returns a *fresh*
        stamp, so no two marks ever compare equal and each mark-guarded
        fast path is forced onto its (claimed-equivalent) slow path.
        """
        if self._no_coalesce:
            self._seq += 1
        return self._seq

    def _schedule_event(self, delay: float, event: Event) -> None:
        self._seq = seq = self._seq + 1
        t = self.now + delay
        if t <= self.now:
            self._now_q.append(event)
        else:
            self._push(t, seq, event)

    def _activate(self, event: Event) -> None:
        """Queue a triggered event's callbacks for execution *now*."""
        self._seq += 1
        self._now_q.append(event)

    def _push(self, t: float, seq: int, item: Any) -> None:
        """Insert a future occurrence into the wheel, batch, or far heap."""
        if not t <= _T_MAX:
            raise SimulationError(
                f"cannot schedule at t={t!r} (beyond the kernel horizon)"
            )
        epoch = int(t * _INV_WIDTH)
        if epoch == self._batch_epoch:
            batch = self._batch
            if self._batch_i < len(batch):
                # The bucket being dispatched right now: bisect past the
                # consumption cursor so the entry still fires in (t, seq)
                # order (the consumed region holds Nones and is never
                # compared).
                insort(batch, (t, seq, item), lo=self._batch_i)
                return
            if epoch == self._cur_epoch and not self._n_wheel and not self._far:
                # Serial-cascade fast path: the batch is exhausted and this
                # is the only pending timed entry anywhere, so extending
                # the batch in place is trivially the global (t, seq)
                # order — and skips a full slot-extract/refill round trip.
                batch.clear()
                self._batch_i = 0
                batch.append((t, seq, item))
                return
            # Exhausted batch: fall through to the window check below.  The
            # batch may be a *behind-cursor* far extraction (after an early
            # run() exit advanced the cursor), and then its epoch's slot
            # belongs to epoch + _NB — appending there would strand the
            # entry a full wheel revolution in the future.
        if self._cur_epoch <= epoch < self._wheel_end:
            self._buckets[epoch & _MASK].append((t, seq, item))
            self._n_wheel += 1
        else:
            # Beyond the wheel horizon — or behind the cursor, which can
            # happen after an early run() exit; _refill always takes
            # min(wheel epoch, far epoch) so both cases stay ordered.
            heappush(self._far, (t, seq, item))

    def _refill(self) -> bool:
        """Extract the next non-empty epoch into ``_batch`` (sorted).

        Returns ``False`` when every tier is empty.  The far heap may hold
        entries of any epoch (far timers, behind-cursor pushes), so the
        next epoch is always min(first non-empty wheel slot, far top); far
        entries of that same epoch are merged into the extracted slot.
        """
        far = self._far
        slot: list[tuple[float, int, Any]]
        if self._n_wheel:
            buckets = self._buckets
            e = self._cur_epoch
            while True:
                slot = buckets[e & _MASK]
                if slot:
                    break
                e += 1
            if far and int(far[0][0] * _INV_WIDTH) < e:
                e = int(far[0][0] * _INV_WIDTH)
                slot = []
            else:
                buckets[e & _MASK] = []
                self._n_wheel -= len(slot)
        elif far:
            e = int(far[0][0] * _INV_WIDTH)
            slot = []
        else:
            return False
        while far and int(far[0][0] * _INV_WIDTH) == e:
            slot.append(heappop(far))
        slot.sort()
        if self._shake_rng is not None and len(slot) > 1:
            # Sanitizer: permute equal-timestamp runs so handlers that
            # depend on intra-timestamp arrival order betray themselves.
            shake_slot(slot, self._shake_rng)
        self._batch = slot
        self._batch_i = 0
        self._batch_epoch = e
        if e > self._cur_epoch:
            # Advancing the window is safe: every slot between the old
            # cursor and ``e`` was just scanned empty (or the wheel is
            # empty entirely), so the one-epoch-per-slot invariant holds
            # for the new window [e, e + _NB).
            self._cur_epoch = e
            self._wheel_end = e + _NB
        return True

    # -- run loop -------------------------------------------------------------
    def run(self, until: float | None = None, max_events: int = 50_000_000) -> float:
        """Process events until the queue drains or ``until`` is reached.

        Returns the simulation time at exit.  The clock always advances to
        ``until`` when one is given — including when the queue drains first
        (and it never moves backwards if ``until`` is already in the past).
        Raises the exception of any failed event that no waiter observed
        (so protocol bugs surface in tests instead of vanishing).

        ``max_events`` is a livelock backstop: the run stops *before*
        dispatching entry ``max_events + 1``, leaving it queued, with a
        diagnostic carrying the current time, queue depth, and the next
        few pending entries.

        Hot loop notes: the now-queue, Event class and Timeout freelist are
        bound to locals, and the processed counter is mirrored in a local
        that flushes to ``_n_processed`` at every timestamp boundary — so
        ``events_processed`` read from any timed callback (watchdog ticks,
        chaos audits) is exact for all prior timestamps, while the
        per-event cost stays one integer add.  Monotonicity needs no
        explicit check: delays are validated non-negative at push time and
        the calendar pops in (time, seq) order.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        now_q = self._now_q
        pop_now = now_q.popleft
        event_cls = Event
        list_cls = list
        pool = self._timeout_pool
        refcount = _getrefcount
        base = self._n_processed
        limit = max_events
        n = 0
        try:
            while True:
                # Tier 1: everything at the current timestamp, push order.
                while now_q:
                    if n >= limit:
                        self._n_processed = base + n
                        raise SimulationError(self._livelock_report(limit))
                    item = pop_now()
                    if isinstance(item, event_cls):
                        n += 1
                        if item._ok is None:
                            # A Timeout reaching its due time: trigger now.
                            item._ok = True
                        callbacks = item._callbacks
                        item._callbacks = None
                        if callbacks:
                            for fn in callbacks:
                                fn(item)
                        if item._ok is False and not item._defused:
                            assert item._exc is not None
                            raise item._exc
                        if (
                            item._pooled
                            and len(pool) < _POOL_CAP
                            and refcount(item) == 2
                        ):
                            # Only the loop local and refcount's argument
                            # hold this Timeout: no process, condition or
                            # user closure can ever see it again, so it is
                            # safe to recycle (reusing its callbacks list).
                            item._ok = None
                            item._value = None
                            item._exc = None
                            item._defused = False
                            if callbacks is not None:
                                callbacks.clear()
                                item._callbacks = callbacks
                            else:
                                item._callbacks = []
                            pool.append(item)
                    elif item.__class__ is list_cls:
                        # A schedule_batch entry: one dispatch, len(fns)
                        # logical events.
                        n += len(item)
                        for fn in item:
                            fn()
                    else:
                        n += 1
                        item()
                self._n_processed = base + n
                if n:
                    self._last_t = self.now
                # Tier 2/3: advance the clock to the next timed bucket.
                batch = self._batch
                i = self._batch_i
                if i >= len(batch):
                    if not self._refill():
                        break
                    batch = self._batch
                    i = 0
                t = batch[i][0]
                if until is not None and t > until:
                    break
                self.now = t
                # Dispatch the whole same-timestamp run before returning to
                # the now-queue: these entries were pushed earlier (smaller
                # seq) than anything their dispatch pushes at time t, so
                # batch-first is exactly the heap's (time, seq) order.  The
                # dispatch body below repeats the now-queue's on purpose:
                # moving the run into the now-queue to share one body costs
                # 10% on the serial cascade (docs/PERFORMANCE.md).
                while True:
                    if n >= limit:
                        self._batch_i = i
                        self._n_processed = base + n
                        raise SimulationError(self._livelock_report(limit))
                    _t, _, item = batch[i]
                    # Drop the tuple before dispatch: the freelist refcount
                    # proof needs no stray queue reference to the item, and
                    # insort above never compares the consumed region.
                    batch[i] = None
                    i += 1
                    self._batch_i = i
                    if isinstance(item, event_cls):
                        n += 1
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
                        if (
                            item._pooled
                            and len(pool) < _POOL_CAP
                            and refcount(item) == 2
                        ):
                            item._ok = None
                            item._value = None
                            item._exc = None
                            item._defused = False
                            if callbacks is not None:
                                callbacks.clear()
                                item._callbacks = callbacks
                            else:
                                item._callbacks = []
                            pool.append(item)
                    elif item.__class__ is list_cls:
                        n += len(item)
                        for fn in item:
                            fn()
                    else:
                        n += 1
                        item()
                    if i >= len(batch) or batch[i][0] != t:
                        break
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self._n_processed = base + n
            batch = self._batch
            i = self._batch_i
            self._batch = []
            self._batch_i = 0
            self._batch_epoch = -1
            if i < len(batch):
                # run() exited mid-bucket (until cut, max_events, or a
                # propagating failure): push the undispatched tail back
                # into the wheel/far heap so the queue stays consistent
                # and a later run() resumes exactly where this one stopped.
                for entry in batch[i:]:
                    epoch = int(entry[0] * _INV_WIDTH)
                    if self._cur_epoch <= epoch < self._wheel_end:
                        self._buckets[epoch & _MASK].append(entry)
                        self._n_wheel += 1
                    else:
                        heappush(self._far, entry)
            self._running = False

    def _livelock_report(self, limit: int) -> str:
        """Diagnostic for the max_events backstop: where/what is queued."""
        batch = self._batch
        pending = (
            len(self._now_q)
            + (len(batch) - self._batch_i)
            + self._n_wheel
            + len(self._far)
        )
        heads = [
            f"(t={self.now:g}, {item!r})" for item in islice(self._now_q, 3)
        ]
        for entry in batch[self._batch_i : self._batch_i + 3 - len(heads)]:
            heads.append(f"(t={entry[0]:g}, {entry[2]!r})")
        return (
            f"exceeded max_events={limit} at t={self.now:g}us with "
            f"{pending} entries still queued (likely a livelock); next up: "
            f"{', '.join(heads) if heads else 'n/a'}"
        )

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: spawn ``gen``, run to completion, return its value."""
        proc = self.spawn(gen, name=name)
        self.run()
        if not proc.triggered:
            msg = (
                f"process {proc.name!r} never finished (deadlock: queue "
                "drained while the process was still waiting)"
            )
            hints = [h for fn in self._deadlock_hints if (h := fn())]
            if hints:
                msg += " | " + "; ".join(hints)
            raise SimulationError(msg)
        return proc.value

    def peek(self) -> float:
        """Time of the next scheduled item, or ``inf`` if the queue is empty."""
        if self._now_q:
            return self.now
        batch = self._batch
        if self._batch_i < len(batch):
            return float(batch[self._batch_i][0])
        best = _INF
        if self._n_wheel:
            e = self._cur_epoch
            while True:
                slot = self._buckets[e & _MASK]
                if slot:
                    best = min(entry[0] for entry in slot)
                    break
                e += 1
        if self._far and self._far[0][0] < best:
            best = self._far[0][0]
        return best
