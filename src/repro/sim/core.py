"""Discrete-event simulation kernel.

This is the substrate on which every experiment in the reproduction runs.
The paper's engine reacts to *hardware activity* (a NIC finishing a
transmission), so we need an event-driven clock rather than wall time.  The
kernel is deliberately small and SimPy-flavoured:

* :class:`Simulator` owns a monotonically non-decreasing clock (``now``, in
  microseconds by convention) and a deterministic priority queue.
* :class:`Event` is a one-shot occurrence that callbacks and processes can
  wait on (:class:`NamedEvent` is one with a debug label).
  :class:`Timeout` is an event scheduled at ``now + delay``.
* :class:`Process` wraps a generator; the generator yields events (or other
  processes, or :class:`AllOf`/:class:`AnyOf` conditions) and is resumed with
  the event's value when it triggers.  This lets the ping-pong applications,
  protocol state machines, and the engine's progress loop all be written as
  straight-line coroutines over simulated time.

The kernel is single-threaded and deterministic: events scheduled for the
same timestamp fire in FIFO scheduling order (a strictly increasing sequence
number breaks ties), which makes every simulation and therefore every
benchmark series exactly reproducible.

Every queue entry is one callback or one event, and the queue has two
parts (the seed's single binary heap is frozen as ``tests/seed_kernel.py``,
the oracle of the ordering-equivalence property test):

* a **now-queue** — a plain FIFO for occurrences at exactly the current
  timestamp (event activations, zero-delay schedules).  These are by far
  the most common push in the engine (every ``succeed`` travels through
  it) and need neither a tuple nor a heap: append order *is* scheduling
  order because the clock cannot move while they wait;
* a **heap** of ``(time, seq, item)`` for everything later, ``seq`` a
  counter bumped by each heap push to break ties in push order.  When
  the now-queue drains, the clock moves to the heap top and every entry
  of that timestamp is popped before the now-queue is served again: they
  were all pushed before the clock got there, so they come before
  anything pushed at it.

``tests/test_sim_wheel.py`` pins the dispatch order to the seed heap's
with a Hypothesis property.
"""

from __future__ import annotations

import sys
from collections import deque
from collections.abc import Callable, Generator, Iterable
from functools import partial
from heapq import heappop, heappush, nsmallest
from itertools import islice

from typing import Any, ClassVar

from random import Random

from repro.errors import SimulationError
from repro.sim.sanitizer import SanitizeConfig, active_sanitizer

#: Timeout freelist recycling relies on CPython reference counts to prove
#: no condition, process, or user closure still holds the object (without
#: ``sys.getrefcount`` the proof never holds and nothing is recycled).
#: Kept because it pays: with the freelist off the serial cascade runs 21%
#: slower (docs/PERFORMANCE.md).
_POOL_CAP = 4096
_getrefcount: Callable[[Any], int] = getattr(sys, "getrefcount", lambda _o: -1)

#: Push-time horizon guard: rejects inf/nan timestamps.  A NaN compares
#: false against everything and corrupts the heap's order for every entry
#: pushed after it; an ``inf`` entry names no time at which it could fire.
#: The seed heap silently accepted both; nothing in the engine ever
#: scheduled one.
_T_MAX = 1e300
_INF = float("inf")

__all__ = [
    "Simulator",
    "Event",
    "NamedEvent",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "Timer",
]


#: ``Event._ok`` once a failure was observed (by a waiter, :attr:`value`
#: or :meth:`Event.defuse`).  Falsy like ``False`` (a failure) but not
#: ``False``, so ``_ok is False`` alone means "failed, nobody told".
_OBSERVED = 0


class Event:
    """A one-shot occurrence in simulated time.

    An event starts *pending*; it may be :meth:`succeed`-ed (optionally with
    a value) or :meth:`fail`-ed (with an exception) exactly once.  Callbacks
    registered before triggering run, in registration order, when the
    simulator processes the event; callbacks registered after triggering are
    scheduled to run immediately (still via the event queue, preserving
    determinism).

    The core is four fields: the simulator, the callback list (``None``
    once processed), the outcome and the value.  The outcome is one of
    pending (``None``), succeeded (``True``), failed and not yet observed
    (``False``) and failed and observed (:data:`_OBSERVED`); run()
    re-raises a failure that is still unobserved once its callbacks ran.
    A processed event therefore holds its outcome and its value (or
    exception), nothing else.  The base event has no label: the kinds
    that carry one are :class:`NamedEvent` (what :meth:`Simulator.event`
    returns), :class:`Process` and :class:`Condition`.

    Subclassing (an operation that *is* its completion event, like the
    engine's requests): add ``__slots__``, call :meth:`Event.__init__`, and
    use the public surface only — ``triggered``/``ok``/``exception``/
    ``succeed``/``fail``/``defuse``/``add_callback``; the underscored
    fields stay the kernel's (lint NM301).  A subclass may override
    :attr:`name` to render its label from its own fields on demand.  Never
    store a reference to ``self`` in a slot: a one-object cycle is still a
    cycle only the collector can free.
    """

    __slots__ = ("sim", "_callbacks", "_ok", "_value")

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._callbacks: list[Callable[[Event], None]] | None = []
        self._ok: bool | int | None = None  # the outcome (class docstring)
        # The success value, or a failed event's exception.
        self._value: Any = None

    # -- state ----------------------------------------------------------
    @property
    def name(self) -> str:
        """Debug label: none here (see the labelled kinds above)."""
        return ""

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
        self._ok = _OBSERVED
        raise self._value

    @property
    def exception(self) -> BaseException | None:
        """The failure exception, or ``None`` (non-raising inspection)."""
        ok = self._ok
        return None if ok is None or ok else self._value

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
        self._value = exc
        self.sim._activate(self)
        return self

    def defuse(self) -> None:
        """Mark a failed event as observed so run() does not re-raise it.

        A no-op on a succeeded event.  A pending event has no failure to
        observe yet, and the outcome field has no place to remember one
        ahead of time: defuse it once it failed.
        """
        if self._ok is None:
            raise SimulationError(f"defuse() of pending event {self!r}")
        if self._ok is False:
            self._ok = _OBSERVED

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
            else ("ok" if self._ok else f"failed({self._value!r})")
        )
        name = self.name
        label = f" {name!r}" if name else ""
        return f"<{type(self).__name__}{label} {state}>"


class NamedEvent(Event):
    """An event with a debug label: what :meth:`Simulator.event` returns.

    ``name`` may be a lazy label ``(template, *args)``: per-message events
    are named for diagnostics only, so the string is built when somebody
    reads :attr:`name`, not once per message.
    """

    __slots__ = ("_name",)

    def __init__(
        self, sim: Simulator, name: str | tuple[Any, ...] = ""
    ) -> None:
        # Event.__init__ inlined: a NIC builds one of these per frame, and
        # a chained constructor would be a second call for each.
        self.sim = sim
        self._callbacks = []
        self._ok = None
        self._value = None
        self._name = name

    @property
    def name(self) -> str:
        """Debug label (a lazy ``(template, *args)`` is rendered here)."""
        name = self._name
        if name.__class__ is tuple:
            return name[0] % name[1:]
        return name


class Timeout(Event):
    """An event that triggers ``delay`` time units after creation.

    Completed plain timeouts (not a subclass's) with no remaining holders
    are recycled through :attr:`Simulator._timeout_pool` (the name is left
    empty rather than the old ``f"timeout({delay})"`` — the f-string alone
    was ~25% of timeout creation cost; :meth:`__repr__` still shows the
    delay).
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
        sim._schedule_event(delay, self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "pending"
            if self._ok is None
            else ("ok" if self._ok else f"failed({self._value!r})")
        )
        return f"<Timeout({self.delay:g}) {state}>"


class Process(NamedEvent):
    """A running coroutine over simulated time.

    A process *is* an event: it triggers with the generator's return value
    when the generator finishes (or fails with the raised exception), so
    processes can wait on each other by yielding them.
    """

    __slots__ = ("_gen",)

    def __init__(self, sim: Simulator, gen: Generator, name: str = "") -> None:
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"Process requires a generator, got {type(gen).__name__}; "
                "did you call the function instead of passing its generator?"
            )
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        # Kick off the process at the current time.
        init = NamedEvent(sim, f"init:{self.name}")
        init.add_callback(self._resume)
        init.succeed()

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    # -- internal -------------------------------------------------------
    def _resume(self, evt: Event) -> None:
        # The one event the process yields is its only registration, so
        # every wake-up is current.
        if evt._ok:
            self._step(self._gen.send, evt._value)
        else:
            evt._ok = _OBSERVED
            self._step(self._gen.throw, evt._value)

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
        super().__init__(sim)
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

    @property
    def name(self) -> str:
        """Debug label: the condition's kind."""
        return type(self).__name__

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
                evt._ok = _OBSERVED
            return
        if not evt._ok:
            evt._ok = _OBSERVED
            self.fail(evt._value)
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
                evt._ok = _OBSERVED
            return
        if evt._ok:
            self.succeed(self._collect())
        else:
            evt._ok = _OBSERVED
            self.fail(evt._value)


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

    The device-incarnation fences (``Nic._gen``, ``Switch.generation``)
    are a different thing: they void *many* in-flight per-frame closures
    at once, not one re-armable timer.
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


class Simulator:
    """The event loop: a clock plus a deterministic priority queue.

    The queue is the now-queue plus one heap described in the module
    docstring; the dispatch order is exactly the ``(time, seq)`` order
    the seed's single heap produced.
    """

    def __init__(self, sanitize: SanitizeConfig | None = None) -> None:
        # Determinism-sanitizer mode (see repro.sim.sanitizer): default-off,
        # falls back to the REPRO_SANITIZE environment variable so subprocess
        # harnesses can arm it without threading a parameter through every
        # experiment entry point.  The one kernel hook is a test per
        # timestamp in run — the push paths are untouched either way.
        if sanitize is None:
            sanitize = active_sanitizer()
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
        # Occurrences at exactly the current timestamp, FIFO.  Bare
        # items — while the clock stands still, append order IS scheduling
        # order, so no tuple is built for the hottest push path.
        self._now_q: deque[Any] = deque()
        # Everything later, as (time, seq, item).
        self._heap: list[tuple[float, int, Any]] = []
        # Freelist of completed, unreferenced Timeouts (see Simulator.run).
        self._timeout_pool: list[Timeout] = []

    def add_deadlock_hint(self, fn: Callable[[], str | None]) -> None:
        """Register a diagnosis callback consulted when a deadlock fires.

        Each callback returns a short explanation string (or ``None`` for
        "nothing to add"); engines use this to distinguish a paper-mode
        stall (no retransmission) from an exhausted retry budget and to
        name the wedged peer.  Both stall reports carry them: the deadlock
        message of :meth:`run_process` (the queue drained) and the
        ``max_events`` livelock message of :meth:`run` (it did not).
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
    def event(self, name: str | tuple[Any, ...] = "") -> NamedEvent:
        """Create a fresh pending :class:`NamedEvent`.

        ``name`` may be a lazy label ``(template, *args)``, rendered as
        ``template % args`` only when :attr:`Event.name` is read.
        """
        return NamedEvent(self, name)

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
    # Each entry point does the now-queue fast path itself; every timed
    # occurrence then goes through the one _push.  (A private copy of it in
    # each entry point saves the method call: ~5% on the serial-cascade
    # micro-bench, nothing resolvable end to end — docs/PERFORMANCE.md.)
    def schedule(self, delay: float, fn: Callable[[], None]) -> None:
        """Run ``fn()`` after ``delay`` time units (0 = this timestamp)."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        t = self.now + delay
        if t <= self.now:
            self._now_q.append(fn)
        else:
            self._push(t, fn)

    def schedule_batch(self, delay: float, fns: list[Callable[[], None]]) -> None:
        """Run ``fns`` back-to-back after ``delay``: one queue entry each.

        Exactly consecutive ``schedule(delay, fn)`` calls; ``Link`` posts
        a wire duplicate's two deliveries through it.
        """
        for fn in fns:
            self.schedule(delay, fn)

    def _schedule_event(self, delay: float, event: Event) -> None:
        t = self.now + delay
        if t <= self.now:
            self._now_q.append(event)
        else:
            self._push(t, event)

    def _activate(self, event: Event) -> None:
        """Queue a triggered event's callbacks for execution *now*."""
        self._now_q.append(event)

    def _push(self, t: float, item: Any) -> None:
        """Insert a future occurrence into the heap."""
        if not t <= _T_MAX:
            raise SimulationError(
                f"cannot schedule at t={t!r} (beyond the kernel horizon)"
            )
        self._seq = seq = self._seq + 1
        heappush(self._heap, (t, seq, item))

    def _shake(self, t: float, rng: Random) -> None:
        """Sanitizer: permute the run of heap entries due at ``t``.

        Called as the clock reaches ``t``, so the run holds every entry
        pushed for ``t`` before then; its sequence numbers are dealt out
        to the shuffled items, which keeps them ahead of anything pushed
        at ``t`` and behind nothing earlier.
        """
        heap = self._heap
        run: list[tuple[float, int, Any]] = []
        while heap and heap[0][0] == t:
            run.append(heappop(heap))
        items = [entry[2] for entry in run]
        rng.shuffle(items)
        for (_t, seq, _item), item in zip(run, items):
            heappush(heap, (t, seq, item))

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
        diagnostic carrying the current time, queue depth, the next few
        pending entries and the deadlock hints' diagnoses.

        Hot loop notes: the now-queue, the heap, the Event and Timeout
        classes and the Timeout freelist are bound to locals, and the processed counter
        is mirrored in a local that flushes to ``_n_processed`` at every
        timestamp boundary — so ``events_processed`` read from any timed
        callback (chaos audits, heartbeat monitors) is exact for all prior
        timestamps, while the per-event cost stays one integer add.
        Monotonicity needs no explicit check: delays are validated
        non-negative at push time and the heap pops in (time, seq) order.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        now_q = self._now_q
        pop_now = now_q.popleft
        event_cls = Event
        timeout_cls = Timeout
        pool = self._timeout_pool
        refcount = _getrefcount
        heap = self._heap
        shake = self._shake_rng
        base = self._n_processed
        limit = max_events
        n = 0
        try:
            while True:
                # Everything at the current timestamp, push order.
                while now_q:
                    if n >= limit:
                        self._n_processed = base + n
                        raise SimulationError(self._livelock_report(limit))
                    item = pop_now()
                    n += 1
                    if isinstance(item, event_cls):
                        if item._ok is None:
                            # A Timeout reaching its due time: trigger now.
                            item._ok = True
                        callbacks = item._callbacks
                        item._callbacks = None
                        if callbacks:
                            for fn in callbacks:
                                fn(item)
                        if item._ok is False:
                            raise item._value
                        if (
                            item.__class__ is timeout_cls
                            and len(pool) < _POOL_CAP
                            and refcount(item) == 2
                        ):
                            # Only the loop local and refcount's argument
                            # hold this Timeout: no process, condition or
                            # user closure can ever see it again, so it is
                            # safe to recycle (reusing its callbacks list).
                            # A subclass is never recycled: sim.timeout()
                            # hands out plain Timeouts only.
                            item._ok = None
                            item._value = None
                            if callbacks is not None:
                                callbacks.clear()
                                item._callbacks = callbacks
                            else:
                                item._callbacks = []
                            pool.append(item)
                    else:
                        item()
                self._n_processed = base + n
                if n:
                    self._last_t = self.now
                # Advance the clock to the heap top.
                if not heap:
                    break
                t = heap[0][0]
                if until is not None and t > until:
                    break
                self.now = t
                if shake is not None:
                    self._shake(t, shake)
                # Dispatch the whole same-timestamp run before returning to
                # the now-queue: these entries were pushed before anything
                # their dispatch pushes at time t, so heap-first is exactly
                # the (time, seq) order.  The dispatch body below repeats
                # the now-queue's on purpose: moving the run into the
                # now-queue to share one body costs calls on every timed
                # entry (docs/PERFORMANCE.md).
                while True:
                    if n >= limit:
                        self._n_processed = base + n
                        raise SimulationError(self._livelock_report(limit))
                    # The popped tuple dies here: the freelist refcount
                    # proof needs no stray queue reference to the item.
                    item = heappop(heap)[2]
                    n += 1
                    if isinstance(item, event_cls):
                        if item._ok is None:
                            item._ok = True
                        callbacks = item._callbacks
                        item._callbacks = None
                        if callbacks:
                            for fn in callbacks:
                                fn(item)
                        if item._ok is False:
                            raise item._value
                        if (
                            item.__class__ is timeout_cls
                            and len(pool) < _POOL_CAP
                            and refcount(item) == 2
                        ):
                            item._ok = None
                            item._value = None
                            if callbacks is not None:
                                callbacks.clear()
                                item._callbacks = callbacks
                            else:
                                item._callbacks = []
                            pool.append(item)
                    else:
                        item()
                    if not heap or heap[0][0] != t:
                        break
            if until is not None and until > self.now:
                self.now = until
            return self.now
        finally:
            self._n_processed = base + n
            self._running = False

    def _livelock_report(self, limit: int) -> str:
        """Diagnostic for the max_events backstop: where/what is queued.

        "Next up" is what is queued at the current timestamp: the
        now-queue first, then heap entries due now, at most three.
        """
        now = self.now
        heads = [f"(t={now:g}, {item!r})" for item in islice(self._now_q, 3)]
        for entry in nsmallest(3 - len(heads), self._heap):
            if entry[0] != now:
                break
            heads.append(f"(t={now:g}, {entry[2]!r})")
        return (
            f"exceeded max_events={limit} at t={now:g}us with "
            f"{len(self._now_q) + len(self._heap)} entries still queued "
            f"(likely a livelock); next up: "
            f"{', '.join(heads) if heads else 'n/a'}{self._hints()}"
        )

    def _hints(self) -> str:
        """The registered hints' diagnoses, as a `` | ``-led suffix."""
        hints = [h for fn in self._deadlock_hints if (h := fn())]
        return " | " + "; ".join(hints) if hints else ""

    def run_process(self, gen: Generator, name: str = "") -> Any:
        """Convenience: spawn ``gen``, run to completion, return its value."""
        proc = self.spawn(gen, name=name)
        self.run()
        if not proc.triggered:
            raise SimulationError(
                f"process {proc.name!r} never finished (deadlock: queue "
                f"drained while the process was still waiting){self._hints()}"
            )
        return proc.value

    def peek(self) -> float:
        """Time of the next scheduled item, or ``inf`` if the queue is empty."""
        if self._now_q:
            return self.now
        if self._heap:
            return self._heap[0][0]
        return _INF
