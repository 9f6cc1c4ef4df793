"""Kernel queue: edge cases, bugfix regressions, and equivalence.

The :class:`~repro.sim.Simulator` run queue is a now-queue for the current
timestamp plus one heap for later ones; it once was a three-tier calendar
(now-queue, timer wheel, far heap), and several edge cases below were
found on that structure and still pin the order it had to keep.  These
tests hold the queue to the seed kernel's observable behaviour — exact
(time, scheduling-order) dispatch — and lock in the three kernel bugfixes
that rode along with the first rewrite:

* ``run(until=...)`` advances the clock to ``until`` even when the queue
  drains first (or was empty all along),
* ``events_processed`` is exact at every timestamp boundary, readable
  from inside timed callbacks mid-run, and
* the ``max_events`` backstop stops *before* dispatching entry
  ``limit + 1``, leaves the queue resumable, and reports where it
  stopped.

The sanitizer's shake permutes the entries of one timestamp and nothing
else; a property below holds it to the seed kernel's timestamps.

The seed kernel is kept verbatim in ``tests/seed_kernel.py``, so the old
bugs are *demonstrated* here, not just remembered.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Simulator, Timer
from repro.sim.sanitizer import SanitizeConfig
from tests.seed_kernel import LegacyEvent, LegacySimulator


# ---------------------------------------------------------------------------
# Bugfix 1: run(until=...) must advance the clock on an empty/drained queue.
# ---------------------------------------------------------------------------
class TestUntilAdvancesClock:
    def test_empty_queue_advances_to_until(self):
        sim = Simulator()
        assert sim.run(until=50.0) == 50.0
        assert sim.now == 50.0

    def test_drained_queue_advances_to_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda: fired.append(sim.now))
        assert sim.run(until=50.0) == 50.0
        assert fired == [5.0]
        assert sim.now == 50.0
        # last_event_time still answers "when did work last happen".
        assert sim.last_event_time == 5.0

    def test_until_in_the_past_never_rewinds(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.run(until=5.0) == 10.0
        assert sim.now == 10.0

    def test_seed_kernel_had_the_bug(self):
        # The frozen seed kernel returns without moving the clock — the
        # exact behaviour the fix removes.
        legacy = LegacySimulator()
        assert legacy.run(until=50.0) == 0.0
        assert legacy.now == 0.0


# ---------------------------------------------------------------------------
# Bugfix 2: events_processed is exact at timestamp boundaries mid-run.
# ---------------------------------------------------------------------------
class TestEventsProcessedMidRun:
    def test_timed_observer_sees_exact_prior_count(self):
        sim = Simulator()
        seen = []
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: seen.append(sim.events_processed))
        sim.schedule(3.0, lambda: seen.append(sim.events_processed))
        sim.run()
        # At t=2 every t=1 event has been counted; at t=3 the t=2
        # observer itself has been counted too.
        assert seen == [5, 6]
        assert sim.events_processed == 7

    def test_batched_dispatch_is_counted_per_function(self):
        sim = Simulator()
        seen = []
        sim.schedule_batch(1.0, [lambda: None] * 4)
        sim.schedule(2.0, lambda: seen.append(sim.events_processed))
        sim.run()
        assert seen == [4]
        assert sim.events_processed == 5

    def test_seed_kernel_had_the_bug(self):
        legacy = LegacySimulator()
        seen = []
        for _ in range(5):
            legacy.schedule(1.0, lambda: None)
        legacy.schedule(2.0, lambda: seen.append(legacy.events_processed))
        legacy.run()
        # The seed kernel only flushed the counter when run() returned.
        assert seen == [0]


# ---------------------------------------------------------------------------
# Bugfix 3: the max_events backstop triggers at the limit, keeps the
# undispatched entry queued, and reports where it stopped.
# ---------------------------------------------------------------------------
class TestMaxEventsBackstop:
    def test_exactly_limit_events_run_clean(self):
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.schedule(1.0 + i, lambda i=i: fired.append(i))
        assert sim.run(max_events=4) == 4.0
        assert fired == [0, 1, 2, 3]

    def test_stops_before_entry_limit_plus_one(self):
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(1.0 + i, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError) as exc:
            sim.run(max_events=3)
        assert fired == [0, 1, 2]
        assert sim.events_processed == 3
        msg = str(exc.value)
        assert "max_events=3" in msg
        assert f"t={sim.now:g}" in msg
        assert "2 entries still queued" in msg
        assert "next up" in msg

    def test_queue_survives_the_backstop_and_resumes_in_order(self):
        sim = Simulator()
        fired = []
        for i in range(6):
            sim.schedule(1.0, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=2)
        assert fired == [0, 1]
        # Nothing was popped-and-lost: a fresh run picks up entry 2 first.
        sim.run()
        assert fired == [0, 1, 2, 3, 4, 5]

    def test_backstop_mid_wheel_batch_resumes_in_order(self):
        """A backstop inside a same-timestamp run of timed entries leaves
        the rest of the run queued, in order, for the next run()."""
        sim = Simulator()
        fired = []
        for i in range(5):
            sim.schedule(10.0, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]
        sim.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_seed_kernel_lost_the_popped_entry(self):
        legacy = LegacySimulator()
        fired = []
        for i in range(5):
            legacy.schedule(1.0, lambda i=i: fired.append(i))
        with pytest.raises(SimulationError):
            legacy.run(max_events=3)
        legacy.run()
        # Entry 3 was popped before the old limit check raised; it is gone.
        assert fired == [0, 1, 2, 4]


# ---------------------------------------------------------------------------
# Queue edge cases: until cuts, far timers, the horizon guard.
# ---------------------------------------------------------------------------
class TestWheelEdges:
    def test_behind_cursor_push_after_until_cut(self):
        """A timer pushed after an ``until`` cut, and its follow-up, fire
        in time order ahead of an entry queued before the cut.

        The cut parks the clock at 119 with an entry still queued for 120.
        ``first`` lands at 119.2 and schedules ``b`` for 119.7 from inside
        its own dispatch; both must fire before the 120 entry.  (The timer
        wheel this kernel once used stranded ``b`` a full wheel revolution,
        ~2ms, in the future here: its epoch's slot already belonged to the
        next revolution.  That lost NIC rx/tx completions in chaos runs.)
        """
        sim = Simulator()
        fired = []
        # Cut just before the entry so the clock parks at 119 with it
        # still queued.
        sim.schedule(120.0, lambda: fired.append(("far", sim.now)))
        assert sim.run(until=119.0) == 119.0

        def first():
            fired.append(("a", sim.now))
            # Pushed from inside first's dispatch, due before 120.
            sim.schedule(0.5, lambda: fired.append(("b", sim.now)))

        sim.schedule(0.2, first)  # t=119.2
        sim.run()
        assert fired == [("a", 119.2), ("b", 119.7), ("far", 120.0)]

    def test_until_cut_mid_same_timestamp_batch_resumes_in_order(self):
        """A cut just short of a same-timestamp run leaves all of it for
        the next run(), in scheduling order."""
        sim = Simulator()
        fired = []
        for i in range(4):
            sim.schedule(10.0, lambda i=i: fired.append(i))
        sim.run(until=9.5)
        assert fired == []
        sim.run(until=10.0)
        assert fired == [0, 1, 2, 3]

    def test_far_heap_interleaves_with_wheel_in_time_order(self):
        """Far timers (past the ~2ms horizon the timer wheel once had)
        and near work fire in time order, whatever order they were
        pushed in."""
        sim = Simulator()
        fired = []
        sim.schedule(9000.0, lambda: fired.append("far2"))
        sim.schedule(3000.0, lambda: fired.append("far1"))
        sim.schedule(1.0, lambda: fired.append("near1"))
        sim.schedule(2500.0, lambda: fired.append("near2"))
        sim.run()
        assert fired == ["near1", "near2", "far1", "far2"]

    def test_equal_far_times_keep_scheduling_order(self):
        """Equal far timers fire in scheduling order."""
        sim = Simulator()
        fired = []
        for i in range(8):
            sim.schedule(5000.0, lambda i=i: fired.append(i))
        sim.run()
        assert fired == list(range(8))

    def test_kernel_horizon_guard(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(1e301, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(float("nan"), lambda: None)

    def test_zero_delay_timeout_fires_at_now_in_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: fired.append("cb"))
        sim.timeout(0.0).add_callback(lambda evt: fired.append("to"))
        sim.schedule(0.0, lambda: fired.append("cb2"))
        sim.run()
        assert fired == ["cb", "to", "cb2"]


# ---------------------------------------------------------------------------
# schedule_batch: exactly consecutive schedule() calls.
# ---------------------------------------------------------------------------
class TestScheduleBatch:
    def test_equivalent_to_consecutive_schedules(self):
        def drive(post):
            sim = Simulator()
            fired = []
            mk = lambda i: (lambda: fired.append((sim.now, i)))
            sim.schedule(1.0, mk(0))
            post(sim, 1.0, [mk(1), mk(2), mk(3)])
            sim.schedule(1.0, mk(4))
            post(sim, 2.0, [mk(5), mk(6)])
            sim.run()
            return fired, sim.events_processed

        def batched(sim, d, fns):
            sim.schedule_batch(d, fns)

        def unbatched(sim, d, fns):
            for fn in fns:
                sim.schedule(d, fn)

        assert drive(batched) == drive(unbatched)

    def test_empty_batch_is_a_noop(self):
        sim = Simulator()
        sim.schedule_batch(1.0, [])
        assert sim.peek() == float("inf")
        assert sim.run() == 0.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_batch(-1.0, [lambda: None])

    def test_zero_delay_batch_runs_this_timestamp(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, lambda: sim.schedule_batch(
            0.0, [lambda: fired.append(1), lambda: fired.append(2)]))
        sim.run()
        assert fired == [1, 2]
        assert sim.events_processed == 3

    def test_each_function_is_its_own_queue_entry(self):
        # The backstop stops between two functions of one batch and
        # leaves the second queued for the next run().
        sim = Simulator()
        fired = []
        sim.schedule_batch(1.0, [lambda: fired.append(1),
                                 lambda: fired.append(2)])
        with pytest.raises(SimulationError):
            sim.run(max_events=1)
        assert fired == [1] and sim.events_processed == 1
        sim.run()
        assert fired == [1, 2] and sim.events_processed == 2


# ---------------------------------------------------------------------------
# Timeout freelist pooling must never be observable.
# ---------------------------------------------------------------------------
class TestTimeoutPooling:
    def test_held_timeout_is_never_recycled(self):
        sim = Simulator()
        held = sim.timeout(1.0, value="mine")
        sim.run()
        assert held.ok and held.value == "mine"
        # Churn the pool hard; the held object must keep its identity
        # and state no matter how many timeouts come and go.
        for _ in range(50):
            sim.timeout(1.0, value="churn")
        sim.run()
        assert held.ok and held.value == "mine"

    def test_recycled_timeouts_do_not_leak_callbacks(self):
        sim = Simulator()
        calls = []
        for i in range(200):
            sim.timeout(1.0, value=i).add_callback(
                lambda evt: calls.append(evt.value))
        sim.run()
        assert calls == list(range(200))
        calls.clear()
        # Second wave reuses pooled objects; old callbacks must be gone.
        for i in range(200):
            sim.timeout(1.0, value=100 + i).add_callback(
                lambda evt: calls.append(evt.value))
        sim.run()
        assert calls == list(range(100, 300))


# ---------------------------------------------------------------------------
# Property tests: the queue is observationally the seed heap.
# ---------------------------------------------------------------------------
@st.composite
def work_plans(draw):
    """Seed work items, some of which schedule follow-ups when they fire.

    Delays span the now-queue (0), short timers and far ones (2500 and
    5000us, past the ~2ms horizon the timer wheel once had), with
    duplicates likely.  A drawn share of the items (and their follow-ups)
    is posted as a ``Timeout`` with a callback instead of a plain
    ``schedule``: follow-ups are created mid-run, after earlier timeouts
    have fired and been recycled, so they come off the freelist.
    """
    delay = st.one_of(
        st.just(0.0),
        st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
        st.sampled_from([1.0, 2.0, 2.0, 4.0, 2500.0, 5000.0]),
    )
    n = draw(st.integers(1, 25))
    return [
        # (delay, follow-up delay, post as Timeout)
        (draw(delay), draw(st.none() | delay), draw(st.booleans()))
        for _ in range(n)
    ]


def _execute(sim, plan, batch_every=None):
    """Schedule ``plan`` on ``sim``; returns the (time, id) firing log."""
    log = []

    def post(delay, fn, as_timeout):
        if as_timeout:
            sim.timeout(delay).add_callback(lambda _evt: fn())
        else:
            sim.schedule(delay, fn)

    def fire(uid, follow, as_timeout):
        log.append((round(sim.now, 9), uid))
        if follow is not None:
            post(follow, lambda: log.append((round(sim.now, 9), 1000 + uid)),
                 as_timeout)

    pending = []
    for uid, (delay, follow, as_timeout) in enumerate(plan):
        fn = (lambda uid=uid, follow=follow, as_timeout=as_timeout:
              fire(uid, follow, as_timeout))
        if batch_every and uid % batch_every == 0:
            pending.append((delay, fn))
        else:
            post(delay, fn, as_timeout)
    # Deferred items go in per-delay batches: schedule_batch where the
    # kernel has it, the equivalent consecutive schedules where it doesn't.
    groups: dict[float, list] = {}
    for delay, fn in pending:
        groups.setdefault(delay, []).append(fn)
    for delay, fns in groups.items():
        if hasattr(sim, "schedule_batch"):
            sim.schedule_batch(delay, fns)
        else:
            for fn in fns:
                sim.schedule(delay, fn)
    return log


class TestHeapEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(work_plans())
    def test_wheel_matches_seed_heap(self, plan):
        live, legacy = Simulator(), LegacySimulator()
        live_log = _execute(live, plan)
        legacy_log = _execute(legacy, plan)
        live.run()
        legacy.run()
        assert live_log == legacy_log
        assert live.events_processed == legacy.events_processed

    @settings(max_examples=60, deadline=None)
    @given(work_plans(),
           st.lists(st.floats(min_value=0.0, max_value=5200.0,
                              allow_nan=False),
                    min_size=1, max_size=4))
    def test_until_cuts_do_not_change_the_schedule(self, plan, horizons):
        """run(until) cut-and-resume is invisible to the event order.

        This is the pattern the original equivalence property missed:
        cutting a run parks the clock between queued entries, and the
        resumed run must still dispatch everything in (time, seq) order
        (``test_behind_cursor_push_after_until_cut`` above is the directed
        version).
        """
        uncut = Simulator()
        uncut_log = _execute(uncut, plan)
        uncut.run()

        cut = Simulator()
        cut_log = _execute(cut, plan)
        for h in sorted(horizons):
            cut.run(until=h)
        cut.run()
        assert cut_log == uncut_log
        assert cut.events_processed == uncut.events_processed

    @settings(max_examples=40, deadline=None)
    @given(work_plans())
    def test_batched_pushes_match_seed_heap(self, plan):
        """schedule_batch runs (deferred, then consecutive) match the
        seed heap receiving the same calls one by one."""
        live, legacy = Simulator(), LegacySimulator()
        live_log = _execute(live, plan, batch_every=3)
        legacy_log = _execute(legacy, plan, batch_every=3)
        live.run()
        legacy.run()
        assert live_log == legacy_log


class TestShakeScope:
    @settings(max_examples=60, deadline=None)
    @given(work_plans(), st.integers(min_value=0, max_value=2**16))
    def test_shake_reorders_within_a_timestamp_never_across(self, plan, seed):
        """Under ``shake:SEED`` the dispatch timestamps are the seed
        kernel's, in the same sequence, and each timestamp dispatches the
        same multiset of items: only the order inside one moves."""
        live = Simulator(sanitize=SanitizeConfig(shake_seed=seed))
        legacy = LegacySimulator()
        live_log = _execute(live, plan)
        legacy_log = _execute(legacy, plan)
        live.run()
        legacy.run()
        assert [t for t, _ in live_log] == [t for t, _ in legacy_log]
        assert sorted(live_log) == sorted(legacy_log)
        assert live.events_processed == legacy.events_processed


# ---------------------------------------------------------------------------
# Property test: conditions built over children in every state report what
# the seed kernel reports; an AllOf just pays no queue entry to be told of
# a success it could read.
# ---------------------------------------------------------------------------
_T_BUILD = 4.0   # when the condition is constructed
_CHILD_STATES = (
    "processed_ok", "processed_failed",   # dispatched before _T_BUILD
    "triggered_ok", "triggered_failed",   # in the queue at construction
    "pending_ok", "pending_failed",       # triggered at or after _T_BUILD
    "pending_never",
    "timeout",                            # processed, due or pending: by delay
)


@st.composite
def condition_programs(draw):
    """(kind, children, timeouts_first, horizons).

    A child is ``(state, when)``: ``when`` picks the trigger time inside the
    state's range (and 0.0 the same-timestamp corner of it — a trigger from
    a callback queued just ahead of the builder, or just behind it).
    """
    children = draw(st.lists(
        st.tuples(st.sampled_from(_CHILD_STATES),
                  st.sampled_from([0.0, 0.0, 1.0, 2.5])),
        min_size=1, max_size=7))
    horizons = draw(st.lists(
        st.floats(min_value=0.0, max_value=8.0, allow_nan=False),
        max_size=3))
    return (draw(st.sampled_from(["all_of", "any_of"])), children,
            draw(st.booleans()), horizons)


class _Boom(Exception):
    pass


def _observed(evt):
    """Was the failed ``evt`` observed?  The seed kernel keeps a flag; the
    live one folds it into the outcome, which stays ``False`` only while
    nobody has seen the failure."""
    if isinstance(evt, LegacyEvent):
        return evt._defused
    return evt._ok is not False


def _play_condition(sim, program):
    """Run ``program`` on ``sim``; returns everything an observer can see."""
    kind, specs, timeouts_first, horizons = program
    children = [None] * len(specs)
    seen = {"outcome": None, "counted": None}

    def trigger(i, ok, defuse=False):
        if ok:
            children[i].succeed(i)
        else:
            children[i].fail(_Boom(f"child {i}"))
            if defuse:
                children[i].defuse()

    def observe(cond):
        # What a waiting process does on wake-up, minus the process.
        if cond.ok:
            seen["outcome"] = (sim.now, "ok", [
                (children.index(c), v) for c, v in cond.value.items()])
        else:
            cond.defuse()
            seen["outcome"] = (sim.now, "failed", str(cond.exception))

    def build():
        for i, (state, when) in enumerate(specs):
            if state.startswith("triggered") and when != 0.0:
                trigger(i, state.endswith("_ok"))
        # What an AllOf may count without being told: dispatched successes.
        seen["counted"] = sum(
            1 for c in children if c._callbacks is None and c._ok)
        cond = getattr(sim, kind)(children)
        seen["cond"] = cond
        cond.add_callback(observe)   # at once, as ``yield cond`` would

    def post_timeouts():
        for i, (state, when) in enumerate(specs):
            if state == "timeout":
                children[i] = sim.timeout(_T_BUILD - 1.0 + when, i)

    for i, (state, when) in enumerate(specs):
        if state != "timeout":
            children[i] = sim.event(f"child{i}")
    for i, (state, when) in enumerate(specs):
        if state.startswith("processed"):
            # Defused where it fails, or run() would re-raise it right there.
            sim.schedule(when, lambda i=i, ok=state.endswith("_ok"):
                         trigger(i, ok, defuse=True))
    if timeouts_first:
        post_timeouts()
    for i, (state, when) in enumerate(specs):
        if state.startswith("triggered") and when == 0.0:
            sim.schedule(_T_BUILD, lambda i=i, ok=state.endswith("_ok"):
                         trigger(i, ok))
    sim.schedule(_T_BUILD, build)
    if not timeouts_first:
        post_timeouts()
    for i, (state, when) in enumerate(specs):
        if state in ("pending_ok", "pending_failed"):
            sim.schedule(_T_BUILD + when, lambda i=i, ok=state.endswith("_ok"):
                         trigger(i, ok))

    raised = []
    for until in [*sorted(horizons), None]:
        while True:
            try:
                sim.run(until=until)
                break
            except _Boom as exc:   # a failure nobody observed
                raised.append((sim.now, str(exc)))
    cond = seen.pop("cond")
    seen.update(
        raised=raised, entries=sim.events_processed,
        triggered=cond.triggered,
        defused=[_observed(c) for c in children
                 if c.triggered and not c.ok])
    return seen


class TestConditionEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(condition_programs())
    def test_conditions_report_what_the_seed_kernel_reports(self, program):
        live = _play_condition(Simulator(), program)
        legacy = _play_condition(LegacySimulator(), program)
        saved = live["counted"] if program[0] == "all_of" else 0
        assert legacy.pop("entries") - live.pop("entries") == saved
        # Trigger time, value dict or failure, which failed children were
        # defused, what run() re-raised: all the same.
        assert live == legacy

    def test_all_processed_successes_trigger_from_the_constructor(self):
        sim = Simulator()
        kids = [sim.event().succeed(i) for i in range(64)]
        sim.run()
        before = sim.events_processed
        cond = sim.all_of(kids)
        assert cond.triggered and cond.ok
        sim.run()
        assert sim.events_processed - before == 1   # the condition itself
        assert cond.value == {k: i for i, k in enumerate(kids)}

    @pytest.mark.parametrize("factory", [Simulator, LegacySimulator])
    def test_a_decisive_outcome_still_waits_its_turn(self, factory):
        # Why only an AllOf's successes are read on the spot: any other
        # processed child can decide the condition, and then announcing it
        # ahead of a child already in the queue changes the verdict.
        sim = factory()
        done = sim.event().succeed("done long ago")
        sim.run()
        queued = sim.event().fail(_Boom("queued first"))
        cond = sim.any_of([queued, done])
        cond.add_callback(lambda c: c.defuse())
        sim.run()
        assert not cond.ok and str(cond.exception) == "queued first"

        late = sim.event().fail(_Boom("late"))
        late.defuse()
        sim.run()
        queued = sim.event().fail(_Boom("queued first"))
        cond = sim.all_of([queued, late])
        cond.add_callback(lambda c: c.defuse())
        sim.run()
        assert str(cond.exception) == "queued first"


# ---------------------------------------------------------------------------
# Property test: Timer against a reference model that needs no queue.
# ---------------------------------------------------------------------------
_TIMER_DELAY = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=6.0, allow_nan=False),
    st.sampled_from([2.0, 2.0, 4.0, 2500.0]),
)
_TIMER_STEP = st.one_of(
    st.tuples(st.just("arm"), _TIMER_DELAY),
    st.tuples(st.just("cancel"), st.none()),
    st.tuples(st.just("run"), _TIMER_DELAY),   # run(until=now + value)
)


class TestTimerModel:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(_TIMER_STEP, min_size=1, max_size=30))
    def test_timer_matches_the_reference_model(self, program):
        """The callback runs exactly when a timer that *could* withdraw
        its queue entries would run it: at the due time of the latest
        un-cancelled arming, once."""
        sim = Simulator()
        fired: list[float] = []
        timer = Timer(sim, lambda: fired.append(sim.now))
        # The model: a clock and at most one due time.
        now, due, expected, arms = 0.0, None, [], 0
        for op, value in program + [("run", 6000.0)]:
            if op == "arm":
                timer.arm(value)
                due, arms = now + value, arms + 1
            elif op == "cancel":
                timer.cancel()
                due = None
            else:
                now = sim.run(until=now + value)
                if due is not None and due <= now:
                    expected.append(due)
                    due = None
            assert timer.armed == (due is not None)
            assert fired == expected
        # One queue entry per arm, stale ones included, and nothing left.
        assert sim.events_processed == arms
        assert sim.peek() == float("inf")

