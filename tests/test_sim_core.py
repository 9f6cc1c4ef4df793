"""Unit tests for the discrete-event kernel (repro.sim.core)."""

import pytest

from repro.errors import SimulationError
from repro.sim import AnyOf, Event, Interrupt, Simulator, Timeout, Timer


@pytest.fixture()
def sim():
    return Simulator()


class TestClockAndScheduling:
    def test_initial_time_is_zero(self, sim):
        assert sim.now == 0.0

    def test_schedule_advances_clock(self, sim):
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_schedule_zero_runs_at_current_time(self, sim):
        seen = []
        sim.schedule(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_fifo_order_for_equal_timestamps(self, sim):
        order = []
        for i in range(10):
            sim.schedule(3.0, lambda i=i: order.append(i))
        sim.run()
        assert order == list(range(10))

    def test_events_sorted_by_time(self, sim):
        order = []
        for delay in (9.0, 1.0, 5.0, 4.0, 7.0):
            sim.schedule(delay, lambda d=delay: order.append(d))
        sim.run()
        assert order == sorted(order)

    def test_run_until_stops_early(self, sim):
        seen = []
        sim.schedule(10.0, lambda: seen.append("late"))
        end = sim.run(until=5.0)
        assert end == 5.0
        assert seen == []
        # A second run resumes and processes the remaining event.
        sim.run()
        assert seen == ["late"]

    def test_run_returns_final_time(self, sim):
        sim.schedule(2.5, lambda: None)
        assert sim.run() == 2.5

    def test_nested_scheduling_from_callback(self, sim):
        times = []
        sim.schedule(1.0, lambda: sim.schedule(2.0, lambda: times.append(sim.now)))
        sim.run()
        assert times == [3.0]

    def test_peek_reports_next_event_time(self, sim):
        assert sim.peek() == float("inf")
        sim.schedule(4.0, lambda: None)
        assert sim.peek() == 4.0

    def test_max_events_guard_raises(self, sim):
        def rearm():
            sim.schedule(0.0, rearm)

        sim.schedule(0.0, rearm)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)

    def test_livelock_report_renders_lazy_event_labels(self, sim):
        assert sim.event(("send:%s/%s/%s", 1, 0, 5)).succeed().name == \
            "send:1/0/5"
        with pytest.raises(SimulationError) as exc:
            sim.run(max_events=0)
        assert "next up: (t=0, <Event 'send:1/0/5' ok>)" in str(exc.value)

    def test_events_processed_counter(self, sim):
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        evt = sim.event()
        got = []
        evt.add_callback(lambda e: got.append(e.value))
        evt.succeed(42)
        sim.run()
        assert got == [42]

    def test_double_trigger_rejected(self, sim):
        evt = sim.event()
        evt.succeed(1)
        with pytest.raises(SimulationError):
            evt.succeed(2)
        with pytest.raises(SimulationError):
            evt.fail(RuntimeError("x"))

    def test_value_of_pending_event_raises(self, sim):
        evt = sim.event()
        with pytest.raises(SimulationError):
            _ = evt.value

    def test_fail_requires_exception_instance(self, sim):
        evt = sim.event()
        with pytest.raises(TypeError):
            evt.fail("not an exception")  # type: ignore[arg-type]

    def test_callback_after_trigger_still_runs(self, sim):
        evt = sim.event()
        evt.succeed("v")
        sim.run()
        got = []
        evt.add_callback(lambda e: got.append(e.value))
        sim.run()
        assert got == ["v"]

    def test_unobserved_failure_surfaces_in_run(self, sim):
        evt = sim.event()
        evt.fail(RuntimeError("lost failure"))
        with pytest.raises(RuntimeError, match="lost failure"):
            sim.run()

    def test_defused_failure_does_not_raise(self, sim):
        evt = sim.event()
        evt.fail(RuntimeError("ignored"))
        evt.defuse()
        sim.run()  # no raise

    def test_timeout_value_passthrough(self, sim):
        t = sim.timeout(2.0, value="payload")
        assert isinstance(t, Timeout)
        got = []
        t.add_callback(lambda e: got.append((sim.now, e.value)))
        sim.run()
        assert got == [(2.0, "payload")]

    def test_timeout_negative_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-0.5)


class TestProcess:
    def test_process_runs_over_time(self, sim):
        marks = []

        def proc():
            marks.append(sim.now)
            yield sim.timeout(3.0)
            marks.append(sim.now)
            yield sim.timeout(4.0)
            marks.append(sim.now)

        sim.spawn(proc())
        sim.run()
        assert marks == [0.0, 3.0, 7.0]

    def test_process_return_value(self, sim):
        def proc():
            yield sim.timeout(1.0)
            return "done"

        assert sim.run_process(proc()) == "done"

    def test_process_receives_event_value(self, sim):
        evt = sim.event()

        def proc():
            got = yield evt
            return got

        p = sim.spawn(proc())
        sim.schedule(2.0, lambda: evt.succeed("hello"))
        sim.run()
        assert p.value == "hello"

    def test_spawn_requires_generator(self, sim):
        def not_a_gen():
            return 3

        with pytest.raises(SimulationError):
            sim.spawn(not_a_gen())  # type: ignore[arg-type]

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield 42  # type: ignore[misc]

        p = sim.spawn(proc())
        with pytest.raises(SimulationError, match="may only yield"):
            sim.run()
        assert p.triggered and not p.ok

    def test_process_exception_propagates(self, sim):
        def proc():
            yield sim.timeout(1.0)
            raise ValueError("boom")

        sim.spawn(proc())
        with pytest.raises(ValueError, match="boom"):
            sim.run()

    def test_waiting_on_failed_event_raises_inside_process(self, sim):
        evt = sim.event()

        def proc():
            try:
                yield evt
            except RuntimeError as exc:
                return f"caught {exc}"

        p = sim.spawn(proc())
        sim.schedule(1.0, lambda: evt.fail(RuntimeError("bad")))
        sim.run()
        assert p.value == "caught bad"

    def test_process_waits_on_process(self, sim):
        def child():
            yield sim.timeout(5.0)
            return 99

        def parent():
            result = yield sim.spawn(child())
            return result + 1

        assert sim.run_process(parent()) == 100
        assert sim.now == 5.0

    def test_two_processes_interleave(self, sim):
        log = []

        def ticker(name, period):
            for _ in range(3):
                yield sim.timeout(period)
                log.append((name, sim.now))

        sim.spawn(ticker("a", 2.0))
        sim.spawn(ticker("b", 3.0))
        sim.run()
        # At t=6 both tickers fire; b's timeout was scheduled first (at t=3,
        # vs t=4 for a's), and equal timestamps resolve in scheduling order.
        assert log == [
            ("a", 2.0), ("b", 3.0), ("a", 4.0), ("b", 6.0), ("a", 6.0), ("b", 9.0),
        ]

    def test_run_process_detects_deadlock(self, sim):
        evt = sim.event()  # never triggered

        def proc():
            yield evt

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(proc())

    def test_interrupt_wakes_process(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as intr:
                return f"interrupted:{intr.cause}@{sim.now}"

        p = sim.spawn(sleeper())
        sim.schedule(1.0, lambda: p.interrupt("wakeup"))
        sim.run()
        # The process observed the interrupt at t=1; the abandoned timeout
        # still drains from the queue afterwards (nobody is listening).
        assert p.value == "interrupted:wakeup@1.0"

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            return "x"
            yield  # pragma: no cover

        p = sim.spawn(quick())
        sim.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_stale_wakeup_after_interrupt_ignored(self, sim):
        def sleeper():
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                yield sim.timeout(50.0)
                return "recovered"

        p = sim.spawn(sleeper())
        sim.schedule(1.0, lambda: p.interrupt())
        sim.run()
        # The original 10us timeout fires at t=10 but must not resume the
        # process, which is now sleeping until t=51.
        assert p.value == "recovered"
        assert sim.now == 51.0

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(1.0)

        p = sim.spawn(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        t1, t2, t3 = sim.timeout(1.0, "a"), sim.timeout(5.0, "b"), sim.timeout(3.0, "c")

        def proc():
            results = yield sim.all_of([t1, t2, t3])
            return sorted(results.values())

        assert sim.run_process(proc()) == ["a", "b", "c"]
        assert sim.now == 5.0

    def test_any_of_fires_at_first(self, sim):
        t1, t2 = sim.timeout(4.0, "slow"), sim.timeout(1.0, "fast")

        def proc():
            results = yield sim.any_of([t1, t2])
            return list(results.values())

        assert sim.run_process(proc()) == ["fast"]

    def test_empty_all_of_triggers_immediately(self, sim):
        cond = sim.all_of([])
        assert cond.triggered and cond.value == {}

    def test_all_of_fails_fast(self, sim):
        evt = sim.event()
        slow = sim.timeout(100.0)

        def proc():
            try:
                yield sim.all_of([evt, slow])
            except RuntimeError:
                return sim.now

        p = sim.spawn(proc())
        sim.schedule(2.0, lambda: evt.fail(RuntimeError("child died")))
        sim.run()
        assert p.value == 2.0

    def test_any_of_propagates_first_failure(self, sim):
        evt = sim.event()
        slow = sim.timeout(100.0)

        def proc():
            try:
                yield sim.any_of([evt, slow])
            except RuntimeError as exc:
                return str(exc)

        p = sim.spawn(proc())
        sim.schedule(1.0, lambda: evt.fail(RuntimeError("first")))
        sim.run()
        assert p.value == "first"

    def test_condition_rejects_foreign_events(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([other.event()])

    def test_all_of_already_triggered_children(self, sim):
        e1, e2 = sim.event(), sim.event()
        e1.succeed(1)
        e2.succeed(2)
        cond = sim.all_of([e1, e2])
        sim.run()
        assert cond.triggered and set(cond.value.values()) == {1, 2}


class TestTimer:
    @pytest.fixture
    def fired(self):
        return []

    @pytest.fixture
    def timer(self, sim, fired):
        return Timer(sim, lambda: fired.append(sim.now))

    def test_fires_once_at_arm_time_plus_delay(self, sim, timer, fired):
        sim.schedule(3.0, lambda: timer.arm(4.0))
        sim.run()
        assert fired == [7.0]
        assert sim.peek() == float("inf")

    def test_only_the_latest_arming_fires(self, sim, timer, fired):
        timer.arm(5.0)
        timer.arm(9.0)
        timer.arm(2.0)  # supersedes both, earlier and later alike
        sim.run()
        assert fired == [2.0]

    def test_cancel_before_after_and_between_armings(self, sim, timer, fired):
        timer.cancel()  # never armed: a no-op, and no queue entry
        assert sim.peek() == float("inf")
        timer.arm(1.0)
        timer.cancel()
        sim.run()
        assert fired == []
        timer.arm(1.0)
        sim.run()
        assert fired == [2.0]
        timer.cancel()  # after it fired: a no-op
        timer.arm(3.0)
        timer.cancel()
        timer.arm(4.0)  # cancel between two armings voids only the first
        sim.run()
        assert fired == [2.0, 6.0]

    def test_periodic_user_re_arms_from_inside_the_callback(self, sim):
        ticks = []

        def tick():
            ticks.append(sim.now)
            if len(ticks) < 4:
                timer.arm(2.5)

        timer = Timer(sim, tick)
        timer.arm(2.5)
        sim.run()
        assert ticks == [2.5, 5.0, 7.5, 10.0]
        assert not timer.armed

    def test_cancel_inside_the_callback_is_harmless(self, sim):
        fired = []

        def once():
            fired.append(sim.now)
            timer.cancel()

        timer = Timer(sim, once)
        timer.arm(1.0)
        sim.run()
        timer.arm(1.0)
        sim.run()
        assert fired == [1.0, 2.0]

    def test_armed_truth_table(self, sim):
        seen_inside = []
        timer = Timer(sim, lambda: seen_inside.append(timer.armed))
        assert not timer.armed          # before the first arm
        timer.arm(1.0)
        assert timer.armed
        timer.arm(2.0)
        assert timer.armed              # re-arming keeps it armed
        timer.cancel()
        assert not timer.armed          # after cancel
        timer.arm(1.0)
        sim.run(until=0.5)
        assert timer.armed              # until the callback is entered
        sim.run()
        assert seen_inside == [False]   # false inside the callback
        assert not timer.armed

    def test_one_queue_entry_per_arm_and_none_per_cancel(self, sim, timer,
                                                         fired):
        for delay in (5.0, 1.0, 3.0):
            timer.arm(delay)
        timer.cancel()
        timer.cancel()
        timer.arm(2.0)
        sim.run(until=2.0)
        assert fired == [2.0]
        # The stale entries (t=3, t=5) are still queued; they dispatch as
        # no-ops and then the queue is drained — what the chaos auditor's
        # live-timers invariant relies on.
        assert sim.peek() == 3.0
        sim.run()
        assert fired == [2.0]
        assert sim.events_processed == 4
        assert sim.peek() == float("inf")

    def test_rejected_delay_leaves_the_earlier_arming_alone(self, sim, timer,
                                                            fired):
        timer.arm(1.0)
        with pytest.raises(SimulationError):
            timer.arm(-1.0)
        assert timer.armed
        sim.run()
        assert fired == [1.0]


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def build_and_run():
            sim = Simulator()
            log = []

            def worker(name):
                for i in range(5):
                    yield sim.timeout(1.0 + (hash(name) % 3) * 0.0)  # same delays
                    log.append((name, i, sim.now))

            for n in ("w1", "w2", "w3"):
                sim.spawn(worker(n))
            sim.run()
            return log

        assert build_and_run() == build_and_run()

    def test_run_not_reentrant(self, sim):
        def proc():
            with pytest.raises(SimulationError):
                sim.run()
            yield sim.timeout(1.0)

        sim.spawn(proc())
        sim.run()
