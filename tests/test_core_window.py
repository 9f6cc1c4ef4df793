"""Unit tests for the optimization window and the tactics toolbox."""

import itertools

import pytest

from repro.core.data import VirtualData
from repro.core.packet import PacketWrap
from repro.core.tactics import (
    deps_satisfied,
    first_sendable_dest,
    plan_aggregate,
    reorder_by_priority,
)
from repro.core.window import OptimizationWindow
from repro.errors import StrategyError


#: Wrap ids for wraps built without an engine (an engine numbers its own).
_wrap_ids = itertools.count(1)


def wrap(dest=1, flow=0, tag=0, seq=0, size=100, priority=0,
         allow_reorder=True, depends_on=None, rail=None):
    return PacketWrap(dest=dest, flow=flow, tag=tag, seq=seq,
                      wrap_id=next(_wrap_ids),
                      data=VirtualData(size), priority=priority,
                      allow_reorder=allow_reorder, depends_on=depends_on,
                      rail=rail)


class TestWindow:
    def test_submit_and_len(self):
        win = OptimizationWindow(n_rails=1)
        assert win.empty
        win.submit(wrap())
        win.submit(wrap())
        assert len(win) == 2
        assert not win.empty

    def test_common_list_visible_from_all_rails(self):
        win = OptimizationWindow(n_rails=3)
        w = wrap()
        win.submit(w)
        for rail in range(3):
            assert list(win.eligible(rail)) == [w]

    def test_dedicated_list_only_on_its_rail(self):
        win = OptimizationWindow(n_rails=2)
        w = wrap(rail=1)
        win.submit(w)
        assert list(win.eligible(0)) == []
        assert list(win.eligible(1)) == [w]

    def test_dedicated_wraps_precede_common(self):
        win = OptimizationWindow(n_rails=2)
        common = wrap()
        dedicated = wrap(rail=0)
        win.submit(common)
        win.submit(dedicated)
        assert list(win.eligible(0)) == [dedicated, common]

    def test_submission_order_preserved(self):
        win = OptimizationWindow(n_rails=1)
        wraps = [wrap(seq=i) for i in range(10)]
        for w in wraps:
            win.submit(w)
        assert list(win.eligible(0)) == wraps

    def test_take_removes(self):
        win = OptimizationWindow(n_rails=1)
        w1, w2 = wrap(), wrap()
        win.submit(w1)
        win.submit(w2)
        assert w1 in win and w2 in win
        win.take(w1)
        assert list(win.eligible(0)) == [w2]
        assert w1 not in win and w2 in win
        assert wrap(dest=9) not in win   # a destination never seen

    def test_take_missing_raises(self):
        win = OptimizationWindow(n_rails=1)
        with pytest.raises(StrategyError, match="not in the window"):
            win.take(wrap())

    def test_take_twice_raises(self):
        win = OptimizationWindow(n_rails=1)
        w = wrap()
        win.submit(w)
        win.take(w)
        with pytest.raises(StrategyError):
            win.take(w)

    def test_bad_rail_pin_rejected(self):
        win = OptimizationWindow(n_rails=1)
        with pytest.raises(StrategyError):
            win.submit(wrap(rail=5))

    def test_eligible_bad_rail(self):
        win = OptimizationWindow(n_rails=1)
        with pytest.raises(StrategyError):
            list(win.eligible(3))

    def test_pending_bytes(self):
        win = OptimizationWindow(n_rails=2)
        win.submit(wrap(size=100))
        win.submit(wrap(size=200, rail=1))
        assert win.pending_bytes() == 300
        assert win.pending_bytes(rail=0) == 100
        assert win.pending_bytes(rail=1) == 300  # dedicated + common

    def test_backlog_by_dest(self):
        win = OptimizationWindow(n_rails=1)
        win.submit(wrap(dest=1))
        win.submit(wrap(dest=2))
        win.submit(wrap(dest=1))
        assert win.backlog() == 3
        assert win.backlog(dest=1) == 2
        assert win.backlog(dest=7) == 0

    def test_peak_tracking(self):
        win = OptimizationWindow(n_rails=1)
        w = [wrap() for _ in range(5)]
        for x in w:
            win.submit(x)
        for x in w:
            win.take(x)
        win.submit(wrap())
        assert win.peak_wraps == 5
        assert win.total_submitted == 6

    def test_drain_matching(self):
        win = OptimizationWindow(n_rails=1)
        w1, w2, w3 = wrap(dest=1), wrap(dest=2), wrap(dest=1)
        for w in (w1, w2, w3):
            win.submit(w)
        taken = win.drain_matching(lambda w: w.dest == 1)
        assert taken == [w1, w3]
        assert list(win.eligible(0)) == [w2]

    def test_zero_rails_rejected(self):
        with pytest.raises(ValueError):
            OptimizationWindow(n_rails=0)


class TestDepsSatisfied:
    def test_no_dependency(self):
        assert deps_satisfied(wrap(), sent=set())

    def test_dependency_on_sent_wrap(self):
        w = wrap(depends_on=42)
        assert deps_satisfied(w, sent={42})
        assert not deps_satisfied(w, sent={41})

    def test_dependency_inside_plan(self):
        dep = wrap()
        w = wrap(depends_on=dep.wrap_id)
        assert deps_satisfied(w, sent=set(), in_plan=[dep])


class TestFirstSendableDest:
    def test_oldest_wins(self):
        assert first_sendable_dest([wrap(dest=3), wrap(dest=1)], set()) == 3

    def test_blocked_head_skipped(self):
        blocked = wrap(dest=3, depends_on=999)
        assert first_sendable_dest([blocked, wrap(dest=1)], set()) == 1

    def test_none_when_nothing_sendable(self):
        assert first_sendable_dest([wrap(depends_on=999)], set()) is None
        assert first_sendable_dest([], set()) is None


class TestReorderByPriority:
    def test_stable_within_same_priority(self):
        ws = [wrap(seq=i) for i in range(4)]
        assert reorder_by_priority(ws) == ws

    def test_high_priority_first(self):
        low, high = wrap(priority=0), wrap(priority=5)
        assert reorder_by_priority([low, high]) == [high, low]

    def test_barrier_not_crossed(self):
        first = wrap(priority=0)
        barrier = wrap(priority=0, allow_reorder=False)
        late_high = wrap(priority=9)
        out = reorder_by_priority([first, barrier, late_high])
        # late_high may not overtake the barrier.
        assert out == [first, barrier, late_high]

    def test_sorting_before_barrier(self):
        a, b = wrap(priority=1), wrap(priority=3)
        barrier = wrap(allow_reorder=False)
        out = reorder_by_priority([a, b, barrier])
        assert out == [b, a, barrier]

    def test_empty(self):
        assert reorder_by_priority([]) == []


class TestPlanAggregate:
    def test_takes_all_that_fit(self):
        ws = [wrap(size=100) for _ in range(5)]
        choice = plan_aggregate(ws, dest=1, rdv_threshold=1000, sent=set())
        assert choice.eager == ws
        assert choice.announce == []

    def test_respects_threshold(self):
        ws = [wrap(size=400) for _ in range(5)]
        choice = plan_aggregate(ws, dest=1, rdv_threshold=1000, sent=set())
        assert len(choice.eager) == 2  # 800 <= 1000, third would be 1200

    def test_oversized_becomes_announcement(self):
        small, big = wrap(size=100), wrap(size=5000)
        choice = plan_aggregate([small, big], dest=1, rdv_threshold=1000,
                                sent=set())
        assert choice.eager == [small]
        assert choice.announce == [big]

    def test_scan_past_blockage_picks_later_fits(self):
        a = wrap(size=600)
        blocker = wrap(size=600)   # does not fit after a
        c = wrap(size=300)         # fits
        choice = plan_aggregate([a, blocker, c], dest=1, rdv_threshold=1000,
                                sent=set())
        assert choice.eager == [a, c]

    def test_non_reorderable_stops_scan(self):
        a = wrap(size=600)
        blocker = wrap(size=600)
        pinned = wrap(size=100, allow_reorder=False)
        choice = plan_aggregate([a, blocker, pinned], dest=1,
                                rdv_threshold=1000, sent=set())
        # pinned refuses to overtake blocker, so scanning stops before it.
        assert choice.eager == [a]

    def test_other_destinations_ignored(self):
        mine = wrap(dest=1, size=100)
        other = wrap(dest=2, size=100)
        choice = plan_aggregate([other, mine], dest=1, rdv_threshold=1000,
                                sent=set())
        assert choice.eager == [mine]

    def test_unsatisfied_dependency_blocks(self):
        w = wrap(depends_on=999, size=10)
        choice = plan_aggregate([w], dest=1, rdv_threshold=1000, sent=set())
        assert choice.empty

    def test_dependency_satisfied_within_plan(self):
        first = wrap(size=10)
        second = wrap(size=10, depends_on=first.wrap_id)
        choice = plan_aggregate([first, second], dest=1, rdv_threshold=1000,
                                sent=set())
        assert choice.eager == [first, second]

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            plan_aggregate([], dest=1, rdv_threshold=0, sent=set())

    def test_exact_fit_boundary(self):
        # Aggregate must stop *below or at* the rendezvous switch point.
        ws = [wrap(size=500), wrap(size=500)]
        choice = plan_aggregate(ws, dest=1, rdv_threshold=1000, sent=set())
        assert len(choice.eager) == 2  # exactly 1000 still eager
        ws2 = [wrap(size=500), wrap(size=501)]
        choice2 = plan_aggregate(ws2, dest=1, rdv_threshold=1000, sent=set())
        assert len(choice2.eager) == 1
