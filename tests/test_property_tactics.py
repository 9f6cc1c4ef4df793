"""Property-based tests for the scheduling tactics (pure functions)."""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.data import VirtualData
from repro.core.packet import PacketWrap
from repro.core.tactics import (
    deps_satisfied, plan_aggregate, reorder_by_priority,
)


@st.composite
def wrap_lists(draw, max_size=30):
    n = draw(st.integers(0, max_size))
    wraps = []
    for i in range(n):
        wraps.append(PacketWrap(
            dest=draw(st.integers(1, 3)),
            flow=draw(st.integers(0, 2)),
            tag=draw(st.integers(0, 2)),
            seq=i,
            data=VirtualData(draw(st.integers(0, 4096))),
            priority=draw(st.integers(0, 5)),
            allow_reorder=draw(st.booleans()),
        ))
    return wraps


class TestReorderProperties:
    @given(wrap_lists())
    def test_is_a_permutation(self, wraps):
        out = reorder_by_priority(wraps)
        assert sorted(w.wrap_id for w in out) == \
            sorted(w.wrap_id for w in wraps)

    @given(wrap_lists())
    def test_barriers_keep_absolute_position(self, wraps):
        out = reorder_by_priority(wraps)
        for idx, wrap in enumerate(wraps):
            if not wrap.allow_reorder:
                assert out[idx] is wrap

    @given(wrap_lists())
    def test_no_crossing_of_barriers(self, wraps):
        out = reorder_by_priority(wraps)
        barrier_positions = [i for i, w in enumerate(wraps)
                             if not w.allow_reorder]
        pos_in = {w.wrap_id: i for i, w in enumerate(wraps)}
        pos_out = {w.wrap_id: i for i, w in enumerate(out)}
        for b in barrier_positions:
            bid = wraps[b].wrap_id
            for w in wraps:
                if w.wrap_id == bid:
                    continue
                # Anything before the barrier stays before; after stays after.
                if pos_in[w.wrap_id] < b:
                    assert pos_out[w.wrap_id] < pos_out[bid]
                else:
                    assert pos_out[w.wrap_id] > pos_out[bid]

    @given(wrap_lists())
    def test_priorities_descend_between_barriers(self, wraps):
        out = reorder_by_priority(wraps)
        run = []
        for w in out:
            if not w.allow_reorder:
                run = []
                continue
            run.append(w.priority)
            assert run == sorted(run, reverse=True)

    @given(wrap_lists())
    def test_idempotent(self, wraps):
        once = reorder_by_priority(wraps)
        twice = reorder_by_priority(once)
        assert [w.wrap_id for w in once] == [w.wrap_id for w in twice]


class TestAggregateProperties:
    @given(wrap_lists(), st.integers(64, 8192), st.booleans())
    def test_eager_total_within_threshold(self, wraps, threshold, scan):
        choice = plan_aggregate(wraps, dest=1, rdv_threshold=threshold,
                                sent=set(), scan_past_blockage=scan)
        assert sum(w.length for w in choice.eager) <= threshold

    @given(wrap_lists(), st.integers(64, 8192))
    def test_announcements_are_exactly_the_oversized(self, wraps, threshold):
        choice = plan_aggregate(wraps, dest=1, rdv_threshold=threshold,
                                sent=set())
        for w in choice.announce:
            assert w.length > threshold
        for w in choice.eager:
            assert w.length <= threshold

    @given(wrap_lists(), st.integers(64, 8192), st.booleans())
    def test_only_requested_destination(self, wraps, threshold, scan):
        choice = plan_aggregate(wraps, dest=2, rdv_threshold=threshold,
                                sent=set(), scan_past_blockage=scan)
        assert all(w.dest == 2 for w in choice.all_wraps())

    @given(wrap_lists(), st.integers(64, 8192), st.booleans())
    def test_selection_is_subset_without_duplicates(self, wraps, threshold,
                                                    scan):
        choice = plan_aggregate(wraps, dest=1, rdv_threshold=threshold,
                                sent=set(), scan_past_blockage=scan)
        ids = [w.wrap_id for w in choice.all_wraps()]
        assert len(ids) == len(set(ids))
        assert set(ids) <= {w.wrap_id for w in wraps}

    @given(wrap_lists(), st.integers(64, 8192))
    def test_relative_order_preserved(self, wraps, threshold):
        # Within each output class the original submission order holds.
        choice = plan_aggregate(wraps, dest=1, rdv_threshold=threshold,
                                sent=set())
        order = {w.wrap_id: i for i, w in enumerate(wraps)}
        for group in (choice.eager, choice.announce):
            indices = [order[w.wrap_id] for w in group]
            assert indices == sorted(indices)

    @given(wrap_lists(), st.integers(64, 8192), st.integers(1, 5))
    def test_max_items_respected(self, wraps, threshold, cap):
        choice = plan_aggregate(wraps, dest=1, rdv_threshold=threshold,
                                sent=set(), max_items=cap)
        assert len(choice.all_wraps()) <= cap

    @given(wrap_lists(), st.integers(64, 8192))
    def test_no_scan_takes_a_prefix(self, wraps, threshold):
        # Without scanning, the eager choice is a prefix of the dest-1
        # candidates (stops at the first thing that does not fit).
        choice = plan_aggregate(wraps, dest=1, rdv_threshold=threshold,
                                sent=set(), scan_past_blockage=False)
        mine = [w for w in wraps if w.dest == 1]
        k = len(choice.all_wraps())
        # all_wraps() groups eager before announcements, so compare the
        # *set*: exactly the first k dest-1 candidates were chosen.
        assert {w.wrap_id for w in choice.all_wraps()} == \
            {w.wrap_id for w in mine[:k]}

    def test_dependency_on_an_earlier_wrap_of_the_same_aggregate(self):
        def wrap(seq, depends_on=None, nbytes=100):
            return PacketWrap(dest=1, flow=0, tag=0, seq=seq,
                              data=VirtualData(nbytes), depends_on=depends_on)

        head = wrap(0)
        follower = wrap(1, depends_on=head.wrap_id)
        big = wrap(2, nbytes=10_000)                    # announced
        after_big = wrap(3, depends_on=big.wrap_id)     # announce counts too
        orphan = wrap(4, depends_on=-1)                 # never sent, not here
        choice = plan_aggregate([head, follower, big, after_big, orphan],
                                dest=1, rdv_threshold=4096, sent=set())
        assert choice.eager == [head, follower, after_big]
        assert choice.announce == [big]
        # A dependency *later* in the list does not count as planned.
        late = wrap(5)
        early = wrap(6, depends_on=late.wrap_id)
        choice = plan_aggregate([early, late], dest=1, rdv_threshold=4096,
                                sent=set())
        assert choice.eager == [late]

    @given(st.lists(st.tuples(st.integers(0, 2000), st.integers(-1, 12),
                              st.booleans()), max_size=12),
           st.integers(1, 12), st.booleans())
    def test_in_plan_dependencies_match_the_list_scanning_rule(
            self, shape, cap, scan):
        # Oracle: the dependency rule spelled with deps_satisfied over the
        # aggregate-so-far, which plan_aggregate tracks as a running id set.
        wraps = []
        for i, (nbytes, dep, reorder) in enumerate(shape):
            wraps.append(PacketWrap(
                dest=1, flow=0, tag=0, seq=i, data=VirtualData(nbytes),
                allow_reorder=reorder,
                depends_on=wraps[dep].wrap_id if 0 <= dep < i else
                (None if dep < 0 else -1)))
        choice = plan_aggregate(wraps, dest=1, rdv_threshold=1024,
                                sent=set(), max_items=cap,
                                scan_past_blockage=scan)
        planned, used, blocked = [], 0, False
        for w in wraps:
            if not deps_satisfied(w, set(), in_plan=planned):
                if not scan:
                    break
                blocked = True
                continue
            if blocked and not w.allow_reorder:
                break
            if w.length > 1024 or used + w.length <= 1024:
                planned.append(w)
                used += w.length if w.length <= 1024 else 0
            elif not scan:
                break
            else:
                blocked = True
            if len(planned) >= cap:
                break
        assert sorted(w.wrap_id for w in choice.all_wraps()) == \
            sorted(w.wrap_id for w in planned)
