"""Property test: the window's incremental counters never drift.

The rewritten :class:`~repro.core.window.OptimizationWindow` maintains its
byte/wrap totals (global, per rail, per destination) incrementally on
submit/take instead of recomputing them — that is the whole point of the
O(1) accounting overhaul, and also exactly the kind of code where a missed
decrement corrupts scheduling decisions silently.  This test drives random
interleavings of every mutating operation (``submit``, ``take``,
``drain_matching``, ``restore`` — the cancel-unwind path) over multiple
rails and destinations, and after each step compares every query against a
brute-force recomputation from the window's raw contents.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.data import VirtualData
from repro.core.packet import PacketWrap
from repro.core.window import OptimizationWindow

N_RAILS = 3
DESTS = (1, 2, 5)


def _brute_force_check(win: OptimizationWindow, live: list) -> None:
    """Assert every O(1) answer equals a recomputation from the shadow model.

    ``live`` is the shadow's insertion-ordered list of in-window wraps
    (restore() re-queues at the tail, which the shadow mirrors by
    appending).
    """
    assert sorted(w.wrap_id for w in win._all()) == \
        sorted(w.wrap_id for w in live)
    assert len(win) == len(live)
    assert win.empty == (not live)
    assert win.backlog() == len(live)
    assert win.pending_bytes() == sum(w.length for w in live)

    for rail in range(win.n_rails):
        dedicated = [w for w in live if w.rail == rail]
        common = [w for w in live if w.rail is None]
        # eligible() yields dedicated-then-common, each in insertion order.
        assert list(win.eligible(rail)) == dedicated + common
        assert win.pending_bytes(rail) == \
            sum(w.length for w in dedicated + common)

    for dest in set(w.dest for w in live) | set(DESTS):
        towards = [w for w in live if w.dest == dest]
        assert win.backlog(dest) == len(towards)
        assert win.backlog_bytes(dest) == sum(w.length for w in towards)
        for rail in range(win.n_rails):
            # Same pinned-first-then-common contract as eligible().
            expected = [w for w in towards if w.rail == rail] + \
                       [w for w in towards if w.rail is None]
            assert win.eligible_for_dest(rail, dest) == expected

    assert sorted(win.dests()) == sorted(set(w.dest for w in live))


# One random step: (action selector, dest choice, rail pin, size, index pick)
STEP = st.tuples(
    st.integers(0, 99),
    st.sampled_from(DESTS),
    st.one_of(st.none(), st.integers(0, N_RAILS - 1)),
    st.integers(1, 4096),
    st.integers(0, 1_000_000),
)


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(STEP, min_size=1, max_size=60))
def test_incremental_counters_match_brute_force(steps):
    win = OptimizationWindow(N_RAILS)
    live: list[PacketWrap] = []     # wraps currently in the window
    parked: list[PacketWrap] = []   # taken wraps that may come back
    seq = 0
    resubmitted = 0

    for action, dest, rail, size, pick in steps:
        if action < 45 or not live:
            # submit: fresh wrap, possibly pinned to a rail
            wrap = PacketWrap(dest=dest, flow=0, tag=0, seq=seq,
                              data=VirtualData(size), rail=rail)
            seq += 1
            win.submit(wrap)
            live.append(wrap)
        elif action < 70:
            # take: a strategy commits an arbitrary live wrap
            wrap = live.pop(pick % len(live))
            win.take(wrap)
            parked.append(wrap)
        elif action < 85:
            # drain_matching: error-path bulk removal by destination
            gone = win.drain_matching(lambda w, dest=dest: w.dest == dest)
            assert sorted(w.wrap_id for w in gone) == sorted(
                w.wrap_id for w in live if w.dest == dest)
            live = [w for w in live if w.dest != dest]
            parked.extend(gone)
        elif parked:
            # re-submit a wrap the window no longer holds (same wrap_id)
            wrap = parked.pop(pick % len(parked))
            win.submit(wrap)
            resubmitted += 1
            live.append(wrap)

        _brute_force_check(win, live)

    # peak_wraps is a high-water mark over the whole history; it can only
    # have been observed at some point, so it bounds the final occupancy.
    assert win.peak_wraps >= len(live)
    assert win.total_submitted == seq + resubmitted
