"""Elementary optimizing operations ("tactics").

Paper §3.2: "Each tactic applies some elementary optimizing operations
selected from the panel of usual operations toward some particular
optimizing goal."  Strategies compose these pure functions; keeping them
free of engine state makes them individually property-testable.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.packet import PacketWrap

__all__ = [
    "deps_satisfied",
    "first_sendable_dest",
    "reorder_by_priority",
    "plan_aggregate",
    "AggregateChoice",
]


def deps_satisfied(
    wrap: PacketWrap, sent: set[int], in_plan: Iterable[PacketWrap] = ()
) -> bool:
    """True if ``wrap``'s dependency (if any) was sent or precedes it in plan.

    A wrap may declare ``depends_on`` (paper §3.2's "dependency attributes",
    e.g. an RPC service id that must leave before its arguments).  The
    dependency is satisfied once that wrap has physically left, or if it is
    scheduled earlier inside the packet currently being synthesized.
    """
    if wrap.depends_on is None:
        return True
    if wrap.depends_on in sent:
        return True
    return any(w.wrap_id == wrap.depends_on for w in in_plan)


def first_sendable_dest(
    wraps: Iterable[PacketWrap], sent: set[int]
) -> int | None:
    """Destination of the oldest wrap whose dependencies are satisfied.

    Physical packets are point-to-point, so a plan targets one node; the
    fair choice is the head of the submission order.
    """
    for wrap in wraps:
        if deps_satisfied(wrap, sent):
            return wrap.dest
    return None


def reorder_by_priority(wraps: Sequence[PacketWrap]) -> list[PacketWrap]:
    """Stable priority ordering that never overtakes a pinned wrap.

    Wraps with ``allow_reorder=False`` act as barriers: the relative order
    of a barrier with *any* earlier wrap is preserved, and nothing crosses
    it.  Within each run between barriers, wraps sort by descending
    priority, ties keeping submission order (stable sort).
    """
    out: list[PacketWrap] = []
    run: list[PacketWrap] = []
    for wrap in wraps:
        if wrap.allow_reorder:
            run.append(wrap)
        else:
            run.sort(key=lambda w: -w.priority)
            out.extend(run)
            run = []
            out.append(wrap)
    run.sort(key=lambda w: -w.priority)
    out.extend(run)
    return out


class AggregateChoice:
    """Result of :func:`plan_aggregate`: which wraps go where."""

    __slots__ = ("eager", "announce")

    def __init__(self) -> None:
        self.eager: list[PacketWrap] = []     # sent as data segments now
        self.announce: list[PacketWrap] = []  # sent as rendezvous requests

    @property
    def empty(self) -> bool:
        return not self.eager and not self.announce

    def all_wraps(self) -> list[PacketWrap]:
        return self.eager + self.announce


def plan_aggregate(
    candidates: Sequence[PacketWrap],
    dest: int,
    rdv_threshold: int,
    sent: set[int],
    max_items: int | None = None,
    scan_past_blockage: bool = True,
    max_eager_bytes: int | None = None,
    max_eager_items: int | None = None,
) -> AggregateChoice:
    """Choose wraps to coalesce into one physical packet towards ``dest``.

    This is the paper's aggregation tactic: "accumulates communication
    requests as long as the cumulated length does not require to switch to
    the rendez-vous protocol" (§4).  Wraps longer than ``rdv_threshold``
    become rendezvous *announcements* — tiny control records that ride along
    with the aggregated small segments (the §5.3 datatype optimization
    coalesces small blocks "with the rendez-vous requests of the large
    blocks").

    With ``scan_past_blockage`` the tactic keeps scanning after a wrap that
    does not fit, picking up later small wraps or announcements when
    reordering is permitted — "reordered (to maximize the number of
    aggregation operations)" (§7).  Scanning stops at the first
    non-reorderable blocked wrap to honour ordering pins.

    ``max_eager_bytes`` / ``max_eager_items`` are the credit flow-control
    allowance (:meth:`~repro.core.strategy.SchedulingContext.eager_budget`):
    eager data is additionally capped below the remaining credit towards
    ``dest``.  Engine control records are credit-exempt (they carry the
    grants that replenish the budget), and a wrap the allowance excludes
    behaves exactly like one that does not fit the rendezvous budget.
    """
    if rdv_threshold <= 0:
        raise ValueError(f"bad rendezvous threshold {rdv_threshold}")
    choice = AggregateChoice()
    budget = rdv_threshold
    if max_eager_bytes is not None and max_eager_bytes < budget:
        budget = max_eager_bytes
    used = 0
    n_credit = 0  # eager wraps that will consume a credit (non-control)
    # The aggregate so far, as wrap ids: a running set (and its size) rather
    # than a fresh eager + announce list per candidate.
    planned: set[int] = set()
    blocked = False
    for wrap in candidates:
        if wrap.dest != dest:
            continue
        dep = wrap.depends_on
        if dep is not None and dep not in sent and dep not in planned:
            # Unsendable (the deps_satisfied rule, against this aggregate);
            # it also blocks later wraps unless scanning is on.
            if not scan_past_blockage:
                break
            blocked = True
            continue
        if blocked and not wrap.allow_reorder:
            # This wrap may not overtake the blocked one: stop here.
            break
        length = wrap.length
        if length > rdv_threshold:
            choice.announce.append(wrap)
        elif wrap.is_control:
            # Control records carry the replenishing grants.
            choice.eager.append(wrap)
        elif (used + length <= budget
              and (max_eager_items is None or n_credit < max_eager_items)):
            choice.eager.append(wrap)
            used += length
            n_credit += 1
        elif not scan_past_blockage:
            break
        else:
            blocked = True
            continue
        planned.add(wrap.wrap_id)
        if max_items is not None and len(planned) >= max_items:
            break
    return choice
