"""Aggregation strategy — the paper's headline optimization.

Paper §4: "an aggregation [strategy] which accumulates communication
requests as long as the cumulated length does not require to switch to the
rendez-vous protocol", and §5.2: the "aggressive optimizer ... is able to
coalesce packets even if they belong to different logical communication
flows (i.e. MPI communicators)".

This strategy synthesizes one physical packet per idle-NIC pull by walking
the eligible window in submission order (optionally priority-reordered) and
taking every wrap towards the chosen destination that keeps the aggregate
under the NIC's rendezvous threshold.  Oversized wraps become rendezvous
announcements that ride in the same physical packet — which is what makes
the §5.3 derived-datatype schedule work (small blocks coalesced "with the
rendez-vous requests of the large blocks").
"""

from __future__ import annotations


from repro.core.packet import SegItem, WireItem
from repro.core.strategy import SchedulingContext, SendPlan, Strategy, register
from repro.core.tactics import (
    first_sendable_dest,
    plan_aggregate,
    reorder_by_priority,
)

__all__ = ["AggregationStrategy"]


@register
class AggregationStrategy(Strategy):
    """Coalesce small requests; announce large ones; one packet per pull.

    Parameters
    ----------
    by_priority:
        Reorder eligible wraps by the application's priority hints before
        aggregating (respecting ``allow_reorder`` pins).  This is the
        "favor an earlier delivery of high priority fragments" behaviour of
        paper §2 (the RPC service-id example).
    scan_past_blockage:
        Keep scanning for aggregable wraps after one did not fit (paper §7:
        reorder "to maximize the number of aggregation operations").
    max_items:
        Optional cap on records per physical packet (models a bounded
        gather/scatter descriptor list on real NICs).
    """

    name = "aggregation"

    def __init__(
        self,
        by_priority: bool = False,
        scan_past_blockage: bool = True,
        max_items: int | None = None,
    ) -> None:
        if max_items is not None and max_items < 1:
            raise ValueError(f"max_items must be >= 1, got {max_items}")
        self.by_priority = by_priority
        self.scan_past_blockage = scan_past_blockage
        self.max_items = max_items

    def select(self, ctx: SchedulingContext) -> SendPlan | None:
        if self.by_priority:
            # Priority reordering is a global permutation of the eligible
            # list, so it has to see every wrap.
            candidates = reorder_by_priority(list(ctx.window.eligible(ctx.rail)))
            dest = first_sendable_dest(candidates, ctx.sent_wraps)
        else:
            # Submission order: elect the destination from the list head,
            # then aggregate over the per-destination index only — queued
            # traffic towards other nodes is never scanned.
            dest = first_sendable_dest(
                ctx.window.eligible(ctx.rail), ctx.sent_wraps)
            if dest is None:
                return None
            candidates = ctx.window.eligible_for_dest(ctx.rail, dest)
        if dest is None:
            return None
        # Remaining credit towards the elected destination (None, None when
        # flow control is off): the aggregate stays within the allowance so
        # a partially-credited destination is never overdrawn.
        max_eager_bytes, max_eager_items = ctx.eager_budget(dest)
        choice = plan_aggregate(
            candidates,
            dest=dest,
            rdv_threshold=ctx.rdv_threshold,
            sent=ctx.sent_wraps,
            max_items=self.max_items,
            scan_past_blockage=self.scan_past_blockage,
            max_eager_bytes=max_eager_bytes,
            max_eager_items=max_eager_items,
        )
        if choice.empty:
            return None
        items: list[WireItem] = []
        src = ctx.src_node
        for wrap in choice.eager:
            if wrap.control_item is not None:
                items.append(wrap.control_item)
            else:
                items.append(SegItem(src, wrap.flow, wrap.tag, wrap.seq,
                                     wrap.data))
        return SendPlan(dest, items, choice.eager, choice.announce)

    def describe(self) -> str:
        opts = []
        if self.by_priority:
            opts.append("by_priority")
        if not self.scan_past_blockage:
            opts.append("no_scan")
        if self.max_items is not None:
            opts.append(f"max_items={self.max_items}")
        return f"{self.name}({', '.join(opts)})" if opts else self.name
