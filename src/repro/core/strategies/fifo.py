"""FIFO strategy: direct mapping, no optimization.

One submitted request becomes one physical packet, in submission order —
the behaviour of a classical synchronous communication library (and of the
baselines for non-datatype traffic).  Shipped mainly as the ablation
reference: running the engine with ``fifo`` isolates exactly what the
optimization window buys.
"""

from __future__ import annotations


from repro.core.packet import SegItem
from repro.core.strategy import SchedulingContext, SendPlan, Strategy, register
from repro.core.tactics import deps_satisfied

__all__ = ["FifoStrategy"]


@register
class FifoStrategy(Strategy):
    """Send the oldest sendable wrap, alone; oversized wraps go rendezvous."""

    name = "fifo"

    def select(self, ctx: SchedulingContext) -> SendPlan | None:
        # Lazy head scan: terminates at the first sendable wrap, so the
        # direct-mapping pull stays O(1) unless dependency chains block the
        # list head.
        for wrap in ctx.window.eligible(ctx.rail):
            if not deps_satisfied(wrap, ctx.sent_wraps):
                continue
            if wrap.control_item is not None:
                return SendPlan(dest=wrap.dest, items=[wrap.control_item],
                                taken=[wrap])
            if wrap.length > ctx.rdv_threshold:
                return SendPlan(dest=wrap.dest, items=[], announced=[wrap])
            # Partial credit: a destination not (yet) blocked may still lack
            # the credit for this wrap — skip it and try later traffic.
            max_bytes, max_wraps = ctx.eager_budget(wrap.dest)
            if (max_bytes is not None and max_wraps is not None
                    and (wrap.length > max_bytes or max_wraps < 1)):
                continue
            item = SegItem(ctx.src_node, wrap.flow, wrap.tag, wrap.seq,
                           wrap.data)
            return SendPlan(wrap.dest, [item], [wrap])
        return None
