"""Adaptive strategy (extension beyond the paper's two shipped strategies).

Paper §3.2 closes with three dispatch policies the engine could use and
leaves choosing between optimization functions as future work ("dynamically
[selectable] in the future").  This strategy is a small concrete step in
that direction: it watches the backlog and uses the cheap direct path when
the window holds a single request (nothing to optimize — don't pay the
aggregation scan), switching to full aggregation as soon as a real backlog
builds up.
"""

from __future__ import annotations

from typing import Any

from repro.core.strategies.aggregation import AggregationStrategy
from repro.core.strategies.fifo import FifoStrategy
from repro.core.strategy import SchedulingContext, SendPlan, Strategy, register

__all__ = ["AdaptiveStrategy"]


@register
class AdaptiveStrategy(Strategy):
    """Direct mapping under light load, aggregation under backlog."""

    name = "adaptive"
    #: Window backlog (wraps) from which a pull aggregates: below it there
    #: is a single request and nothing to optimize.
    BACKLOG_WATERMARK = 2

    def __init__(self, **agg_params: Any) -> None:
        self._fifo = FifoStrategy()
        self._agg = AggregationStrategy(**agg_params)
        # Exposed for tests/reports: how often each mode ran.
        self.fifo_pulls = 0
        self.agg_pulls = 0

    def select(self, ctx: SchedulingContext) -> SendPlan | None:
        # backlog() reads the window's incrementally-maintained wrap count,
        # so the mode decision itself costs O(1) per pull.
        if ctx.window.backlog() < self.BACKLOG_WATERMARK:
            self.fifo_pulls += 1
            return self._fifo.select(ctx)
        self.agg_pulls += 1
        return self._agg.select(ctx)

    def describe(self) -> str:
        return f"{self.name}(watermark={self.BACKLOG_WATERMARK})"
