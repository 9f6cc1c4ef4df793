"""Unit tests for the strategy interface, registry, and shipped strategies."""

import pytest

from repro.core.data import VirtualData
from repro.core.packet import HeaderSpec, PacketWrap, RdvAckItem, SegItem
from repro.core.strategy import (
    SchedulingContext,
    SendPlan,
    Strategy,
    available_strategies,
    create,
    register,
    unregister,
)
from repro.core.strategies import (
    AdaptiveStrategy,
    AggregationStrategy,
    FifoStrategy,
    MultirailStrategy,
)
from repro.core.window import OptimizationWindow
from repro.errors import StrategyError
from repro.netsim import MX_MYRI10G


def wrap(dest=1, flow=0, tag=0, seq=0, size=100, **kw):
    return PacketWrap(dest=dest, flow=flow, tag=tag, seq=seq,
                      data=VirtualData(size), **kw)


def ctx(window, rail=0, profile=MX_MYRI10G, sent=None):
    return SchedulingContext(window=window, rail=rail, nic_profile=profile,
                             hdr=HeaderSpec(), now=0.0, src_node=0,
                             sent_wraps=sent or set())


class TestRegistry:
    def test_builtins_registered(self):
        names = available_strategies()
        assert {"fifo", "aggregation", "multirail", "adaptive"} <= set(names)

    def test_create_by_name_with_params(self):
        s = create("aggregation", by_priority=True)
        assert isinstance(s, AggregationStrategy)
        assert s.by_priority

    def test_create_unknown(self):
        with pytest.raises(StrategyError, match="unknown strategy"):
            create("quantum")

    def test_register_new_and_unregister(self):
        class MyStrategy(Strategy):
            name = "test_custom"

            def select(self, ctx):
                return None

        register(MyStrategy)
        try:
            assert isinstance(create("test_custom"), MyStrategy)
        finally:
            unregister("test_custom")
        assert "test_custom" not in available_strategies()

    def test_double_register_rejected(self):
        with pytest.raises(StrategyError, match="already registered"):
            register(FifoStrategy)

    def test_register_requires_name(self):
        class Nameless(Strategy):
            def select(self, ctx):
                return None

        with pytest.raises(StrategyError, match="non-empty name"):
            register(Nameless)

    def test_register_requires_strategy_subclass(self):
        with pytest.raises(StrategyError):
            register(dict)  # type: ignore[arg-type]


class TestSendPlanValidation:
    def test_empty_plan_rejected(self):
        win = OptimizationWindow(1)
        with pytest.raises(StrategyError):
            SendPlan(dest=1, items=[]).validate(ctx(win))

    def test_mixed_destination_rejected(self):
        win = OptimizationWindow(1)
        w = wrap(dest=2)
        item = SegItem(src=0, flow=0, tag=0, seq=0, data=w.data)
        plan = SendPlan(dest=1, items=[item], taken=[w])
        with pytest.raises(StrategyError, match="mixes destinations"):
            plan.validate(ctx(win))

    def test_oversized_aggregate_rejected(self):
        win = OptimizationWindow(1)
        big = MX_MYRI10G.rdv_threshold
        w1, w2 = wrap(size=big), wrap(size=big)
        items = [SegItem(src=0, flow=0, tag=0, seq=i, data=w.data)
                 for i, w in enumerate((w1, w2))]
        plan = SendPlan(dest=1, items=items, taken=[w1, w2])
        with pytest.raises(StrategyError, match="rendezvous"):
            plan.validate(ctx(win))


class TestFifo:
    def test_sends_one_wrap(self):
        win = OptimizationWindow(1)
        w1, w2 = wrap(seq=0), wrap(seq=1)
        win.submit(w1)
        win.submit(w2)
        plan = FifoStrategy().select(ctx(win))
        assert plan is not None
        assert plan.taken == [w1]
        assert len(plan.items) == 1

    def test_empty_window_returns_none(self):
        assert FifoStrategy().select(ctx(OptimizationWindow(1))) is None

    def test_oversized_goes_rendezvous(self):
        win = OptimizationWindow(1)
        w = wrap(size=MX_MYRI10G.rdv_threshold + 1)
        win.submit(w)
        plan = FifoStrategy().select(ctx(win))
        assert plan.announced == [w]
        assert plan.items == []

    def test_control_wrap_carries_its_item(self):
        win = OptimizationWindow(1)
        ack = RdvAckItem(src=0, handle=3)
        w = PacketWrap(dest=1, flow=-1, tag=0, seq=0, data=VirtualData(0),
                       is_control=True, control_item=ack)
        win.submit(w)
        plan = FifoStrategy().select(ctx(win))
        assert plan.items == [ack]

    def test_skips_unsendable_dependency(self):
        win = OptimizationWindow(1)
        blocked = wrap(seq=0, depends_on=99999)
        ready = wrap(seq=1)
        win.submit(blocked)
        win.submit(ready)
        plan = FifoStrategy().select(ctx(win))
        assert plan.taken == [ready]


class TestAggregation:
    def test_aggregates_across_flows(self):
        win = OptimizationWindow(1)
        wraps = [wrap(flow=i, seq=0, size=64) for i in range(8)]
        for w in wraps:
            win.submit(w)
        plan = AggregationStrategy().select(ctx(win))
        assert plan.taken == wraps
        assert len(plan.items) == 8

    def test_plans_within_the_eager_budget_it_is_handed(self):
        # The budget is a plain function on the context: no flow-control
        # layer (and no simulator) is needed to test a credit-aware plan.
        win = OptimizationWindow(1)
        wraps = [wrap(flow=i, seq=0, size=64) for i in range(8)]
        for w in wraps:
            win.submit(w)
        plan = AggregationStrategy().select(SchedulingContext(
            window=win, rail=0, nic_profile=MX_MYRI10G, hdr=HeaderSpec(),
            now=0.0, src_node=0, eager_budget=lambda dest: (200, 5)))
        assert plan.taken == wraps[:3]        # 3 x 64B fit in 200B
        assert len(win) == 8                  # a plan takes nothing

    def test_one_destination_per_packet(self):
        win = OptimizationWindow(1)
        to1 = wrap(dest=1, size=64)
        to2 = wrap(dest=2, size=64)
        win.submit(to1)
        win.submit(to2)
        plan = AggregationStrategy().select(ctx(win))
        assert plan.dest == 1
        assert plan.taken == [to1]

    def test_announces_in_same_plan_as_smalls(self):
        # The Figure-4 schedule: small blocks + rendezvous requests of
        # large blocks in one physical packet.
        win = OptimizationWindow(1)
        small = wrap(size=64, seq=0)
        big = wrap(size=256 * 1024, seq=1)
        small2 = wrap(size=64, seq=2)
        for w in (small, big, small2):
            win.submit(w)
        plan = AggregationStrategy().select(ctx(win))
        assert plan.taken == [small, small2]
        assert plan.announced == [big]

    def test_priority_mode_reorders(self):
        win = OptimizationWindow(1)
        low = wrap(seq=0, priority=0, size=64)
        high = wrap(seq=1, priority=9, size=64)
        win.submit(low)
        win.submit(high)
        plan = AggregationStrategy(by_priority=True).select(ctx(win))
        # Both still aggregate; the high-priority one leads the packet.
        assert plan.taken == [high, low]

    def test_max_items_validation(self):
        with pytest.raises(ValueError):
            AggregationStrategy(max_items=0)

    def test_describe(self):
        assert AggregationStrategy().describe() == "aggregation"
        assert "by_priority" in AggregationStrategy(by_priority=True).describe()

    def test_empty_window(self):
        assert AggregationStrategy().select(ctx(OptimizationWindow(1))) is None

    def test_threshold_respected_under_scan(self):
        win = OptimizationWindow(1)
        thr = MX_MYRI10G.rdv_threshold
        for i in range(5):
            win.submit(wrap(seq=i, size=thr // 2))
        plan = AggregationStrategy().select(ctx(win))
        payload = sum(w.length for w in plan.taken)
        assert payload <= thr
        assert len(plan.taken) == 2


class TestMultirail:
    def test_is_aggregation_with_bulk_split(self):
        s = MultirailStrategy()
        assert isinstance(s, AggregationStrategy)
        assert s.multirail_bulk is True
        assert Strategy.multirail_bulk is False   # declared once, on the base
        assert AdaptiveStrategy().multirail_bulk is False


class TestAdaptive:
    def test_uses_fifo_under_watermark(self):
        win = OptimizationWindow(1)
        win.submit(wrap(size=64))
        s = AdaptiveStrategy(backlog_watermark=2)
        plan = s.select(ctx(win))
        assert plan is not None
        assert s.fifo_pulls == 1 and s.agg_pulls == 0

    def test_uses_aggregation_over_watermark(self):
        win = OptimizationWindow(1)
        for i in range(4):
            win.submit(wrap(seq=i, size=64))
        s = AdaptiveStrategy(backlog_watermark=2)
        plan = s.select(ctx(win))
        assert len(plan.taken) == 4
        assert s.agg_pulls == 1

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            AdaptiveStrategy(backlog_watermark=0)

    def test_describe(self):
        assert "watermark=2" in AdaptiveStrategy().describe()
