"""The transfer layer.

Paper §3.3: "The transfer layer mimics a process scheduler, which when
called by a processor, will select the new ready process to be run.
Indeed, the transfer layer controls the activities of the NICs, and
requests from the upper layer a new optimized packet to be sent, as soon as
a card becomes idle."

Per NIC, the layer registers an idle hook and a receive handler.  On idle
(or on a kick from the collect layer while the card was already idle) it
*pulls*:

1. ask the active strategy for a plan over the optimization window;
2. otherwise stream the next granted rendezvous bulk chunk;
3. otherwise leave the card idle — the next submit will kick it.

The pull path charges the engine's critical-path costs (paper §5.1: the
scheduler's "extra operations on the critical path to inspect the 'ready
list'"): a fixed per-pull cost plus a per-MTU data-path cost, both folded
into the frame's ``cpu_gap``.  When the NIC lacks gather/scatter, building
an aggregate additionally pays a host copy per extra segment (paper §2's
"accumulate packets in order to make use of some gather/scatter
capabilities" — without the capability the accumulation is paid in copies).

The layer is also both ends of the opt-in frame pipeline
(``engine.layers``, see :meth:`TransferLayer.transmit` /
:meth:`TransferLayer.receive`) and the owner of rail health: every
configuration schedules on rails, only the reliability layer ever takes
one out of service.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from functools import partial
from typing import TYPE_CHECKING

from repro.core.matching import Incoming
from repro.core.packet import (
    CancelItem,
    PhysPacket,
    RdvAckItem,
    RdvDataItem,
    RdvReqItem,
    SegItem,
    WireItem,
)
from repro.core.strategy import SchedulingContext, SendPlan
from repro.errors import ProtocolError
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.nic import Nic
from repro.sim import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine
    from repro.core.protocols import Layer
    from repro.core.rendezvous import RdvSendState

__all__ = ["TransferLayer"]


class TransferLayer:
    """Drives every NIC of one node on behalf of the engine."""

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        self.nics = list(engine.node.nics)
        self._source = f"node{engine.node_id}.transfer"
        # Data-path inspection cost per MTU, fixed per rail (frozen params,
        # fixed driver): looked up once instead of once per packet.
        self._per_mtu_cost = [engine.params.per_mtu_cost(nic.profile)
                              for nic in self.nics]
        self.sent_wraps: set[int] = set()
        #: Rails taken out of service (always empty in paper mode).
        self.quarantined: set[int] = set()
        self._pull_pending = [False] * len(self.nics)
        # One pull thunk and one reusable SchedulingContext per rail: the
        # pull path runs once per NIC refill (the paper's §5.1 critical-path
        # cost), so it should not rebuild a closure and a context object
        # every time.
        self._pull_fns = [partial(self._pull, rail)
                          for rail in range(len(self.nics))]
        self._contexts: list[SchedulingContext | None] = \
            [None] * len(self.nics)
        # Paper §3.2's second/third dispatch policies: at most one plan is
        # prepared while every NIC is busy.  It is only a plan: its wraps
        # stay in the window, nothing is spent, until a NIC takes it.
        self._anticipated: SendPlan | None = None
        # Off in the paper's default policy: then no packet pays a call
        # into _maybe_prepare just to learn that.
        self._anticipates = engine.params.dispatch_policy != "on_idle"
        for nic in self.nics:
            nic.add_idle_callback(self._on_idle, wanted=self._wants_idle)
            nic.set_receive_handler(partial(self.receive, nic.rail))

    @property
    def has_anticipated(self) -> bool:
        """True when a prepared plan is waiting for a NIC."""
        return self._anticipated is not None

    # -- rail health ----------------------------------------------------------
    def rail_ok(self, rail: int) -> bool:
        """May work still be scheduled on this rail (not quarantined)?"""
        return rail not in self.quarantined

    def quarantine(self, rail: int) -> None:
        """Take ``rail`` out of service; its granted bulk re-homes."""
        self.quarantined.add(rail)
        healthy = [r for r in range(len(self.nics))
                   if r not in self.quarantined]
        if healthy:
            self.engine.rendezvous.reroute_rail(rail, healthy[0])
        self.kick()

    def readmit(self, rail: int) -> None:
        """Put a quarantined rail back into the candidate set."""
        self.quarantined.discard(rail)
        self.kick()

    def choose_rail(self, peer: int, prefer: int = 0) -> int:
        """Least-congested healthy rail with a path to ``peer``.

        Congestion-aware shortest-queue choice: each candidate rail is
        scored by its NIC's tx occupancy (queued frames, +1 while the card
        is busy serializing) with the optimization window's O(1) pending-
        byte index as the tie-break.  ``prefer`` stays sticky unless some
        other rail is *strictly* less congested, so the uncontended case
        behaves exactly like a boolean health check.
        """
        candidates = [r for r, nic in enumerate(self.nics)
                      if r not in self.quarantined and nic.has_peer(peer)]
        if not candidates:
            return prefer  # no healthy alternative: keep trying where we were
        if len(candidates) == 1:
            return candidates[0]
        best = min(candidates, key=self.rail_score)
        if prefer in candidates:
            if self.rail_score(best) < self.rail_score(prefer):
                return best
            return prefer
        return best

    def rail_score(self, rail: int) -> tuple[int, int]:
        """Queue-depth congestion score for one rail (lower is better)."""
        nic = self.nics[rail]
        depth = nic.queued + (0 if nic.idle else 1)
        return depth, self.engine.window.pending_bytes(rail)

    # -- refill machinery -----------------------------------------------------
    def kick(self) -> None:
        """New work exists: schedule a pull on every currently idle NIC."""
        if self.engine.halted:
            return
        any_idle = False
        schedule = self.engine.sim.schedule
        quarantined = self.quarantined
        pending = self._pull_pending
        for nic in self.nics:
            rail = nic.rail
            if rail in quarantined:
                continue
            if nic.idle and not pending[rail]:
                pending[rail] = True
                schedule(0.0, self._pull_fns[rail])
                any_idle = True
        if not any_idle and self._anticipates:
            self._maybe_prepare()

    def _on_idle(self, nic: Nic) -> None:
        self._pull(nic.rail)

    def _wants_idle(self) -> bool:
        """Could a pull at this idle edge do anything at all?

        Only with wraps in the window, a prepared plan to hand over (or, if
        it lapsed, to clear) or granted bulk to stream.  Work that arrives
        later needs no edge: whatever brings it calls :meth:`kick`, which
        schedules the pull itself on an idle NIC.
        """
        engine = self.engine
        return (not engine.window.empty or self._anticipated is not None
                or engine.rendezvous.n_granted > 0)

    def _anticipation_rail(self) -> int:
        """Rail whose threshold a prepared aggregate must respect.

        A prepared packet may be handed to *any* NIC later, so it is sized
        against the most restrictive (smallest) rendezvous threshold.
        """
        rails = [r for r in range(len(self.nics)) if self.rail_ok(r)]
        if not rails:
            rails = list(range(len(self.nics)))
        return min(rails, key=lambda r: self.nics[r].profile.rdv_threshold)

    def _context(self, rail: int) -> SchedulingContext:
        # All context fields except the clock are fixed per rail for the
        # lifetime of the engine (sent_wraps is the live set object), so the
        # context is built once per rail and only ``now`` is refreshed.
        ctx = self._contexts[rail]
        if ctx is None:
            ctx = SchedulingContext(
                window=self.engine.window,
                rail=rail,
                nic_profile=self.nics[rail].profile,
                hdr=self.engine.params.hdr,
                now=self.engine.sim.now,
                src_node=self.engine.node_id,
                sent_wraps=self.sent_wraps,
            )
            fc = self.engine.flowcontrol
            if fc is not None:
                ctx.eager_budget = fc.planning_budget
            self._contexts[rail] = ctx
        else:
            ctx.now = self.engine.sim.now
        return ctx

    def _maybe_prepare(self) -> None:
        """Pre-synthesize one ready-to-send packet (anticipation policies)."""
        params = self.engine.params
        if self._anticipated is not None:
            return
        if any(nic.idle and self.rail_ok(nic.rail) for nic in self.nics):
            return  # an idle NIC will pull directly
        if (params.dispatch_policy == "backlog"
                and len(self.engine.window) < params.backlog_flush_threshold):
            return
        rail = self._anticipation_rail()
        ctx = self._context(rail)
        plan = self.engine.strategy.select(ctx)
        if plan is None:
            return
        plan.validate(ctx)
        self._anticipated = plan
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.engine.sim.now, self._source, "anticipate",
                        dest=plan.dest,
                        items=len(plan.items) + len(plan.announced))

    def _pull(self, rail: int) -> None:
        self._pull_pending[rail] = False
        engine = self.engine
        if engine.halted:
            return  # a pull scheduled just before the crash landed
        nic = self.nics[rail]
        if not nic.idle or rail in self.quarantined:
            return
        params = engine.params
        plan = self._anticipated
        if plan is not None:
            self._anticipated = None
            window = engine.window
            # A prepared plan commits nothing: if a cancel, a deadline or a
            # peer teardown took one of its wraps meanwhile, it lapses and
            # this pull elects afresh.
            if all(w in window for w in plan.taken + plan.announced):
                # "Immediately re-feed it once it becomes idle" (paper §3.2).
                engine.stats.anticipated_hits += 1
                self._post_packet(nic, plan, self._materialize(plan, rail),
                                  pull_cost=params.anticipated_pull_cost_us)
                return
        # The idle edge after the last packet finds the window empty: there
        # is nothing to elect (or hold), so no context is built and the
        # strategy is not consulted — only granted bulk can still flow.
        ctx = None
        if not engine.window.empty:
            ctx = self._context(rail)
            plan = engine.strategy.select(ctx)
            if plan is not None:
                plan.validate(ctx)
                items = self._materialize(plan, rail)
                self._post_packet(nic, plan, items,
                                  pull_cost=params.pull_cost_us)
                return
        bulk = engine.rendezvous.next_chunk(
            rail, engine.strategy.multirail_bulk)
        if bulk is not None:
            state, item = bulk
            self._send_bulk(nic, state, item)
            return
        if ctx is None:
            return
        # Nothing elected: a bandwidth-favoring strategy may be holding the
        # window on purpose — honour its deadline with a future re-pull.
        deadline = engine.strategy.hold_until(ctx)
        if deadline is not None and not self._pull_pending[rail]:
            self._pull_pending[rail] = True
            delay = max(0.0, deadline - engine.sim.now)
            engine.sim.schedule(delay, self._pull_fns[rail])

    # -- sending --------------------------------------------------------------
    def _materialize(self, plan: SendPlan, rail: int) -> list[WireItem]:
        """Apply a plan, now that the NIC on ``rail`` takes its packet:
        remove the wraps from the window, build the wire items."""
        engine = self.engine
        for wrap in plan.taken + plan.announced:
            engine.window.take(wrap)
        for layer in engine.layers:
            layer.commit(plan)
        items = list(plan.items)
        for wrap in plan.announced:
            items.append(engine.rendezvous.announce(wrap, rail=rail))
        return items

    def _post_packet(self, nic: Nic, plan: SendPlan, items: list,
                     pull_cost: float) -> None:
        engine = self.engine
        params = engine.params
        pkt = PhysPacket(items)
        wire, payload, n_segments = pkt.sizes(params.hdr)
        gather_cost = 0.0
        if n_segments > 1 and not nic.profile.gather_scatter:
            # No hardware gather: the host stages the aggregate with one
            # copy per segment.
            gather_cost = engine.node.memory.pack_time(
                i.data.nbytes for i in items if isinstance(i, SegItem)
            )
        cpu_gap = (
            pull_cost
            + self._per_mtu_cost[nic.rail]
              * math.ceil(max(wire, 1) / nic.profile.mtu_bytes)
            + gather_cost
        )
        frame = Frame(engine.node_id, plan.dest, FrameKind.DATA, wire, pkt,
                      payload)
        stats = engine.stats
        stats.phys_packets += 1
        stats.items_sent += len(items)
        stats.eager_bytes += payload
        stats.wire_bytes += wire
        if n_segments > 1:
            stats.aggregated_packets += 1
            stats.aggregated_segments += n_segments
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(engine.sim.now, self._source, "send_plan",
                        rail=nic.rail, dest=plan.dest, items=len(items),
                        wire=wire)
        self.transmit(
            nic, frame, cpu_gap,
            on_delivered=partial(self._plan_sent, plan),
            on_failed=partial(self._plan_failed, plan, items),
        )
        if self._anticipates:
            # The NIC just went busy: start preparing the next packet off
            # the critical path right away.
            self._maybe_prepare()

    def _plan_sent(self, plan: SendPlan) -> None:
        for wrap in plan.taken:
            self.sent_wraps.add(wrap.wrap_id)
            if wrap.completion is not None:
                wrap.completion.settle()
        for wrap in plan.announced:
            # The announcement left the node; ordering dependencies on this
            # wrap are satisfied (delivery order is restored by the matcher).
            self.sent_wraps.add(wrap.wrap_id)

    def _plan_failed(self, plan: SendPlan, items: list,
                     exc: BaseException) -> None:
        """A pipeline layer gave up on this packet's frame."""
        for wrap in plan.taken:
            if wrap.completion is not None:
                wrap.completion.settle(exc)
        for item in items:
            if isinstance(item, RdvReqItem):
                # The announcement never reached the peer: fail the big send.
                self.engine.rendezvous.abort(item.handle, exc)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.engine.sim.now, self._source, "plan_failed",
                        dest=plan.dest, items=len(items))

    def _send_bulk(self, nic: Nic, state: RdvSendState,
                   item: RdvDataItem) -> None:
        engine = self.engine
        params = engine.params
        pkt = PhysPacket([item])
        wire, nbytes, _ = pkt.sizes(params.hdr)
        cpu_gap = (
            params.pull_cost_us
            + self._per_mtu_cost[nic.rail]
              * math.ceil(wire / nic.profile.mtu_bytes)
        )
        frame = Frame(engine.node_id, state.wrap.dest, FrameKind.RDV_DATA,
                      wire, pkt, nbytes)
        engine.stats.phys_packets += 1
        engine.stats.items_sent += 1
        engine.stats.rdv_bytes += nbytes
        engine.stats.wire_bytes += wire
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(engine.sim.now, self._source, "send_bulk",
                        rail=nic.rail, dest=state.wrap.dest,
                        offset=item.offset, nbytes=nbytes)
        self.transmit(
            nic, frame, cpu_gap,
            on_delivered=partial(engine.rendezvous.chunk_sent, state, item),
            on_failed=partial(engine.rendezvous.chunk_failed, state, item),
        )

    # -- the frame pipeline -------------------------------------------------------
    def transmit(
        self,
        nic: Nic,
        frame: Frame,
        cpu_gap_us: float = 0.0,
        on_delivered: Callable[[], None] | None = None,
        on_failed: Callable[[BaseException], None] | None = None,
        after: Layer | None = None,
    ) -> None:
        """Run ``frame`` through the transmit hooks and post it on ``nic``.

        ``after`` is how a layer injects a frame of its own: only the
        stages behind it run.  A layer that takes the frame over owns the
        callbacks; if none does, ``on_delivered`` fires at tx completion
        (the paper's "data left the node") and ``on_failed`` never.
        """
        layers = self.engine.tx_layers
        if after is not None:
            layers = layers[layers.index(after) + 1:]
        for layer in layers:
            if layer.send(nic, frame, cpu_gap_us, on_delivered, on_failed):
                return
        done = nic.post_send(frame, cpu_gap_us=cpu_gap_us)
        if on_delivered is not None:
            done.add_callback(partial(self._tx_done, on_delivered))

    @staticmethod
    def _tx_done(on_delivered: Callable[[], None], _evt: Event) -> None:
        on_delivered()

    def receive(self, rail: int, frame: Frame) -> None:
        """NIC upcall: every arrival enters the engine here."""
        if frame.corrupted:
            # The checksum the sender appended does not match: discard like
            # a loss (in ack mode the retransmit timer recovers it; in off
            # mode the stall is the loud surface the tests demand).
            self.engine.stats.corrupt_discards += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(self.engine.sim.now, self._source, "rx_corrupt",
                            frame=frame.frame_id, rail=rail)
            return
        for layer in self.engine.layers:
            if not layer.on_frame(rail, frame):
                return
        self.demux_frame(rail, frame)

    def demux_frame(self, rail: int, frame: Frame) -> None:
        pkt = frame.payload
        if not isinstance(pkt, PhysPacket):
            raise ProtocolError(
                f"node{self.engine.node_id}: non-engine frame {frame!r} on "
                "an engine-managed NIC"
            )
        # Decoding the multiplexing header and walking the item list costs
        # host CPU — part of the paper's 5.1 overhead.  Items dispatch in
        # order after a per-packet cost plus a per-item increment.
        params = self.engine.params
        delay = params.demux_packet_cost_us
        item_cost = params.demux_item_cost_us
        schedule = self.engine.sim.schedule
        dispatch = self._dispatch_item
        for item in pkt.items:
            delay += item_cost
            schedule(delay, partial(dispatch, item))

    def _dispatch_item(self, item: WireItem) -> None:
        engine = self.engine
        if engine.halted:
            return  # demuxed just before the crash; the item dies with us
        now = engine.sim.now
        if isinstance(item, SegItem):
            engine.matcher.deliver(
                Incoming(item.src, item.flow, item.tag, item.seq,
                         item.data.nbytes, item), now)
        elif isinstance(item, RdvReqItem):
            engine.matcher.deliver(
                Incoming(item.src, item.flow, item.tag, item.seq,
                         item.nbytes, item), now)
        elif isinstance(item, CancelItem):
            engine.matcher.deliver(
                Incoming(item.src, item.flow, item.tag, item.seq, 0, None,
                         is_skip=True), now)
        elif isinstance(item, RdvAckItem):
            self.engine.rendezvous.on_ack(item)
        elif isinstance(item, RdvDataItem):
            self.engine.rendezvous.on_data(item)
        else:
            raise ProtocolError(
                f"node{self.engine.node_id}: unknown wire item "
                f"{type(item).__name__}"
            )
