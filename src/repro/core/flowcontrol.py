"""Optional overload protection: receive-side credit flow control.

The paper's engine assumes a well-behaved peer: eager traffic is pushed
as fast as the NICs allow and lands in the receiver's unexpected-message
state without bound.  The default ``EngineParams.flow_control="off"``
keeps that paper-faithful behaviour (this layer is then not constructed
and received frames pass straight to the demultiplexer).
This module is the opt-in hardening layer (``flow_control="credit"``)
that bounds both ends of an eager stream:

* each peer holds a **credit budget** for eager traffic towards us
  (:data:`CREDIT_BYTES` payload bytes and :data:`CREDIT_WRAPS` packet
  wraps);
* the sender **consumes** credit when a strategy commits an eager wrap
  to a physical packet; a destination whose budget is exhausted is
  **blocked** in the optimization window — wraps keep accumulating, but
  no pull elects them, and the per-destination index answers
  ``eligible_for_dest`` for a blocked destination in O(1);
* the receiver **releases** credit when the application consumes a
  message, and advertises releases as cumulative
  ``(released_bytes_total, released_wraps_total)`` grants, piggybacked
  on any reverse frame (``fc_grant``, ``credit_header`` wire bytes),
  standalone acks included;
* a release arms a :class:`~repro.sim.Timer` per ledger: if no reverse
  frame carried the grant within :data:`CREDIT_GRANT_DELAY_US` (half the
  measured RTT, when there is one), the grant goes out on the ack the
  reliability layer owes the peer, sent early
  (:meth:`~repro.core.reliability.ReliabilityLayer.flush_ack`), as TCP
  puts the window update in the ack.  Only when no ack is owed (a late
  receive releasing credit after its data was acked, or
  ``reliability="off"``) does a standalone ``credit`` frame go out;
* cumulative totals make grants **idempotent**: a duplicated, reordered
  or retransmitted grant applies as a componentwise max, so the layer
  composes with ``reliability="ack"`` without extra state.  A lost
  grant-bearing ack needs no timer of its own: the ack was owed for a
  frame the peer retransmits until acked, and the duplicate is answered
  at once by an ack carrying the cumulative grant again.

The budget is also the receiver's memory bound.  Credit is spent when a
packet commits and released only when the message matches, so a sender
never has more than :data:`CREDIT_BYTES` of eager payload buffered
unexpected at a receiver: at most ``(peers - 1) * CREDIT_BYTES`` in all.

Rendezvous traffic is credit-exempt: announcements are tiny control
records, and the bulk data only flows after the receiver granted it —
that grant *is* the large-message flow control.  Engine control wraps
(grants, acks, tombstones) are likewise exempt; blocking those would
deadlock the very protocols that release credit.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING

from repro.core.packet import SegItem
from repro.core.protocols import Layer, PeerTable, counter, knob
from repro.errors import MpiError
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.nic import Nic
from repro.sim import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.matching import Incoming
    from repro.core.engine import NmadEngine
    from repro.core.strategy import SendPlan

__all__ = ["FlowControlLayer", "FlowControlParams", "FlowControlStats",
           "CREDIT_BYTES", "CREDIT_WRAPS", "CREDIT_GRANT_DELAY_US"]

#: Per-peer eager credit budget: payload bytes and wrap count a sender may
#: have outstanding (unconsumed by the receiving application).  The bytes
#: must hold one maximal eager segment (the largest rendezvous threshold
#: of the engine's rails), which the layer checks at construction.
CREDIT_BYTES = 256 * 1024
CREDIT_WRAPS = 256
#: Reverse-silence window before a pending grant goes out on the owed ack,
#: or on a standalone credit frame (grants otherwise piggyback on any
#: reverse frame).
CREDIT_GRANT_DELAY_US = 25.0
#: Frame kinds :meth:`FlowControlLayer.accept` absorbs.
_CONTROL_KINDS = frozenset({FrameKind.CREDIT, FrameKind.REL_ACK})


@dataclass(frozen=True)
class FlowControlParams:
    """Flow-control knobs (``EngineParams`` inherits them)."""

    #: Overload protection.  The paper's engine assumes well-behaved peers
    #: and unbounded buffering, so ``"off"`` is the default and keeps every
    #: benchmark figure bit-identical; ``"credit"`` turns on receive-side
    #: credit flow control for eager traffic (rendezvous traffic is
    #: self-paced by its grant).
    flow_control: str = knob("off", choices=("off", "credit"))


@dataclass
class FlowControlStats:
    """Overload-protection counters (``EngineStats`` inherits them)."""

    credit_stalls: int = counter("flow_control")    # dest became credit-blocked
    credits_granted: int = counter("flow_control")  # grants of released credit
    # Always 0; kept because benchmarks/macro/one_run.py reads it by name.
    nacks_sent: int = counter("flow_control")


class _PeerCredit:
    """Both directions of the credit state towards one peer.

    All byte/wrap totals are cumulative and monotonic.  Outstanding credit
    towards the peer is ``sent_* - peer_released_*``; the budget the peer
    still allows is the configured budget minus that difference.
    """

    __slots__ = (
        "peer",
        # Transmit half: what we consumed, and what the peer released.
        "sent_bytes_total", "sent_wraps_total",
        "peer_released_bytes", "peer_released_wraps",
        "blocked",
        # Receive half: what we released, and what we last advertised.
        "released_bytes_total", "released_wraps_total",
        "adv_bytes", "adv_wraps",
        "grant_timer",
    )

    def __init__(self, peer: int, layer: FlowControlLayer) -> None:
        self.peer = peer
        self.sent_bytes_total = 0
        self.sent_wraps_total = 0
        self.peer_released_bytes = 0
        self.peer_released_wraps = 0
        self.blocked = False
        self.released_bytes_total = 0
        self.released_wraps_total = 0
        self.adv_bytes = 0
        self.adv_wraps = 0
        #: Armed while a released grant waits for a reverse frame to carry it.
        self.grant_timer = Timer(layer.sim, partial(layer._send_credit, self))


class FlowControlLayer(Layer):
    """Per-engine credit accounting and grant generation.

    Only constructed in ``flow_control="credit"`` mode: the last stage on
    the receive path (:meth:`accept`), the first on the transmit path
    (:meth:`send` stamps the grant), and the one layer with plan-level
    work (:meth:`commit` / :meth:`on_match`).
    """

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.params = engine.params
        self.nics = list(engine.node.nics)
        # Wraps above the largest rendezvous threshold never travel eagerly
        # (any rail would announce them), so credit gating exempts them —
        # and a maximal eager segment must fit the budget, or it could
        # never be sent at all.
        exempt_floor = max(n.profile.rdv_threshold for n in self.nics)
        if CREDIT_BYTES < exempt_floor:
            raise MpiError(
                f"{engine.node.name}: CREDIT_BYTES={CREDIT_BYTES} "
                f"is smaller than the largest rendezvous threshold "
                f"({exempt_floor}B); a maximal eager segment could never "
                "be sent"
            )
        engine.window.gate_eager(exempt_floor)
        engine.transfer.eager_budget = self.planning_budget
        self._peers = PeerTable(partial(_PeerCredit, layer=self))
        self._name = f"node{engine.node_id}.flowcontrol"

    # -- transmit side: consuming credit ------------------------------------
    def commit(self, plan: SendPlan) -> None:
        """Spend credit for the eager wraps of a packet a NIC took, once for
        the packet: they all go to ``plan.dest``.

        Announced (rendezvous) wraps are exempt — the grant protocol paces
        them end to end.
        """
        eager = [w.length for w in plan.taken if not w.is_control]
        if eager:
            self.consume(plan.dest, sum(eager), len(eager))

    def consume(self, dest: int, nbytes: int, nwraps: int = 1) -> None:
        """``nwraps`` eager wraps towards ``dest``, ``nbytes`` in all, were
        committed to a packet."""
        st = self._peers[dest]
        st.sent_bytes_total += nbytes
        st.sent_wraps_total += nwraps
        self._update_gate(st)

    def planning_budget(self, dest: int) -> tuple[int | None, int | None]:
        """Remaining eager ``(bytes, wraps)`` allowance towards ``dest``."""
        st = self._peers.get(dest)
        if st is None:
            return (CREDIT_BYTES, CREDIT_WRAPS)
        return (
            max(0, CREDIT_BYTES
                - (st.sent_bytes_total - st.peer_released_bytes)),
            max(0, CREDIT_WRAPS
                - (st.sent_wraps_total - st.peer_released_wraps)),
        )

    def _update_gate(self, st: _PeerCredit) -> None:
        """Block or unblock ``st.peer`` to match its outstanding credit.

        Runs once per committed packet: spending within a packet only grows
        the outstanding total, so the transitions are a per-wrap check's,
        but a ``credit_stall`` record's ``outstanding`` is the total after
        the packet, not after the wrap that tipped it.
        """
        exhausted = (
            st.sent_bytes_total - st.peer_released_bytes >= CREDIT_BYTES
            or st.sent_wraps_total - st.peer_released_wraps >= CREDIT_WRAPS
        )
        if exhausted and not st.blocked:
            st.blocked = True
            self.engine.window.block_dest(st.peer)
            self.engine.stats.credit_stalls += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(
                    self.sim.now, self._name, "credit_stall", peer=st.peer,
                    outstanding=st.sent_bytes_total - st.peer_released_bytes)
        elif not exhausted and st.blocked:
            st.blocked = False
            self.engine.window.unblock_dest(st.peer)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now, self._name,
                            "credit_resume", peer=st.peer)
            self.engine.transfer.kick()

    # -- receive path --------------------------------------------------------
    def accept(self, rail: int, frame: Frame) -> bool:
        """Apply the piggybacked grant; absorb credit frames and the
        grant-bearing acks the reliability layer passes on."""
        if frame.fc_grant is not None:
            self._apply_grant(frame.src_node, frame.fc_grant)
        # Both are pure control: nothing to demultiplex.
        return frame.kind not in _CONTROL_KINDS

    on_frame = accept  # the Layer receive hook

    def _apply_grant(self, peer: int, grant: tuple[int, int]) -> None:
        st = self._peers[peer]
        rb, rw = grant
        changed = False
        if rb > st.peer_released_bytes:
            st.peer_released_bytes = rb
            changed = True
        if rw > st.peer_released_wraps:
            st.peer_released_wraps = rw
            changed = True
        if not changed:
            return  # stale or duplicated grant: cumulative totals, no-op
        self._update_gate(st)
        self.engine.transfer.kick()

    def on_match(self, inc: Incoming) -> None:
        # The eager bytes vacate the receive buffer on the match — every
        # admitted segment is matched exactly once (whether it found a
        # posted receive or waited unexpected), so the credit releases
        # exactly once, truncation failures included.
        if type(inc.item) is SegItem:
            self.release(inc.src, inc.item.data.nbytes)

    def release(self, peer: int, nbytes: int) -> None:
        """The application consumed an eager message from ``peer``."""
        st = self._peers[peer]
        st.released_bytes_total += nbytes
        st.released_wraps_total += 1
        if not st.grant_timer.armed:
            st.grant_timer.arm(self._grant_delay_us(peer))

    # -- grant generation (mirrors the reliability layer's delayed acks) -----
    def _advertise(self, st: _PeerCredit) -> tuple[int, int]:
        """Snapshot the cumulative grant for an outgoing frame."""
        if (st.released_bytes_total > st.adv_bytes
                or st.released_wraps_total > st.adv_wraps):
            st.adv_bytes = st.released_bytes_total
            st.adv_wraps = st.released_wraps_total
            self.engine.stats.credits_granted += 1
        st.grant_timer.cancel()
        return (st.released_bytes_total, st.released_wraps_total)

    def stamp(self, frame: Frame) -> None:
        """Piggyback the current grant on an outgoing engine frame."""
        st = self._peers[frame.dst_node]
        frame.fc_grant = self._advertise(st)
        frame.wire_size += self.params.hdr.credit_header

    def send(
        self,
        nic: Nic,
        frame: Frame,
        cpu_gap_us: float,
        on_delivered: Callable[[], None] | None,
        on_failed: Callable[[BaseException], None] | None,
    ) -> bool:
        self.stamp(frame)
        return False

    def _grant_delay_us(self, peer: int) -> float:
        """Coalescing delay before a grant to ``peer`` goes out on its own.

        :data:`CREDIT_GRANT_DELAY_US` unless the engine's RTT estimator
        (built with ``reliability="ack"``) holds a warm estimate
        for the peer: then half the smoothed RTT, floored at 1us — waiting longer
        than a plausible reverse frame forfeits the piggyback *and* stalls
        the sender, so a measured fast path releases credit sooner.  The
        constant stays the ceiling (never slower than unmeasured).
        """
        rtt = self.engine.rtt
        if rtt is None or not rtt.warm(peer):
            return CREDIT_GRANT_DELAY_US
        srtt = rtt.srtt_us(peer)
        if srtt is None:
            return CREDIT_GRANT_DELAY_US
        return min(CREDIT_GRANT_DELAY_US, max(1.0, srtt / 2.0))

    def _send_credit(self, st: _PeerCredit) -> None:
        """Send a due grant (``st.grant_timer``'s callback: a reverse frame
        that piggybacks the grant first cancels the timer).

        The ack the reliability layer owes the peer carries it, if one is
        owed; otherwise a standalone credit frame, which the reliability
        layer (when on) sequences like any engine frame.
        """
        rel = self.engine.reliability
        if rel is not None and rel.flush_ack(st.peer):
            return
        hdr = self.params.hdr
        rail = self.engine.transfer.choose_rail(st.peer, prefer=0)
        frame = Frame(
            src_node=self.engine.node_id, dst_node=st.peer,
            kind=FrameKind.CREDIT,
            wire_size=hdr.global_header + hdr.credit_header,
            fc_grant=self._advertise(st),
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "credit",
                        peer=st.peer, bytes=st.released_bytes_total,
                        wraps=st.released_wraps_total, rail=rail)
        self.engine.transfer.transmit(self.nics[rail], frame, after=self)

    # -- session-layer hooks --------------------------------------------------
    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """Replace the credit ledger towards a dead/restarted peer.

        The old ledger's grant timer is cancelled and a
        credit-blocked window gate is lifted: the new incarnation starts
        with a fresh ledger and a full budget.
        """
        st = self._peers.get(peer)
        if st is None:
            return
        st.grant_timer.cancel()
        if st.blocked:
            self.engine.window.unblock_dest(peer)
        self._peers[peer] = _PeerCredit(peer, self)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "reset_peer",
                        peer=peer)

    def halt(self) -> None:
        """This node crashed: silence every timer, run no callbacks."""
        for st in self._peers.values():
            st.grant_timer.cancel()

    # -- introspection -------------------------------------------------------
    @property
    def quiesced(self) -> bool:
        """True when no grant is still scheduled."""
        return not any(st.grant_timer.armed for st in self._peers.values())

    def has_outstanding(self, peer: int | None = None) -> bool:
        """Never: grants are timers that fire on their own."""
        return False

    def describe_peer(self, peer: int) -> str:
        """One-line credit diagnostic for the stall report."""
        st = self._peers.get(peer)
        if st is None:
            return "credit: untouched"
        out_b = st.sent_bytes_total - st.peer_released_bytes
        out_w = st.sent_wraps_total - st.peer_released_wraps
        return (
            f"credit: outstanding={out_b}B/{out_w}w of "
            f"{CREDIT_BYTES}B/{CREDIT_WRAPS}w"
            f"{' [blocked]' if st.blocked else ''}, "
            f"released-out={st.released_bytes_total}B/"
            f"{st.released_wraps_total}w"
            f"{' [grant pending]' if st.grant_timer.armed else ''}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowControlLayer {self._name} peers={len(self._peers)}>"
