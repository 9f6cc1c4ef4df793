"""Optional overload protection: receive-side credit flow control.

The paper's engine assumes a well-behaved peer: eager traffic is pushed
as fast as the NICs allow and lands in the receiver's unexpected-message
state without bound.  The default ``EngineParams.flow_control="off"``
keeps that paper-faithful behaviour (this layer is then not constructed
and received frames pass straight to the demultiplexer).
This module is the opt-in hardening layer (``flow_control="credit"``)
that bounds both ends of an eager stream:

* each peer holds a **credit budget** for eager traffic towards us
  (``credit_bytes`` payload bytes and ``credit_wraps`` packet wraps);
* the sender **consumes** credit when a strategy commits an eager wrap
  to a physical packet; a destination whose budget is exhausted is
  **blocked** in the optimization window — wraps keep accumulating, but
  no pull elects them, and the per-destination index answers
  ``eligible_for_dest`` for a blocked destination in O(1);
* the receiver **releases** credit when the application consumes a
  message, and advertises releases as cumulative
  ``(released_bytes_total, released_wraps_total)`` grants, piggybacked
  on any reverse frame (``fc_grant``, ``credit_header`` wire bytes) or
  as a small standalone ``credit`` frame after ``credit_grant_delay_us``
  of reverse silence — a :class:`~repro.sim.Timer` per ledger, like the
  reliability layer's standalone acks;
* cumulative totals make grants **idempotent**: a duplicated, reordered
  or retransmitted grant applies as a componentwise max, so the layer
  composes with ``reliability="ack"`` without extra state.

Overflow of the receiver's unexpected-message budget
(``max_unexpected_bytes``) takes a **NACK-and-resend-later** path
instead of unbounded buffering: the refused segment bounces back to the
sender in a ``nack`` frame, its credit is released (the grant rides on
the NACK itself), and the sender re-submits the segment after
``nack_delay_us`` — with exponential backoff while the peer keeps
refusing — through normal credit gating, keeping its original sequence
number so the matcher's in-order machinery is undisturbed.  The echoed
payload models the sender-retained resend buffer of a real stack, so
only control-record bytes are charged on the wire.

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

from repro.core.packet import PacketWrap, SegItem
from repro.core.protocols import Layer, counter
from repro.errors import MpiError, ProtocolError
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.nic import Nic
from repro.sim import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.matching import Incoming
    from repro.core.engine import NmadEngine
    from repro.core.strategy import SendPlan

__all__ = ["FlowControlLayer", "FlowControlParams", "FlowControlStats"]


@dataclass(frozen=True)
class FlowControlParams:
    """Flow-control knobs (``EngineParams`` inherits them)."""

    #: Overload protection.  The paper's engine assumes well-behaved peers
    #: and unbounded buffering, so ``"off"`` is the default and keeps every
    #: benchmark figure bit-identical; ``"credit"`` turns on receive-side
    #: credit flow control for eager traffic (rendezvous traffic is
    #: self-paced by its grant).
    flow_control: str = "off"
    #: Per-peer eager credit budget: payload bytes and wrap count a sender
    #: may have outstanding (unconsumed by the receiving application).
    credit_bytes: int = 256 * 1024
    credit_wraps: int = 256
    #: Reverse-silence window before a standalone credit frame carries a
    #: pending grant (grants otherwise piggyback on any reverse frame).
    credit_grant_delay_us: float = 25.0
    #: Base delay before a NACKed (receiver-refused) segment is resent;
    #: doubles per consecutive refusal from the same peer.
    nack_delay_us: float = 50.0
    #: Receiver memory budget: cap on buffered unexpected eager payload
    #: bytes in the matcher (0 = unbounded).  Requires ``"credit"`` mode —
    #: overflow takes the NACK-and-resend path, which needs the credit
    #: machinery.
    max_unexpected_bytes: int = 0

    def _check_flow_control(self) -> None:
        if self.flow_control not in ("off", "credit"):
            raise ValueError(
                f"unknown flow control mode {self.flow_control!r}; "
                "expected off | credit"
            )
        if self.credit_bytes < 1 or self.credit_wraps < 1:
            raise ValueError("credit budgets must be positive")
        if self.credit_grant_delay_us < 0:
            raise ValueError("negative credit grant delay")
        if self.nack_delay_us < 0:
            raise ValueError("negative nack delay")
        if self.max_unexpected_bytes < 0:
            raise ValueError("negative unexpected-bytes budget")
        if self.max_unexpected_bytes and self.flow_control != "credit":
            raise ValueError(
                "max_unexpected_bytes needs flow_control='credit': a "
                "refused message is only recoverable through the "
                "NACK-and-resend path"
            )


@dataclass
class FlowControlStats:
    """Overload-protection counters (``EngineStats`` inherits them)."""

    credit_stalls: int = counter("flow_control")    # dest became credit-blocked
    window_full_events: int = counter("flow_control")  # deferred/refused at cap
    unexpected_overflows: int = counter("flow_control")  # refused by the matcher
    credits_granted: int = counter("flow_control")  # grants of released credit
    nacks_sent: int = counter("flow_control")       # refused segments bounced
    nack_resends: int = counter("flow_control")     # bounced segments resent

#: Cap on the NACK-resend backoff multiplier (2**6): a peer that keeps
#: refusing slows the retry loop down to ``64 * nack_delay_us`` but never
#: stops it — the next successful post on the receiver drains the buffer
#: and the following resend goes through.
_MAX_NACK_BACKOFF = 64


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
        "blocked", "nack_streak",
        # Receive half: what we released, and what we last advertised.
        "released_bytes_total", "released_wraps_total",
        "adv_bytes", "adv_wraps",
        "grant_timer", "resend_timers",
    )

    def __init__(self, peer: int, layer: FlowControlLayer) -> None:
        self.peer = peer
        self.sent_bytes_total = 0
        self.sent_wraps_total = 0
        self.peer_released_bytes = 0
        self.peer_released_wraps = 0
        self.blocked = False
        self.nack_streak = 0
        self.released_bytes_total = 0
        self.released_wraps_total = 0
        self.adv_bytes = 0
        self.adv_wraps = 0
        #: Armed while a standalone grant waits out the reverse silence.
        self.grant_timer = Timer(layer.sim, partial(layer._send_credit, self))
        #: One armed timer per NACKed segment waiting out its backoff.
        self.resend_timers: list[Timer] = []

    def silence(self) -> None:
        """Teardown/halt: no timer of this ledger fires again."""
        self.grant_timer.cancel()
        for timer in self.resend_timers:
            timer.cancel()
        self.resend_timers.clear()


class FlowControlLayer(Layer):
    """Per-engine credit accounting, grant generation and NACK handling.

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
        if self.params.credit_bytes < exempt_floor:
            raise MpiError(
                f"{engine.node.name}: credit_bytes={self.params.credit_bytes} "
                f"is smaller than the largest rendezvous threshold "
                f"({exempt_floor}B); a maximal eager segment could never "
                "be sent"
            )
        engine.window.gate_eager(exempt_floor)
        engine.matcher.on_refuse = self.on_local_refuse
        self._credit_bytes = engine.params.credit_bytes
        self._credit_wraps = engine.params.credit_wraps
        self._grant_delay = engine.params.credit_grant_delay_us
        self._peers: dict[int, _PeerCredit] = {}
        self._name = f"node{engine.node_id}.flowcontrol"

    def _peer(self, peer: int) -> _PeerCredit:
        st = self._peers.get(peer)
        if st is None:
            st = _PeerCredit(peer, self)
            self._peers[peer] = st
        return st

    # -- transmit side: consuming credit ------------------------------------
    def commit(self, plan: SendPlan) -> None:
        """Spend credit for the eager wraps of a packet a NIC took.

        Announced (rendezvous) wraps are exempt — the grant protocol paces
        them end to end — and NACK resends were charged when their
        original went out.
        """
        for w in plan.taken:
            if not w.is_control and not w.credit_exempt:
                self.consume(plan.dest, w.length)

    def consume(self, dest: int, nbytes: int) -> None:
        """An eager wrap towards ``dest`` was committed to a packet."""
        st = self._peer(dest)
        st.sent_bytes_total += nbytes
        st.sent_wraps_total += 1
        self._update_gate(st)

    def planning_budget(self, dest: int) -> tuple[int | None, int | None]:
        """Remaining eager ``(bytes, wraps)`` allowance towards ``dest``."""
        st = self._peers.get(dest)
        if st is None:
            return (self._credit_bytes, self._credit_wraps)
        return (
            max(0, self._credit_bytes
                - (st.sent_bytes_total - st.peer_released_bytes)),
            max(0, self._credit_wraps
                - (st.sent_wraps_total - st.peer_released_wraps)),
        )

    def _update_gate(self, st: _PeerCredit) -> None:
        exhausted = (
            st.sent_bytes_total - st.peer_released_bytes >= self._credit_bytes
            or st.sent_wraps_total - st.peer_released_wraps
            >= self._credit_wraps
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
        """Apply the piggybacked grant; absorb credit and NACK frames."""
        if frame.fc_grant is not None:
            self._apply_grant(frame.src_node, frame.fc_grant,
                              from_nack=frame.kind == FrameKind.NACK)
        if frame.kind == FrameKind.CREDIT:
            return False  # pure control: nothing to demultiplex
        if frame.kind == FrameKind.NACK:
            self._on_nack(frame)
            return False
        return True

    on_frame = accept  # the Layer receive hook

    def _apply_grant(self, peer: int, grant: tuple[int, int],
                     from_nack: bool) -> None:
        st = self._peer(peer)
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
        if not from_nack:
            # Real forward progress on the peer (not just a refusal bounce):
            # drop the resend backoff back to its base delay.
            st.nack_streak = 0
        self._update_gate(st)
        self.engine.transfer.kick()

    def on_match(self, inc: Incoming) -> None:
        # The eager bytes vacate the receive buffer on the match — every
        # admitted segment is matched exactly once (whether it found a
        # posted receive or waited unexpected), so the credit releases
        # exactly once, truncation failures included.
        if isinstance(inc.item, SegItem):
            self.release(inc.src, inc.item.data.nbytes)

    def release(self, peer: int, nbytes: int) -> None:
        """The application consumed an eager message from ``peer``."""
        st = self._peer(peer)
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
        st = self._peer(frame.dst_node)
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
        """Coalescing delay before a standalone credit grant to ``peer``.

        The configured ``credit_grant_delay_us`` unless the adaptive
        timing layer (``rel_timeout_us="auto"``) holds a warm estimate
        for the peer: then half the smoothed RTT, floored at 1us — waiting longer
        than a plausible reverse frame forfeits the piggyback *and* stalls
        the sender, so a measured fast path releases credit sooner.  The
        configured value stays the ceiling (never slower than static).
        """
        rtt = self.engine.rtt
        if rtt is None or not rtt.warm(peer):
            return self._grant_delay
        srtt = rtt.srtt_us(peer)
        if srtt is None:
            return self._grant_delay
        return min(self._grant_delay, max(1.0, srtt / 2.0))

    def _nack_resend_base_us(self, peer: int) -> float:
        """Base delay before re-submitting a NACKed segment to ``peer``.

        The configured ``nack_delay_us``, or the peer's adaptive RTO when
        that is larger: a NACK means the receiver is out of resources, and
        retrying faster than a round trip can drain anything only earns
        the next NACK (the exponential streak backoff still multiplies).
        """
        rtt = self.engine.rtt
        if rtt is None or not rtt.warm(peer):
            return self.params.nack_delay_us
        return max(self.params.nack_delay_us, rtt.rto_us(peer))

    def _send_credit(self, st: _PeerCredit) -> None:
        """Emit a standalone grant (``st.grant_timer``'s callback: a reverse
        frame that piggybacks the grant first cancels the timer)."""
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

    # -- unexpected-buffer overflow: NACK and resend later -------------------
    def on_local_refuse(self, inc: Incoming) -> None:
        """The matcher refused ``inc`` (unexpected budget full): bounce it.

        The bounce moves no credit: the original transmit charged the
        message once and the eventual match of its resend releases it once.
        Releasing on refusal instead would let the sender spend the handed-
        back credit on *fresh* traffic while the refused message still
        waits out its backoff — widening the very overload the budget is
        throttling — and a credit-blocked resend could deadlock against a
        receiver whose buffered messages all sit behind the sequence hole.
        The resend is therefore gate-exempt (``credit_exempt``) instead.
        """
        item = inc.item
        assert isinstance(item, SegItem)
        self.engine.stats.unexpected_overflows += 1
        st = self._peer(inc.src)
        hdr = self.params.hdr
        rail = self.engine.transfer.choose_rail(inc.src, prefer=0)
        # payload_size stays 0: the echoed segment stands in for the resend
        # buffer a real sender would have retained, so the bounce only
        # charges control-record bytes on the wire.
        frame = Frame(
            src_node=self.engine.node_id, dst_node=inc.src,
            kind=FrameKind.NACK,
            wire_size=hdr.global_header + hdr.seg_header + hdr.credit_header,
            payload=item,
            fc_grant=self._advertise(st),
        )
        self.engine.stats.nacks_sent += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "nack",
                        peer=inc.src, seq=item.seq,
                        nbytes=item.data.nbytes, rail=rail)
        self.engine.transfer.transmit(self.nics[rail], frame, after=self)

    def _on_nack(self, frame: Frame) -> None:
        item = frame.payload
        if not isinstance(item, SegItem):
            raise ProtocolError(
                f"node{self.engine.node_id}: NACK frame without an echoed "
                f"segment: {frame!r}"
            )
        peer = frame.src_node
        st = self._peer(peer)
        st.nack_streak += 1
        backoff = min(2 ** (st.nack_streak - 1), _MAX_NACK_BACKOFF)
        delay = self._nack_resend_base_us(peer) * backoff
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "nack_rx",
                        peer=peer, seq=item.seq, delay_us=delay)
        # A timer per refused segment, owned by the ledger: a peer that
        # dies (or restarts) while the resend waits out its backoff takes
        # it along — re-submitting the old-epoch segment would ghost-
        # deliver into the peer's next incarnation.
        timer = Timer(self.sim, partial(self._resend, st, item))
        st.resend_timers.append(timer)
        timer.arm(delay)

    def _resend(self, st: _PeerCredit, item: SegItem) -> None:
        # The timer that brought us here is the one no longer armed.
        st.resend_timers = [t for t in st.resend_timers if t.armed]
        peer = st.peer
        self.engine.stats.nack_resends += 1
        # Same (flow, tag, seq) stream position as the refused original, so
        # the receiver's in-order machinery treats the resend as *the*
        # message; a fresh wrap_id keeps the window bookkeeping clean.  The
        # wrap re-enters the window directly (the original submission was
        # already admitted through the bounded collect layer once).
        wrap = PacketWrap(dest=peer, flow=item.flow, tag=item.tag,
                          seq=item.seq, data=item.data,
                          submitted_at=self.sim.now, credit_exempt=True)
        self.engine.window.restore(wrap)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "nack_resend",
                        peer=peer, seq=item.seq)
        self.engine.poke_watchdog()
        self.engine.transfer.kick()

    # -- session-layer hooks --------------------------------------------------
    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """Replace the credit ledger towards a dead/restarted peer.

        The old ledger's grant and resend timers are cancelled and a
        credit-blocked window gate is lifted: the new incarnation starts
        with a fresh ledger and a full budget.
        """
        st = self._peers.get(peer)
        if st is None:
            return
        st.silence()
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
            st.silence()

    # -- introspection -------------------------------------------------------
    @property
    def pending_resends(self) -> int:
        """NACK resends still waiting out their backoff delay."""
        return sum(len(st.resend_timers) for st in self._peers.values())

    @property
    def quiesced(self) -> bool:
        """True when no grant or NACK resend is still scheduled."""
        return not any(st.grant_timer.armed or st.resend_timers
                       for st in self._peers.values())

    def has_outstanding(self, peer: int | None = None) -> bool:
        """Never: grants and NACK resends are timers that fire on their own."""
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
            f"{self._credit_bytes}B/{self._credit_wraps}w"
            f"{' [blocked]' if st.blocked else ''}, "
            f"released-out={st.released_bytes_total}B/"
            f"{st.released_wraps_total}w"
            f"{' [grant pending]' if st.grant_timer.armed else ''}"
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FlowControlLayer {self._name} peers={len(self._peers)}>"
