"""Optional transport reliability: sliding-window ack/retransmit + failover.

The real NewMadeleine targets reliable system-area networks (MX, Elan,
SCI) and performs **no retransmission** — the default
``EngineParams.reliability="off"`` keeps that paper-faithful behaviour,
and every Figure 2/3/4 number is produced in that mode.  This module is
the opt-in production-hardening layer (``reliability="ack"``) that makes
the engine survive lossy links and failing rails:

* every physical frame to a peer carries a per-peer **sequence number**
  (``rel_header`` + ``checksum`` bytes from :class:`HeaderSpec` are added
  to its wire size);
* the receiver acknowledges with a **cumulative + selective** record,
  piggybacked on any reverse frame, or as a small standalone ack frame
  after ``rel_ack_delay_us`` of reverse silence;
* unacked frames are kept in a per-peer send buffer and retransmitted on
  an **exponential-backoff timer** (``rel_timeout_us`` × ``rel_backoff``
  per retry), over the healthiest rail with a link to the peer;
* the receive side **suppresses duplicates** before the demultiplexer, so
  the matcher and the rendezvous reassembly never see a frame twice;
* each retransmit timeout scores a loss against the rail the frame last
  used; ``rel_quarantine_threshold`` consecutive losses **quarantine**
  the rail (if another healthy rail exists) — subsequent traffic,
  retransmits, and not-yet-carved rendezvous chunks fail over to the
  surviving rails;
* a quarantined rail is **re-probed half-open** after a backoff window
  (``rel_probe_after_us``, default 32x the retransmit timeout, doubling
  on every re-quarantine): it rejoins the candidate set one loss short
  of the threshold, so a still-dead rail is ejected on the very next
  timeout while a healed one carries traffic again;
* among healthy rails, election is **congestion-aware**: the least
  congested rail by NIC queue depth (pending window bytes as tie-break)
  wins, sticky to the previous rail on ties — shortest-queue failover
  rather than a fixed priority order;
* after ``rel_retry_budget`` retransmits a frame is declared
  undeliverable: the affected requests fail with
  :class:`~repro.errors.TransportError` (:class:`~repro.errors.RailDownError`
  when the rail was quarantined) instead of stalling the simulation.

Sequencing is per *peer*, not per rail, which is what makes failover
transparent: a retransmitted frame keeps its sequence number on any rail,
so cross-rail replays deduplicate exactly like same-rail ones.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from typing import TYPE_CHECKING

from repro.core.protocols import Layer, counter
from repro.errors import RailDownError, TransportError
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.nic import Nic
from repro.sim import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine

__all__ = ["ReliabilityLayer", "ReliabilityParams", "ReliabilityStats"]


@dataclass(frozen=True)
class ReliabilityParams:
    """Reliability knobs (``EngineParams`` inherits them)."""

    #: Transport reliability.  The paper's engine targets reliable
    #: system-area networks and performs no retransmission, so ``"off"`` is
    #: the default and keeps every benchmark number unchanged; ``"ack"``
    #: turns on the sliding-window ack/retransmit protocol with rail
    #: failover.
    reliability: str = "off"
    #: Initial retransmit timeout, doubled (``rel_backoff``) per retry.
    #: The string ``"auto"`` (requires ``reliability="ack"``) replaces the
    #: static constant with a measured one: per-peer Jacobson SRTT/RTTVAR
    #: estimation (see :mod:`repro.core.rttstat`) derives the RTO as
    #: ``rel_rto_headroom * (srtt + 4*rttvar)`` clamped into
    #: ``[rel_rto_floor_us, rel_rto_ceiling_us]``.
    rel_timeout_us: float | str = 200.0
    rel_backoff: float = 2.0
    #: Clamp bounds and queueing headroom for the ``"auto"`` RTO.  The
    #: ceiling doubles as the conservative pre-measurement RTO.
    rel_rto_floor_us: float = 50.0
    rel_rto_ceiling_us: float = 10_000.0
    rel_rto_headroom: float = 2.0
    #: Opt-in tail hedging (requires ``rel_timeout_us="auto"`` and >= 2
    #: rails): ``"tail"`` re-sends a frame on the *second-best* rail once
    #: it has been outstanding past a p99-ish quantile of that rail's
    #: observed RTT, while the original stays in flight — duplicate
    #: suppression absorbs whichever copy loses.  ``"off"`` (default)
    #: never hedges.
    rel_hedge: str = "off"
    #: Retransmissions per frame before the send fails with TransportError.
    rel_retry_budget: int = 8
    #: Reverse-silence window before a standalone ack frame is emitted.
    rel_ack_delay_us: float = 25.0
    #: Consecutive retransmit-timeouts that quarantine a rail (when another
    #: healthy rail exists).
    rel_quarantine_threshold: int = 3
    #: Half-open recovery: delay before a quarantined rail is re-probed.
    #: ``0`` derives 32x ``rel_timeout_us``; ``float("inf")`` disables
    #: probing (a quarantined rail then stays out for good, the pre-probe
    #: behaviour).  The delay doubles per re-quarantine of the same rail.
    rel_probe_after_us: float = 0.0

    def _check_reliability(self) -> None:
        if self.reliability not in ("off", "ack"):
            raise ValueError(
                f"unknown reliability mode {self.reliability!r}; "
                "expected off | ack"
            )
        if isinstance(self.rel_timeout_us, str):
            if self.rel_timeout_us != "auto":
                raise ValueError(
                    f"unknown rel_timeout_us {self.rel_timeout_us!r}; "
                    "expected a positive number or 'auto'"
                )
            if self.reliability != "ack":
                raise ValueError(
                    "rel_timeout_us='auto' needs reliability='ack': the "
                    "RTT estimator samples the ack machinery"
                )
        elif self.rel_timeout_us <= 0:
            raise ValueError("retransmit timeout must be positive")
        if self.rel_rto_floor_us <= 0:
            raise ValueError("RTO floor must be positive")
        if self.rel_rto_ceiling_us < self.rel_rto_floor_us:
            raise ValueError("RTO ceiling must be >= floor")
        if self.rel_rto_headroom < 1.0:
            raise ValueError("RTO headroom must be >= 1")
        if self.rel_hedge not in ("off", "tail"):
            raise ValueError(
                f"unknown rel_hedge mode {self.rel_hedge!r}; "
                "expected off | tail"
            )
        if self.rel_hedge == "tail" and self.rel_timeout_us != "auto":
            raise ValueError(
                "rel_hedge='tail' needs rel_timeout_us='auto': the hedge "
                "delay is a quantile of the measured RTT"
            )
        if self.rel_backoff < 1.0:
            raise ValueError("retransmit backoff must be >= 1")
        if self.rel_retry_budget < 1:
            raise ValueError("retry budget must be >= 1")
        if self.rel_ack_delay_us < 0:
            raise ValueError("negative ack delay")
        if self.rel_quarantine_threshold < 1:
            raise ValueError("quarantine threshold must be >= 1")
        if not self.rel_probe_after_us >= 0:  # rejects negatives and NaN
            raise ValueError("rail probe delay must be >= 0")

    @property
    def rel_adaptive(self) -> bool:
        """True when the retransmit timeout is measured, not configured."""
        return self.rel_timeout_us == "auto"


@dataclass
class ReliabilityStats:
    """Reliability counters (``EngineStats`` inherits them)."""

    retransmits: int = counter("reliability")
    duplicates_suppressed: int = counter("reliability")
    failovers: int = counter("reliability")
    rails_quarantined: int = counter("reliability")
    rails_reprobed: int = counter("reliability")  # probes that lifted a quarantine
    acks_sent: int = counter("reliability")
    corrupt_discards: int = counter("reliability")  # at the rx entry: any mode
    transport_failures: int = counter("reliability")
    # Adaptive timing (all zero outside rel_timeout_us="auto").
    rtt_samples: int = counter("adaptive")   # acks that fed the estimator
    rto_backoffs: int = counter("adaptive")  # retransmits doubling an auto RTO
    hedges_sent: int = counter("adaptive")   # tail re-sends on another rail
    hedges_won: int = counter("adaptive")    # hedges whose ack beat the original


class _Pending:
    """One unacknowledged frame in a peer channel's send buffer."""

    __slots__ = ("seq", "frame", "cpu_gap_us", "on_delivered", "on_failed",
                 "rail", "retries", "deadline", "sent_at", "hedged_at")

    def __init__(self, seq: int, frame: Frame, cpu_gap_us: float,
                 on_delivered: Callable[[], None] | None,
                 on_failed: Callable[[BaseException], None] | None,
                 rail: int) -> None:
        self.seq = seq
        self.frame = frame
        self.cpu_gap_us = cpu_gap_us
        self.on_delivered = on_delivered
        self.on_failed = on_failed
        self.rail = rail           # rail of the most recent transmission
        self.retries = 0
        self.deadline: float | None = None  # None while queued/in tx
        # First-transmission completion time: the RTT sample anchor.  Karn's
        # rule falls out of the bookkeeping — a retransmitted (retries > 0)
        # or hedged (hedged_at set) frame never feeds the estimator, because
        # its ack cannot be attributed to one transmission.
        self.sent_at: float | None = None
        self.hedged_at: float | None = None


class _Channel:
    """Both directions of the reliability state towards one peer."""

    __slots__ = ("peer", "next_seq", "unacked", "rto_us", "retry_timer",
                 "rx_cum", "rx_sacks", "ack_timer")

    def __init__(self, peer: int, layer: ReliabilityLayer) -> None:
        self.peer = peer
        # Transmit half.
        self.next_seq = 0
        self.unacked: dict[int, _Pending] = {}
        self.rto_us = layer._rto_base_us(peer)
        self.retry_timer = Timer(layer.sim, partial(layer._on_timer, self))
        # Receive half.
        self.rx_cum = 0                 # every seq < rx_cum was received
        self.rx_sacks: set[int] = set() # received beyond the cumulative edge
        #: Armed while a standalone ack waits out the reverse silence.
        self.ack_timer = Timer(layer.sim, partial(layer._send_ack, self))

    def silence(self) -> None:
        """Teardown/halt: no timer of this channel fires again, and an
        in-flight hedge finds its frame gone."""
        self.retry_timer.cancel()
        self.ack_timer.cancel()
        self.unacked.clear()


class ReliabilityLayer(Layer):
    """Per-engine ack/retransmit protocol and rail-loss scoring.

    Only constructed in ``reliability="ack"`` mode.  Which rails are in
    service is the transfer layer's fact; this layer scores losses and
    asks it to quarantine or readmit a rail.
    """

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.params = engine.params
        self.nics = list(engine.node.nics)
        self._transfer = engine.transfer
        # Standalone acks bypass the transmit pipeline (no sequence number)
        # yet need the epoch header to pass the peer's fence, if any.
        self._sessions = engine.sessions
        # Adaptive timing: the engine-owned estimator, or None in static
        # mode.  _static_rto_us is the configured constant when static.
        self._rtt = engine.rtt
        self._static_rto_us: float | None = (
            None if engine.params.rel_adaptive
            else float(engine.params.rel_timeout_us))
        self._channels: dict[int, _Channel] = {}
        #: Consecutive retransmit-timeouts per rail (reset on any ack).
        self.rail_losses: dict[int, int] = {}
        # Half-open recovery: each quarantine arms the rail's re-probe
        # after a per-rail backoff window.
        self._probe_timers = [Timer(self.sim, partial(self._reprobe, rail))
                              for rail in range(len(self.nics))]
        self._probe_backoff: dict[int, float] = {}
        self._name = f"node{engine.node_id}.reliability"

    # -- introspection ------------------------------------------------------
    @property
    def n_unacked(self) -> int:
        return sum(len(ch.unacked) for ch in self._channels.values())

    def has_outstanding(self, peer: int | None = None) -> bool:
        """Does a frame still await an ack, or an ack sending (towards
        ``peer``; any peer when ``None``)?"""
        if peer is None:
            return any(ch.unacked or ch.ack_timer.armed
                       for ch in self._channels.values())
        ch = self._channels.get(peer)
        return ch is not None and bool(ch.unacked or ch.ack_timer.armed)

    def describe_peer(self, peer: int) -> str:
        ch = self._channels.get(peer)
        return f"reliability: unacked={len(ch.unacked) if ch else 0}"

    def _rto_base_us(self, peer: int) -> float:
        """The un-backed-off retransmit timeout towards ``peer``: the
        measured (clamped, headroomed) estimate in auto mode, the
        configured constant otherwise."""
        if self._rtt is not None:
            return self._rtt.rto_us(peer)
        assert self._static_rto_us is not None
        return self._static_rto_us

    def _channel(self, peer: int) -> _Channel:
        ch = self._channels.get(peer)
        if ch is None:
            ch = _Channel(peer, self)
            self._channels[peer] = ch
        return ch

    # -- transmit side ------------------------------------------------------
    def send(
        self,
        nic: Nic,
        frame: Frame,
        cpu_gap_us: float = 0.0,
        on_delivered: Callable[[], None] | None = None,
        on_failed: Callable[[BaseException], None] | None = None,
    ) -> bool:
        """Transmit ``frame`` on ``nic`` reliably (the last transmit stage).

        ``on_delivered`` fires once, at ack receipt; ``on_failed`` fires
        instead when the retransmit budget is exhausted or the peer's
        channel is torn down.
        """
        ch = self._channel(frame.dst_node)
        hdr = self.params.hdr
        frame.rel_seq = ch.next_seq
        ch.next_seq += 1
        frame.wire_size += hdr.rel_header + hdr.checksum
        frame.rel_ack = self._ack_snapshot(ch)
        ch.ack_timer.cancel()
        pending = _Pending(frame.rel_seq, frame, cpu_gap_us,
                           on_delivered, on_failed, rail=nic.rail)
        ch.unacked[pending.seq] = pending
        done = nic.post_send(frame, cpu_gap_us=cpu_gap_us)
        done.add_callback(lambda _evt: self._tx_done(ch, pending))
        return True

    def _tx_done(self, ch: _Channel, pending: _Pending) -> None:
        """A (re)transmission fully left the NIC: start its retry clock."""
        if pending.seq not in ch.unacked:
            return  # acked while still queued on the card
        if pending.retries == 0 and pending.sent_at is None:
            pending.sent_at = self.sim.now
            self._maybe_arm_hedge(ch, pending)
        pending.deadline = self.sim.now + ch.rto_us
        self._arm_timer(ch)

    # -- tail hedging ---------------------------------------------------------
    def _maybe_arm_hedge(self, ch: _Channel, pending: _Pending) -> None:
        """Arm the tail re-send for a freshly transmitted frame.

        Only in ``rel_hedge="tail"`` mode with a warm estimate for the
        frame's rail: once the frame has been outstanding past a p99-ish
        quantile of that rail's observed RTT, one copy goes out on the
        second-best rail while the original stays in flight.  Duplicate
        suppression absorbs whichever copy loses; the hedge never scores a
        loss, never counts as a retransmit, and never feeds the estimator.
        """
        if self.params.rel_hedge != "tail" or self._rtt is None:
            return
        if len(self.nics) < 2:
            return
        delay = self._rtt.hedge_delay_us(ch.peer, pending.rail)
        if delay is None:
            return  # estimate too cold to call anything a tail
        self.sim.schedule(delay, partial(self._hedge_fire, ch, pending))

    def _hedge_fire(self, ch: _Channel, pending: _Pending) -> None:
        # One-shot per frame and never cancelled: teardown and halt empty
        # ``ch.unacked`` and a channel never reuses a sequence number, so
        # a frame still listed here is the live one.
        if (pending.seq not in ch.unacked or pending.retries
                or pending.hedged_at is not None):
            return  # gone (acked, torn down), retransmitting, or hedged
        rail = self._second_best_rail(ch.peer, exclude=pending.rail)
        if rail is None:
            return  # no healthy alternative rail to hedge on
        pending.hedged_at = self.sim.now
        self.engine.stats.hedges_sent += 1
        frame = pending.frame
        frame.rel_ack = self._ack_snapshot(ch)
        ch.ack_timer.cancel()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "hedge",
                        seq=pending.seq, peer=ch.peer,
                        from_rail=pending.rail, to_rail=rail)
        # The original keeps its retry clock and its loss attribution; the
        # hedge copy is fire-and-forget (same seq, so the receiver dedups).
        self.nics[rail].post_send(frame, cpu_gap_us=pending.cpu_gap_us)

    def _second_best_rail(self, peer: int, exclude: int) -> int | None:
        """Least-congested healthy rail other than ``exclude``, if any."""
        candidates = [r for r, nic in enumerate(self.nics)
                      if r != exclude and self._transfer.rail_ok(r)
                      and nic.has_peer(peer)]
        if not candidates:
            return None
        return min(candidates, key=self._transfer.rail_score)

    def _arm_timer(self, ch: _Channel) -> None:
        deadlines = [p.deadline for p in ch.unacked.values()
                     if p.deadline is not None]
        if not deadlines:
            return
        ch.retry_timer.arm(max(0.0, min(deadlines) - self.sim.now))

    def _on_timer(self, ch: _Channel) -> None:
        now = self.sim.now
        expired = [p for p in ch.unacked.values()
                   if p.deadline is not None and p.deadline <= now]
        if expired:
            self._retransmit(ch, min(expired, key=lambda p: p.seq))
        self._arm_timer(ch)

    def _retransmit(self, ch: _Channel, pending: _Pending) -> None:
        params = self.params
        if pending.retries >= params.rel_retry_budget:
            self._give_up(ch, pending)
            return
        pending.retries += 1
        self.engine.stats.retransmits += 1
        self._note_loss(pending.rail)
        rail = self._transfer.choose_rail(ch.peer, prefer=pending.rail)
        if rail != pending.rail:
            self.engine.stats.failovers += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now, self._name, "failover",
                            seq=pending.seq, peer=ch.peer,
                            from_rail=pending.rail, to_rail=rail)
            pending.rail = rail
        ch.rto_us = min(ch.rto_us * params.rel_backoff,
                        64.0 * self._rto_base_us(ch.peer))
        if self._rtt is not None:
            self.engine.stats.rto_backoffs += 1
        pending.deadline = None
        frame = pending.frame
        frame.rel_ack = self._ack_snapshot(ch)
        ch.ack_timer.cancel()
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "retransmit",
                        seq=pending.seq, peer=ch.peer, rail=rail,
                        attempt=pending.retries)
        done = self.nics[rail].post_send(frame, cpu_gap_us=pending.cpu_gap_us)
        done.add_callback(lambda _evt: self._tx_done(ch, pending))

    def _give_up(self, ch: _Channel, pending: _Pending) -> None:
        del ch.unacked[pending.seq]
        self.engine.stats.transport_failures += 1
        kind = (TransportError if self._transfer.rail_ok(pending.rail)
                else RailDownError)
        exc = kind(
            f"node{self.engine.node_id}: frame seq {pending.seq} to node "
            f"{ch.peer} undeliverable after {pending.retries} retransmits "
            f"(last rail {pending.rail})"
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "give_up",
                        seq=pending.seq, peer=ch.peer,
                        retries=pending.retries)
        if pending.on_failed is not None:
            pending.on_failed(exc)

    # -- rail health ---------------------------------------------------------
    def _note_loss(self, rail: int) -> None:
        self.rail_losses[rail] = self.rail_losses.get(rail, 0) + 1
        rail_ok = self._transfer.rail_ok
        if (rail_ok(rail)
                and self.rail_losses[rail] >= self.params.rel_quarantine_threshold
                and any(rail_ok(r)
                        for r in range(len(self.nics)) if r != rail)):
            self._quarantine(rail)

    def _quarantine(self, rail: int) -> None:
        self.engine.stats.rails_quarantined += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "quarantine",
                        rail=rail,
                        losses=self.rail_losses.get(rail, 0))
        # Expire everything last sent on the dead rail so failover happens
        # now rather than after the remaining backoff.
        now = self.sim.now
        for ch in self._channels.values():
            touched = False
            for p in ch.unacked.values():
                if p.rail == rail and p.deadline is not None:
                    p.deadline = now
                    touched = True
            if touched:
                self._arm_timer(ch)
        self._schedule_probe(rail)
        self._transfer.quarantine(rail)

    def _probe_base_us(self) -> float:
        """The first half-open probe delay (0 in params = auto-derive)."""
        configured = self.params.rel_probe_after_us
        if configured > 0.0:
            return configured
        if self._rtt is not None:
            return 32.0 * self._rtt.global_rto_us()
        assert self._static_rto_us is not None
        return 32.0 * self._static_rto_us

    def _schedule_probe(self, rail: int) -> None:
        """Arm the half-open recovery probe for a freshly quarantined rail.

        The backoff doubles on every re-quarantine of the same rail (capped
        at 64x) and resets the next time an ack succeeds on it, so a flapping
        rail is probed ever more lazily while a healed one rejoins fast.
        """
        base = self._probe_base_us()
        if base != base or base == float("inf"):  # NaN/inf = probing off
            return
        backoff = self._probe_backoff.get(rail, base)
        self._probe_backoff[rail] = min(backoff * 2.0, 64.0 * base)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "probe_armed",
                        rail=rail, after_us=backoff)
        self._probe_timers[rail].arm(backoff)

    def _reprobe(self, rail: int) -> None:
        """Half-open the rail: lift the quarantine, one strike re-imposes it.

        The rail rejoins the candidate set with its loss score one short of
        the threshold, so the very next retransmit timeout on it
        re-quarantines immediately (and re-arms a longer probe), while a
        single successful ack clears the score and the backoff entirely.
        """
        if self._transfer.rail_ok(rail):
            return
        self.rail_losses[rail] = self.params.rel_quarantine_threshold - 1
        self.engine.stats.rails_reprobed += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "reprobe",
                        rail=rail)
        self._transfer.readmit(rail)

    # -- receive side --------------------------------------------------------
    def on_frame(self, rail: int, frame: Frame) -> bool:
        """Ack processing and duplicate suppression ahead of the demux."""
        if frame.rel_ack is not None:
            cum, sacks = frame.rel_ack
            self._handle_ack(frame.src_node, cum, sacks)
        if frame.kind == FrameKind.REL_ACK:
            return False
        if frame.rel_seq is None:
            return True  # a peer running reliability="off": tolerate
        ch = self._channel(frame.src_node)
        if not self._record_rx(ch, frame.rel_seq):
            self.engine.stats.duplicates_suppressed += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now, self._name, "dup_suppress",
                            seq=frame.rel_seq, peer=frame.src_node)
            # The peer is clearly missing our ack: resend it right away.
            self._send_ack(ch)
            return False
        if not ch.ack_timer.armed:
            ch.ack_timer.arm(self.params.rel_ack_delay_us)
        return True

    def _record_rx(self, ch: _Channel, seq: int) -> bool:
        if seq < ch.rx_cum or seq in ch.rx_sacks:
            return False
        ch.rx_sacks.add(seq)
        while ch.rx_cum in ch.rx_sacks:
            ch.rx_sacks.discard(ch.rx_cum)
            ch.rx_cum += 1
        return True

    def _ack_snapshot(self, ch: _Channel) -> tuple[int, tuple[int, ...]]:
        return ch.rx_cum, tuple(sorted(ch.rx_sacks))

    def _handle_ack(self, peer: int, cum: int, sacks: tuple[int, ...]) -> None:
        ch = self._channel(peer)
        sackset = set(sacks)
        acked = sorted(s for s in ch.unacked if s < cum or s in sackset)
        if not acked:
            return
        now = self.sim.now
        for seq in acked:
            pending = ch.unacked.pop(seq)
            self.rail_losses[pending.rail] = 0
            # Proof of life: the rail carried an acked frame, so the next
            # quarantine (if any) starts from the base probe window again.
            self._probe_backoff.pop(pending.rail, None)
            if self._rtt is not None and pending.sent_at is not None:
                if pending.retries == 0 and pending.hedged_at is None:
                    # Karn's rule: only a frame transmitted exactly once
                    # (never retried, never hedged) yields an unambiguous
                    # RTT measurement.
                    self._rtt.sample(peer, pending.rail,
                                     now - pending.sent_at)
                    self.engine.stats.rtt_samples += 1
                elif pending.hedged_at is not None and pending.retries == 0:
                    # Attribution heuristic: the hedge "won" when the ack
                    # materialized faster after the hedge went out than the
                    # original had managed in its entire head start.
                    if (now - pending.hedged_at
                            < pending.hedged_at - pending.sent_at):
                        self.engine.stats.hedges_won += 1
            if pending.on_delivered is not None:
                pending.on_delivered()
        ch.rto_us = self._rto_base_us(peer)  # fresh RTT evidence
        self._arm_timer(ch)

    # -- acknowledgement generation ------------------------------------------
    def _send_ack(self, ch: _Channel) -> None:
        """Emit a standalone ack now (``ch.ack_timer``'s callback: a
        reverse frame that piggybacks the ack first cancels the timer)."""
        ch.ack_timer.cancel()
        hdr = self.params.hdr
        rail = self._transfer.choose_rail(ch.peer, prefer=0)
        frame = Frame(
            src_node=self.engine.node_id, dst_node=ch.peer,
            kind=FrameKind.REL_ACK,
            wire_size=hdr.rel_header + hdr.checksum,
            rel_ack=self._ack_snapshot(ch),
        )
        if self._sessions is not None:
            self._sessions.stamp(frame)
        self.engine.stats.acks_sent += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "ack",
                        peer=ch.peer, cum=frame.rel_ack[0],
                        sacks=len(frame.rel_ack[1]), rail=rail)
        self.nics[rail].post_send(frame, cpu_gap_us=0.0)

    # -- session-layer hooks --------------------------------------------------
    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """Tear down the channel to a dead/restarted peer atomically.

        The channel's timers are cancelled and its send buffer dropped; a
        resurrected peer gets a fresh channel.  Every unacked frame's
        requests fail with ``exc``.
        """
        ch = self._channels.pop(peer, None)
        if ch is None:
            return
        pendings = sorted(ch.unacked.values(), key=lambda p: p.seq)
        ch.silence()
        if self._rtt is not None:
            # The next incarnation's path may be nothing like this one's.
            self._rtt.forget_peer(peer)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "reset_peer",
                        peer=peer, dropped=len(pendings))
        for pending in pendings:
            if pending.on_failed is not None:
                pending.on_failed(exc)

    def halt(self) -> None:
        """This node crashed: silence every timer, run no callbacks."""
        for ch in self._channels.values():
            ch.silence()
        for probe in self._probe_timers:
            probe.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<ReliabilityLayer {self._name} unacked={self.n_unacked} "
                f"quarantined={sorted(self._transfer.quarantined)}>")
