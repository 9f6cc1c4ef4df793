"""Optional peer failure detection, session epochs and crash recovery.

The paper's engine assumes every peer stays alive: the transfer layer is
"a process scheduler for packets" with no notion of a dead process, and
the opt-in reliability and flow-control layers inherit that — a silently
crashed peer leaves senders retrying into the void until the retry budget
burns, leaks credit, and a restarted peer would happily accept stale
frames from its previous life.  The default ``EngineParams.sessions="off"``
keeps the paper-faithful behaviour (this layer is then not constructed and
every figure stays bit-identical).  This module is the opt-in hardening
layer (``sessions="epoch"``) that gives the engine a ULFM-style notion of
process failure:

* every frame to a peer carries a small **session header**: the sender's
  *incarnation* (restart count of its node) and the sender's current view
  of the receiver's incarnation.  The receiver **fences** (discards and
  counts) any frame whose view of it is stale — that is the barrier no
  duplicate or ghost delivery crosses after a crash/restart;
* first contact (and every restart) runs a tiny
  ``session_hello``/``session_welcome`` **handshake**: data frames are
  buffered per peer until the peer's incarnation is known, then flushed
  in submission order;
* a per-peer **heartbeat failure detector** watches peers the engine has
  business with (outstanding sends, posted receives, rendezvous in
  flight).  Heartbeats are idle-only — reverse traffic counts as
  liveness, like the reliability layer's piggybacked acks — and run on
  virtual-time timers: after ``hb_timeout_us/2`` of silence a peer is
  *suspected*, after ``hb_timeout_us`` it is *confirmed dead* (under
  ``rel_timeout_us="auto"`` the budget tightens per peer to four
  adaptive RTOs, with the configured value as the ceiling);
* a suspected peer is **not** a dead peer: new outbound frames towards a
  suspect are *parked* in the same per-peer FIFO the handshake uses
  (``frames_parked``) while heartbeats keep probing.  When contact
  resumes within the same incarnation the peer is unsuspected and the
  parked traffic flushes in submission order — no epoch bump, no
  teardown (``peers_recovered``).  This is what makes a transient
  network partition shorter than ``hb_timeout_us`` invisible to the
  application: requests just take longer.  Only confirmed death (or a
  new incarnation) runs the teardown;
* death and epoch change share one **atomic teardown**: deferred frames,
  window backlog, reliability windows and their retransmit/ack timers,
  credit ledgers and their grant/resend timers, rendezvous transfers and
  matcher sequence state toward the peer are all dropped in one step
  (no simulated time passes), with every affected request failing
  loudly via :class:`~repro.errors.PeerDeadError`;
* on the node's own crash the engine's :meth:`~NmadEngine.halt` cancels
  every layer's timers the same way, so a dead process never ticks into
  its successor's incarnation.

State machine per peer::

    unknown --(first tx)--> hello_sent --(welcome/any stamped rx)-->
    established --(hb_timeout silence)--> dead --(higher incarnation
    seen)--> established (new epoch)

An epoch change (same peer, higher incarnation) runs the teardown and
then re-establishes immediately; confirmed death stays terminal until a
frame from a *newer* incarnation revives the peer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

from typing import TYPE_CHECKING

from repro.core.protocols import Layer, counter
from repro.errors import PeerDeadError
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.nic import Nic
from repro.sim import Timer

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine

__all__ = ["SessionLayer", "SessionParams", "SessionStats"]


@dataclass(frozen=True)
class SessionParams:
    """Session knobs (``EngineParams`` inherits them)."""

    #: Failure detection and session epochs.  The paper's engine assumes
    #: every peer stays alive, so ``"off"`` is the default and keeps every
    #: benchmark figure bit-identical; ``"epoch"`` stamps a session header
    #: on every frame, runs a hello/welcome handshake per peer, and
    #: confirms peers dead after ``hb_timeout_us`` of silence.
    sessions: str = "off"
    #: Heartbeat/monitor period: how often a watched peer's silence is
    #: re-examined and (when the line is otherwise idle) probed.
    hb_interval_us: float = 50.0
    #: Silence before a peer is confirmed dead; at half of this the peer
    #: becomes *suspected* (counted, traced, not yet acted on).
    hb_timeout_us: float = 500.0

    def _check_sessions(self) -> None:
        if self.sessions not in ("off", "epoch"):
            raise ValueError(
                f"unknown sessions mode {self.sessions!r}; "
                "expected off | epoch"
            )
        if self.hb_interval_us <= 0:
            raise ValueError("heartbeat interval must be positive")
        if self.hb_timeout_us < 2 * self.hb_interval_us:
            raise ValueError(
                "hb_timeout_us must be at least 2*hb_interval_us: a "
                "timeout shorter than two monitor ticks declares a peer "
                "dead before a single probe could round-trip"
            )


@dataclass
class SessionStats:
    """Session counters (``EngineStats`` inherits them)."""

    peers_suspected: int = counter("sessions")  # crossed half the hb timeout
    peers_dead: int = counter("sessions")       # confirmed dead by the detector
    epochs_started: int = counter("sessions")   # sessions established
    stale_frames_fenced: int = counter("sessions")  # stale-incarnation discards
    heartbeats_sent: int = counter("sessions")  # idle probes and probe replies
    peers_recovered: int = counter("partition")  # suspects that resumed contact
    frames_parked: int = counter("partition")   # frames held for a suspect peer

#: Frame kinds owned by this layer (never reach reliability or demux).
_SESSION_KINDS = frozenset({
    FrameKind.SESSION_HELLO, FrameKind.SESSION_WELCOME, FrameKind.HEARTBEAT,
})

#: ``frame.session[1]`` value meaning "receiver incarnation unknown";
#: only legal on handshake frames.
_UNKNOWN = -1


class _PeerSession:
    """Session and failure-detector state towards one peer."""

    __slots__ = ("peer", "sess_state", "peer_incarnation", "epoch",
                 "last_heard_us", "last_tx_us", "suspect",
                 "monitor", "deferred_tx")

    def __init__(self, peer: int, layer: SessionLayer) -> None:
        now = layer.sim.now
        self.peer = peer
        #: "unknown" | "hello_sent" | "established" | "dead"
        self.sess_state = "unknown"
        self.peer_incarnation = _UNKNOWN
        self.epoch = 0             # local count of sessions opened with peer
        self.last_heard_us = now
        self.last_tx_us = now
        self.suspect = False
        #: The failure detector's periodic tick; un-armed = dormant.
        self.monitor = Timer(layer.sim, partial(layer._mon_tick, self))
        #: Frames awaiting the handshake: (nic, frame, gap, ok, fail).
        self.deferred_tx: list[tuple[
            Nic, Frame, float,
            Callable[[], None] | None,
            Callable[[BaseException], None] | None,
        ]] = []


class SessionLayer(Layer):
    """Per-engine session handshakes, epoch fencing and failure detection.

    Only constructed in ``sessions="epoch"`` mode: the first stage on the
    receive path (:meth:`on_frame` fences before anything else looks at a
    frame) and the admission gate on the transmit path (:meth:`defer_tx`).
    """

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.params = engine.params
        self.nics = list(engine.node.nics)
        # A dead process must not tick into its successor's incarnation.
        engine.node.add_crash_hook(engine.halt)
        #: Frozen at construction: a restarted node gets a *new* engine,
        #: whose session layer speaks for the new incarnation.
        self.incarnation = engine.node.incarnation
        self._peers: dict[int, _PeerSession] = {}
        self._name = f"node{engine.node_id}.sessions"

    def _peer(self, peer: int) -> _PeerSession:
        st = self._peers.get(peer)
        if st is None:
            st = _PeerSession(peer, self)
            self._peers[peer] = st
        return st

    # -- transmit side -------------------------------------------------------
    def stamp(self, frame: Frame) -> None:
        """Attach the session header to an outgoing frame (idempotent)."""
        if frame.session is not None:
            return
        st = self._peer(frame.dst_node)
        frame.session = (self.incarnation, st.peer_incarnation)
        frame.wire_size += self.params.hdr.session_header
        st.last_tx_us = self.sim.now

    def defer_tx(
        self,
        nic: Nic,
        frame: Frame,
        cpu_gap_us: float,
        on_delivered: Callable[[], None] | None,
        on_failed: Callable[[BaseException], None] | None,
    ) -> bool:
        """Gate one outgoing frame on the peer's session state.

        Returns ``True`` when the layer consumed the frame (buffered until
        the handshake completes, or failed because the peer is dead) and
        ``False`` when the pipeline should transmit it now (it has been
        stamped).  *Every* engine frame — data, acks excepted (they stamp
        directly), credits, NACKs — passes here, ahead of sequencing.
        """
        st = self._peer(frame.dst_node)
        if st.sess_state == "established":
            if st.suspect:
                # Graceful degradation: the peer may be on the far side of
                # a transient partition.  Park the frame (FIFO, same queue
                # as the handshake) instead of racing it into a black hole;
                # heartbeats keep probing and a heal flushes it in order.
                st.deferred_tx.append((nic, frame, cpu_gap_us,
                                       on_delivered, on_failed))
                self.engine.stats.frames_parked += 1
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.emit(self.sim.now, self._name, "park_tx",
                                peer=st.peer, frame=frame.frame_id,
                                parked=len(st.deferred_tx))
                self._arm_monitor(st)
                self.engine.poke_watchdog()
                return True
            self.stamp(frame)
            self._arm_monitor(st)
            return False
        if st.sess_state == "dead":
            if on_failed is not None:
                on_failed(PeerDeadError(
                    f"node{self.engine.node_id}: send to node {st.peer}, "
                    f"a peer confirmed dead at incarnation "
                    f"{st.peer_incarnation}"
                ))
            return True
        # unknown / hello_sent: buffer behind the handshake (FIFO).
        st.deferred_tx.append((nic, frame, cpu_gap_us,
                               on_delivered, on_failed))
        if st.sess_state == "unknown":
            st.sess_state = "hello_sent"
            self._send_session_frame(st, FrameKind.SESSION_HELLO)
        self._arm_monitor(st)
        self.engine.poke_watchdog()
        return True

    send = defer_tx  # the Layer transmit hook

    def _flush(self, st: _PeerSession) -> None:
        """Handshake done: replay buffered frames in submission order."""
        if not st.deferred_tx:
            return
        deferred, st.deferred_tx = st.deferred_tx, []
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "flush",
                        peer=st.peer, frames=len(deferred))
        self._arm_monitor(st)
        for nic, frame, gap, ok, fail in deferred:
            self.stamp(frame)
            self.engine.transfer.transmit(nic, frame, gap, ok, fail,
                                          after=self)

    def _send_session_frame(self, st: _PeerSession, kind: str,
                            payload: str | None = None) -> None:
        """Emit a handshake/heartbeat frame directly (never retransmitted:
        the monitor re-solicits, so losing one only costs an interval)."""
        rail = self.engine.transfer.choose_rail(st.peer, prefer=0)
        frame = Frame(
            src_node=self.engine.node_id, dst_node=st.peer, kind=kind,
            wire_size=self.params.hdr.global_header, payload=payload,
        )
        self.stamp(frame)
        if kind == FrameKind.HEARTBEAT:
            self.engine.stats.heartbeats_sent += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, kind,
                        peer=st.peer, rail=rail, payload=payload)
        self.nics[rail].post_send(frame)

    # -- receive side --------------------------------------------------------
    def on_frame(self, rail: int, frame: Frame) -> bool:
        """Fence stale epochs and absorb handshake/heartbeat frames."""
        if frame.session is None:
            return True  # a peer running sessions="off": tolerate
        s_inc, d_inc = frame.session
        st = self._peer(frame.src_node)
        if frame.kind in _SESSION_KINDS:
            self._on_session_frame(st, frame, s_inc, d_inc)
            return False
        if d_inc != self.incarnation:
            # Addressed to a previous life of this node: a retransmit or
            # straggler from before our restart.  Fencing it is what keeps
            # the old epoch's sequence/credit state from leaking into ours.
            self._fence(st, frame)
            return False
        if st.sess_state == "dead":
            if s_inc <= st.peer_incarnation:
                self._fence(st, frame)
                return False
            self._epoch_change(st, s_inc)     # the peer came back
        elif s_inc < st.peer_incarnation:
            self._fence(st, frame)
            return False
        elif s_inc > st.peer_incarnation and st.peer_incarnation != _UNKNOWN:
            self._epoch_change(st, s_inc)     # the peer restarted under us
        elif st.sess_state != "established":
            self._establish(st, s_inc)        # implicit learn from data
        self._note_liveness(st)
        return True

    def _on_session_frame(self, st: _PeerSession, frame: Frame,
                          s_inc: int, d_inc: int) -> None:
        if s_inc < st.peer_incarnation or (
                st.sess_state == "dead" and s_inc <= st.peer_incarnation):
            self._fence(st, frame)
            return
        if (frame.kind != FrameKind.SESSION_HELLO
                and d_inc != self.incarnation):
            # A welcome/heartbeat aimed at a previous life of this node;
            # only a hello may carry a stale (or unknown) view of us,
            # because discovering our incarnation is its whole job.
            self._fence(st, frame)
            return
        if s_inc > st.peer_incarnation and st.peer_incarnation != _UNKNOWN:
            self._epoch_change(st, s_inc)
        elif st.sess_state != "established":
            self._establish(st, s_inc)
        self._note_liveness(st)
        if frame.kind == FrameKind.SESSION_HELLO:
            self._send_session_frame(st, FrameKind.SESSION_WELCOME)
        elif frame.kind == FrameKind.HEARTBEAT and frame.payload == "ping":
            # Pong keeps one-way streams alive; pongs solicit no reply.
            self._send_session_frame(st, FrameKind.HEARTBEAT, payload="pong")

    def _fence(self, st: _PeerSession, frame: Frame) -> None:
        self.engine.stats.stale_frames_fenced += 1
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "fence",
                        peer=st.peer, fkind=frame.kind,
                        frame=frame.frame_id, session=frame.session)

    def _note_liveness(self, st: _PeerSession) -> None:
        st.last_heard_us = self.sim.now
        if st.suspect:
            # Contact resumed within the same incarnation: the suspicion
            # was transient.  No epoch bump, no teardown — just release
            # whatever parking accumulated, in submission order.
            st.suspect = False
            self.engine.stats.peers_recovered += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now, self._name, "unsuspect",
                            peer=st.peer,
                            parked=len(st.deferred_tx))
            if st.sess_state == "established":
                self._flush(st)

    # -- session establishment / epoch change --------------------------------
    def _establish(self, st: _PeerSession, s_inc: int) -> None:
        new_epoch = s_inc != st.peer_incarnation
        st.peer_incarnation = s_inc
        st.sess_state = "established"
        self.engine.dead_peers.discard(st.peer)
        st.suspect = False
        if new_epoch:
            st.epoch += 1
            self.engine.stats.epochs_started += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(self.sim.now, self._name, "establish",
                            peer=st.peer, incarnation=s_inc,
                            epoch=st.epoch)
        self._flush(st)

    def _epoch_change(self, st: _PeerSession, s_inc: int) -> None:
        """The peer restarted: atomically drop its old life, open the new.

        Unlike confirmed death, an epoch change does *not* fail posted
        receives from the peer — the new incarnation's re-sent data
        legitimately matches them.  Old-epoch unexpected/parked state is
        dropped, which is what prevents a delivery from each epoch.
        """
        exc = PeerDeadError(
            f"node{self.engine.node_id}: node {st.peer} restarted "
            f"(incarnation {st.peer_incarnation} -> {s_inc}); in-flight "
            "requests towards its old incarnation failed"
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "epoch_change",
                        peer=st.peer, old=st.peer_incarnation,
                        new=s_inc)
        self._teardown_peer(st, exc)
        self._establish(st, s_inc)

    def _declare_dead(self, st: _PeerSession) -> None:
        st.sess_state = "dead"
        self.engine.dead_peers.add(st.peer)
        self.engine.stats.peers_dead += 1
        exc = PeerDeadError(
            f"node{self.engine.node_id}: node {st.peer} declared dead after "
            f"{self.sim.now - st.last_heard_us:g}us of silence "
            f"(hb_timeout_us={self._hb_timeout_us(st.peer):g})"
        )
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "peer_dead",
                        peer=st.peer,
                        silence=self.sim.now - st.last_heard_us)
        self._teardown_peer(st, exc)
        # Death, unlike an epoch change, dashes all hope of delivery:
        # receives awaiting the peer fail too, so waiters surface the
        # error instead of hanging until their own detector fires.
        self.engine.matcher.fail_src(st.peer, exc, now=self.sim.now)

    def _teardown_peer(self, st: _PeerSession, exc: PeerDeadError) -> None:
        """Atomically drop every bit of engine state bound to the peer.

        Runs with no simulated time passing, so no frame or timer can
        interleave between the steps: deferred handshake frames, window
        backlog (a plan prepared over it lapses), collect-deferred
        submissions, reliability windows (and their retransmit/ack timers),
        rendezvous transfers, credit ledgers (and their grant/resend
        timers), and the matcher's per-peer sequence state go in one step.
        """
        engine = self.engine
        peer = st.peer
        n_deferred = len(st.deferred_tx)
        self.reset_peer(peer, exc)
        for wrap in engine.window.drain_matching(lambda w: w.dest == peer):
            if wrap.completion is not None:
                wrap.completion.settle(exc)
        engine.collect.reset_dest(peer, exc)
        for layer in engine.layers:
            if layer is not self:
                layer.reset_peer(peer, exc)
        engine.rendezvous.fail_peer(peer, exc)
        engine.matcher.reset_peer(peer)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.sim.now, self._name, "teardown",
                        peer=peer, deferred=n_deferred)

    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """Fail every frame still buffered behind the peer's handshake."""
        st = self._peer(peer)
        deferred, st.deferred_tx = st.deferred_tx, []
        for _nic, _frame, _gap, _ok, fail in deferred:
            if fail is not None:
                fail(exc)

    # -- failure detector ----------------------------------------------------
    def on_post(self, src: int) -> None:
        """The application awaits ``src`` (a sourced receive was posted):
        watch its liveness even though we may never transmit to it."""
        if src == self.engine.node_id or src < 0:
            return
        st = self._peer(src)
        if st.sess_state == "unknown":
            # A pure receiver still needs the handshake: without our hello
            # the peer cannot learn our incarnation, and we cannot tell its
            # silence from its death.
            st.sess_state = "hello_sent"
            self._send_session_frame(st, FrameKind.SESSION_HELLO)
        self._arm_monitor(st)

    def _needs_monitor(self, peer: int) -> bool:
        engine = self.engine
        return bool(
            engine.window.backlog(peer)
            or any(layer.has_outstanding(peer) for layer in engine.layers)
            or engine.rendezvous.involves_peer(peer)
            or engine.collect.has_deferred_to(peer)
            or engine.matcher.has_posted_from(peer)
        )

    def _hb_timeout_us(self, peer: int) -> float:
        """Effective silence budget before declaring ``peer`` dead.

        The static ``hb_timeout_us`` unless the engine runs the adaptive
        timing layer (``rel_timeout_us="auto"``) *and* holds a warm
        estimate for the peer: then the deadline tightens to four
        adaptive RTOs — long enough that a lost heartbeat round does not
        kill a healthy peer, yet scaled to the measured path instead of
        a hand-tuned constant.  Clamped to at least ``4 * hb_interval_us`` so the
        idle-prober gets several shots before the verdict, and never
        above the configured static bound (the operator's ceiling).
        """
        rtt = self.engine.rtt
        if rtt is None or not rtt.warm(peer):
            return self.params.hb_timeout_us
        eff = max(4.0 * rtt.rto_us(peer), 4.0 * self.params.hb_interval_us)
        return min(eff, self.params.hb_timeout_us)

    def _arm_monitor(self, st: _PeerSession) -> None:
        """Wake a dormant monitor, and restart the silence clock with it:
        a detector can only accuse a peer it has *listened to* for
        ``hb_timeout_us``.  While dormant nobody solicited the peer, so
        its silence since an earlier conversation is not evidence."""
        if st.monitor.armed or st.sess_state == "dead":
            return
        st.last_heard_us = self.sim.now
        st.monitor.arm(self.params.hb_interval_us)

    def _mon_tick(self, st: _PeerSession) -> None:
        # A tick in progress is not dormancy (though ``monitor.armed`` is
        # false in here): the re-arm at the end goes to the timer directly
        # and leaves the silence clock running.
        if self.engine.halted:
            return  # a post on a crashed engine armed us: stay silent
        if not self._needs_monitor(st.peer):
            # No business with the peer: go dormant so an idle engine's
            # event queue drains (the next send or post re-arms us).
            # Suspicion lapses with the liveness interest — leaving it set
            # would greet the next (possibly much later) send to a healthy
            # peer with a stale park instead of a fresh observation.
            if st.suspect:
                st.suspect = False
                tracer = self.engine.tracer
                if tracer.enabled:
                    tracer.emit(self.sim.now, self._name,
                                "suspect_dropped", peer=st.peer)
            return
        now = self.sim.now
        silence = now - st.last_heard_us
        hb_timeout_us = self._hb_timeout_us(st.peer)
        if silence >= hb_timeout_us:
            self._declare_dead(st)
            return
        if silence >= hb_timeout_us / 2.0 and not st.suspect:
            st.suspect = True
            self.engine.stats.peers_suspected += 1
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(now, self._name, "suspect",
                            peer=st.peer, silence=silence)
        # Idle-only probing: any frame we sent recently already solicits
        # reverse traffic (acks, grants), so a probe would be redundant.
        if now - st.last_tx_us >= self.params.hb_interval_us:
            if st.sess_state == "established":
                self._send_session_frame(st, FrameKind.HEARTBEAT,
                                         payload="ping")
            else:
                self._send_session_frame(st, FrameKind.SESSION_HELLO)
        st.monitor.arm(self.params.hb_interval_us)

    # -- lifecycle -----------------------------------------------------------
    def halt(self) -> None:
        """This node crashed: silence every timer, drop buffered frames."""
        for st in self._peers.values():
            st.monitor.cancel()
            st.deferred_tx.clear()

    # -- introspection -------------------------------------------------------
    def is_suspect(self, peer: int) -> bool:
        """True while the failure detector suspects (but has not yet
        condemned) the peer; outbound traffic is parked meanwhile."""
        st = self._peers.get(peer)
        return st is not None and st.suspect

    def suspect_peers(self) -> list[int]:
        """Currently-suspected peers, in deterministic order."""
        return sorted(p for p, st in self._peers.items() if st.suspect)

    def has_outstanding(self, peer: int | None = None) -> bool:
        """Is a frame (towards ``peer``) still buffered behind a handshake?"""
        if peer is None:
            return any(st.deferred_tx for st in self._peers.values())
        st = self._peers.get(peer)
        return st is not None and bool(st.deferred_tx)

    @property
    def n_deferred_tx(self) -> int:
        return sum(len(st.deferred_tx) for st in self._peers.values())

    @property
    def n_monitors_armed(self) -> int:
        return sum(1 for st in self._peers.values() if st.monitor.armed)

    def describe_peer(self, peer: int) -> str:
        """One-line session diagnostic for the stall report."""
        st = self._peers.get(peer)
        if st is None:
            return "session: untouched"
        flags = ""
        if st.suspect:
            flags += " [suspect]"
        if st.deferred_tx:
            flags += f" [{len(st.deferred_tx)} deferred]"
        return (f"session: {st.sess_state} inc={st.peer_incarnation} "
                f"epoch={st.epoch} heard={st.last_heard_us:g}us{flags}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SessionLayer {self._name} inc={self.incarnation} "
                f"peers={len(self._peers)}>")
