"""The NewMadeleine engine: the three layers assembled on one node.

Instantiate one :class:`NmadEngine` per cluster node; engines communicate
exclusively through simulated frames (no shared Python state), exactly like
separate processes on separate hosts.

The native interface is deliberately small, mirroring the operations
MAD-MPI maps onto (paper §3.4): :meth:`NmadEngine.isend`,
:meth:`NmadEngine.irecv`, and the request handles' completion events for
wait/test.  The incremental pack interface of the former Madeleine library
lives in :mod:`repro.core.interface`.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any

from repro.core.collect import CollectLayer
from repro.core.data import SegmentData
from repro.core.flowcontrol import (
    FlowControlLayer, FlowControlParams, FlowControlStats,
)
from repro.core.matching import Incoming, Matcher
from repro.core.packet import (
    CancelItem, HeaderSpec, RdvReqItem, SegItem,
)
from repro.core.protocols import Layer, counter
from repro.core.reliability import (
    ReliabilityLayer, ReliabilityParams, ReliabilityStats,
)
from repro.core.rendezvous import RendezvousManager
from repro.core.requests import ANY, RecvRequest, SendRequest
from repro.core.rttstat import RttEstimator
from repro.core.sessions import SessionLayer, SessionParams, SessionStats
from repro.core.strategy import Strategy, create
from repro.core.transfer import TransferLayer
from repro.core.window import OptimizationWindow
from repro.errors import (
    DeadlineExceededError, MpiError, PeerDeadError, SimulationError,
)
from repro.netsim.node import Node
from repro.netsim.profiles import NicProfile
from repro.sim import Event, Tracer
from repro.sim.core import Watchdog

__all__ = ["EngineParams", "EngineStats", "NmadEngine"]


@dataclass(frozen=True)
class EngineParams(ReliabilityParams, FlowControlParams, SessionParams):
    """Engine cost model and protocol constants.

    The two scheduler costs realize the overhead sources of paper §5.1: an
    extra header per physical packet (``hdr``), and "extra operations on
    the critical path to inspect the 'ready list'" — ``pull_cost_us`` once
    per synthesized packet plus ``per_mtu_cost_us`` per MTU of data pushed
    through the optimizer's data path (calibrated per driver, which is why
    the large-message bandwidth deficit differs between MX and Quadrics in
    Figure 2).

    The opt-in layers' knobs are inherited from the mixin next to each layer.
    """

    hdr: HeaderSpec = field(default_factory=HeaderSpec)
    pull_cost_us: float = 0.25
    demux_packet_cost_us: float = 0.30
    demux_item_cost_us: float = 0.05
    per_mtu_cost_us: float = 0.10
    #: When a NIC is refilled from an *anticipated* (pre-synthesized) packet
    #: the optimization function already ran off the critical path; only a
    #: hand-over cost remains (paper 3.2, second dispatch policy).
    anticipated_pull_cost_us: float = 0.05
    #: Dispatch policy (paper 3.2): "on_idle" = synthesize when a NIC asks;
    #: "anticipate" = while all NICs are busy keep one ready-to-send packet
    #: prepared and re-feed it instantly; "backlog" = anticipate only once
    #: the window holds at least ``backlog_flush_threshold`` wraps.
    dispatch_policy: str = "on_idle"
    backlog_flush_threshold: int = 8
    per_mtu_cost_by_tech: tuple[tuple[str, float], ...] = (
        ("mx", 0.12),
        ("elan", 0.36),
    )
    rdv_chunk_bytes: int = 512 * 1024
    eager_copy_on_recv: bool = True
    #: Bounded collect layer: caps on the optimization window (0 = the
    #: paper's unbounded window).  When full, ``window_policy`` decides:
    #: ``"block"`` defers the submission FIFO until the window drains,
    #: ``"fail"`` raises :class:`~repro.errors.WindowFullError`.
    max_window_wraps: int = 0
    max_window_bytes: int = 0
    window_policy: str = "block"
    #: Progress watchdog period in virtual microseconds (0 = off).  While
    #: the engine has outstanding work, a progress token is sampled every
    #: interval; two consecutive unchanged samples raise
    #: :class:`~repro.errors.ProgressStallError` with a per-peer dump.
    watchdog_interval_us: float = 0.0

    def __post_init__(self) -> None:
        if min(self.pull_cost_us, self.per_mtu_cost_us,
               self.demux_packet_cost_us, self.demux_item_cost_us,
               self.anticipated_pull_cost_us) < 0:
            raise ValueError("negative scheduler cost")
        if self.dispatch_policy not in ("on_idle", "anticipate", "backlog"):
            raise ValueError(
                f"unknown dispatch policy {self.dispatch_policy!r}; "
                "expected on_idle | anticipate | backlog"
            )
        if self.backlog_flush_threshold < 1:
            raise ValueError("backlog_flush_threshold must be >= 1")
        if self.rdv_chunk_bytes <= 0:
            raise ValueError("rendezvous chunk must be positive")
        if self.max_window_wraps < 0 or self.max_window_bytes < 0:
            raise ValueError("negative window cap")
        if self.window_policy not in ("block", "fail"):
            raise ValueError(
                f"unknown window policy {self.window_policy!r}; "
                "expected block | fail"
            )
        if self.watchdog_interval_us < 0:
            raise ValueError("negative watchdog interval")
        self._check_reliability()
        self._check_flow_control()
        self._check_sessions()

    def per_mtu_cost(self, profile: NicProfile) -> float:
        """Data-path inspection cost per MTU for this driver."""
        for tech, cost in self.per_mtu_cost_by_tech:
            if tech == profile.tech:
                return cost
        return self.per_mtu_cost_us


@dataclass
class EngineStats(ReliabilityStats, FlowControlStats, SessionStats):
    """Counters the tests, benches and ablations read: each declared once
    with :func:`counter`, here or in the mixin next to its opt-in layer."""

    phys_packets: int = counter("core")
    items_sent: int = counter("core")
    aggregated_packets: int = counter("core")   # packets with >= 2 segments
    aggregated_segments: int = counter("core")  # segments in such packets
    anticipated_hits: int = counter("core")     # refills from a prepared packet
    eager_bytes: int = counter("core")
    rdv_bytes: int = counter("core")
    wire_bytes: int = counter("core")
    recv_copies: int = counter("core")
    recv_copy_bytes: int = counter("core")
    deadlines_expired: int = counter("adaptive")  # failed by their deadline_us

    #: Report order; counters keep their declaration order within a group.
    GROUP_ORDER = ("core", "reliability", "flow_control", "sessions",
                   "partition", "adaptive")

    @classmethod
    def groups(cls) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """``(group, counter names)``: what ``repro report`` renders."""
        return tuple(
            (g, tuple(f.name for f in fields(cls) if f.metadata["group"] == g))
            for g in cls.GROUP_ORDER)


class NmadEngine:
    """One node's NewMadeleine instance."""

    def __init__(
        self,
        node: Node,
        strategy: str | Strategy = "aggregation",
        params: EngineParams | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        if not node.nics:
            raise MpiError(f"{node.name}: engine needs at least one NIC")
        self.node = node
        self.sim = node.sim
        self.node_id = node.node_id
        self.params = params if params is not None else EngineParams()
        self.tracer = tracer if tracer is not None else node.tracer
        self._source = f"node{self.node_id}.engine"
        self.strategy: Strategy = (
            create(strategy) if isinstance(strategy, str) else strategy
        )
        self.stats = EngineStats()
        #: Some layer retransmits, so replayed frames are dropped, not errors.
        self.dedup = self.params.reliability != "off"
        #: Peers confirmed dead (by the session layer; empty without it).
        self.dead_peers: set[int] = set()
        self.window = OptimizationWindow(n_rails=len(node.nics))
        self.matcher = Matcher(self._on_match, tracer=self.tracer,
                               name=f"node{self.node_id}.matcher",
                               dedup=self.dedup,
                               max_unexpected_bytes=
                                   self.params.max_unexpected_bytes)
        self.rendezvous = RendezvousManager(self)
        self.collect = CollectLayer(self)
        # True once this engine's node crashed: every timer closure and
        # idle callback of the dead incarnation checks it and goes silent.
        self.halted = False
        # Adaptive timing (rel_timeout_us="auto"): one estimator shared by
        # the reliability RTO, the session failure detector, and the
        # flow-control pacing timers.  None in static mode — the layers
        # check for it, so static-mode behaviour is provably untouched.
        self.rtt: RttEstimator | None = None
        if self.params.rel_adaptive:
            self.rtt = RttEstimator(
                floor_us=self.params.rel_rto_floor_us,
                ceiling_us=self.params.rel_rto_ceiling_us,
                headroom=self.params.rel_rto_headroom,
            )
        self.transfer = TransferLayer(self)
        # The opt-in pipeline: a layer that is off is not constructed, so in
        # paper mode both tuples are empty and nothing sits between the
        # transfer layer and the NIC.
        p = self.params
        self.sessions = SessionLayer(self) if p.sessions == "epoch" else None
        self.reliability = (ReliabilityLayer(self)
                            if p.reliability == "ack" else None)
        self.flowcontrol = (FlowControlLayer(self)
                            if p.flow_control == "credit" else None)
        #: Receive order, wire first.  Halt, quiesce, teardown and the
        #: diagnostics iterate this tuple too.
        self.layers: tuple[Layer, ...] = tuple(
            layer for layer in (self.sessions, self.reliability,
                                self.flowcontrol) if layer is not None)
        #: Transmit order.  Not the mirror image: the session gate precedes
        #: sequencing, so a parked frame draws its sequence number and ack
        #: snapshot when it actually leaves.
        self.tx_layers: tuple[Layer, ...] = tuple(
            layer for layer in (self.flowcontrol, self.sessions,
                                self.reliability) if layer is not None)
        self.watchdog: Watchdog | None = None
        if self.params.watchdog_interval_us > 0:
            self.watchdog = Watchdog(
                self.sim, self.params.watchdog_interval_us,
                progress=self._progress_token,
                active=self._watchdog_active,
                diagnose=self._stall_report,
                name=f"node{self.node_id}.watchdog",
            )
        self.sim.add_deadlock_hint(self._deadlock_hint)

    # -- strategy management (paper abstract: dynamically extensible) -----
    def set_strategy(self, strategy: str | Strategy, **params: Any) -> None:
        """Swap the optimization function at runtime."""
        self.strategy = (
            create(strategy, **params) if isinstance(strategy, str) else strategy
        )
        self.transfer.kick()

    # -- native send/recv API ------------------------------------------------
    def isend(
        self,
        dest: int,
        data: SegmentData | bytes | bytearray | memoryview | int,
        tag: int = 0,
        flow: int = 0,
        priority: int = 0,
        rail: int | None = None,
        allow_reorder: bool = True,
        depends_on: int | None = None,
        deadline_us: float | None = None,
        request_cls: type[SendRequest] = SendRequest,
    ) -> SendRequest:
        """Nonblocking send; returns a handle (a ``request_cls``, its own
        completion event) that fires when the data has fully left this node.

        ``deadline_us`` bounds the virtual time the request may stay
        pending: on expiry a send whose data has not left the node is
        retracted exactly like :meth:`cancel` and fails with
        :class:`~repro.errors.DeadlineExceededError`; once the data is
        mid-flight the deadline lapses (too late, like MPI_Cancel on a
        matched send).
        """
        if dest in self.dead_peers:
            raise PeerDeadError(
                f"node{self.node_id}: isend to node {dest}, a peer "
                "confirmed dead (revoke or shrink the communicator)"
            )
        req = self.collect.submit(dest, data, flow, tag, priority, rail,
                                  allow_reorder, depends_on,
                                  request_cls).completion
        assert req is not None
        if deadline_us is not None:
            self._arm_deadline(req, deadline_us)
        return req

    def irecv(
        self,
        src: int = ANY,
        tag: int = ANY,
        flow: int = 0,
        nbytes: int | None = None,
        deadline_us: float | None = None,
        request_cls: type[RecvRequest] = RecvRequest,
    ) -> RecvRequest:
        """Nonblocking receive (the handle is a ``request_cls``); ``nbytes``
        bounds acceptable message size.

        ``deadline_us`` bounds the virtual time the receive may stay
        unmatched: on expiry it is unposted and fails with
        :class:`~repro.errors.DeadlineExceededError`; a receive already
        matched (data landing) completes normally.
        """
        if src in self.dead_peers:
            raise PeerDeadError(
                f"node{self.node_id}: irecv from node {src}, a peer "
                "confirmed dead (revoke or shrink the communicator)"
            )
        req = request_cls(self.sim, src, flow, tag, nbytes, self.sim.now)
        self.matcher.post(req)
        if src != ANY:
            for layer in self.layers:
                layer.on_post(src)
        if deadline_us is not None:
            self._arm_deadline(req, deadline_us)
        if self.watchdog is not None:
            self.poke_watchdog()
        return req

    # -- per-request deadlines -----------------------------------------------
    def _arm_deadline(
        self, req: SendRequest | RecvRequest, deadline_us: float
    ) -> None:
        if deadline_us <= 0:
            raise MpiError(
                f"node{self.node_id}: deadline_us must be positive, "
                f"got {deadline_us}"
            )
        self.sim.schedule(deadline_us,
                          lambda: self._deadline_fire(req, deadline_us))

    def _deadline_fire(
        self, req: SendRequest | RecvRequest, deadline_us: float
    ) -> None:
        # A completed request (either way) or a halted engine makes the
        # timer a no-op — deadlines never fail anything retroactively.
        if self.halted or req.triggered:
            return
        if isinstance(req, RecvRequest):
            if not self.matcher.unpost(req, now=self.sim.now):
                return  # already matched: the data is landing, let it
            err = DeadlineExceededError(
                f"node{self.node_id}: receive (src={req.posted_src} "
                f"flow={req.flow} tag={req.posted_tag}) unmatched after its "
                f"{deadline_us:g}us deadline"
            )
            self.stats.deadlines_expired += 1
            req.fail_observed(err)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self._source,
                                 "deadline_expired", side="recv",
                                 tag=req.posted_tag)
            return
        err = DeadlineExceededError(
            f"node{self.node_id}: send {req.wrap!r} still pending after "
            f"its {deadline_us:g}us deadline"
        )
        if self._retract_send(req, err, trace="deadline_expired"):
            self.stats.deadlines_expired += 1

    def cancel(self, request: SendRequest) -> bool:
        """Cancel a send that has not been scheduled yet.

        A unique capability of the decoupled design: until a NIC accepts
        the physical packet a strategy planned a wrap into, the wrap sits in
        the optimization window and the data has not left the node, so
        cancellation can still succeed — a plan prepared ahead (paper §3.2
        anticipation) that names the wrap simply lapses.  Returns ``True``
        then (the request's completion *fails* with :class:`MpiError` so
        waiters are not left hanging), ``False`` if the data already left
        or is mid-flight (rendezvous announced) — too late, like MPI_Cancel
        on a matched send — or the request was settled before.

        Because the wrap already consumed a sequence number in its
        (dest, flow) stream, a tiny tombstone record travels in its place
        so the receiver's in-order machinery never stalls on the hole.
        """
        if request.wrap is None:
            return False
        return self._retract_send(
            request, MpiError(f"send cancelled: {request.wrap!r}"),
            trace="cancel")

    def _retract_send(
        self, req: SendRequest, err: MpiError, trace: str
    ) -> bool:
        """Pull a pending send's wrap back out of the engine and fail it.

        The shared back-out machinery of :meth:`cancel` and the
        per-request deadline path: a deferred submission is simply
        dropped; a wrap in the optimization window is taken out and
        replaced by a tombstone for its consumed sequence number.  Returns
        ``False`` — and fails nothing — when the data already left the node.
        """
        wrap = req.wrap
        assert wrap is not None
        if self.collect.cancel_deferred(wrap):
            # Never admitted: no sequence number consumed, no tombstone due.
            req.settle(err)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.collect.source, trace,
                                 wrap=wrap.wrap_id)
            return True
        if wrap not in self.window:
            return False
        self.window.take(wrap)
        req.settle(err)
        tombstone = CancelItem(src=self.node_id, flow=wrap.flow,
                               tag=wrap.tag, seq=wrap.seq)
        self.collect.submit_control(dest=wrap.dest, item=tombstone)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.collect.source, trace,
                             wrap=wrap.wrap_id)
        return True

    # -- blocking helpers for simulator processes -----------------------------
    def send(
        self,
        dest: int,
        data: SegmentData | bytes | bytearray | memoryview | int,
        **kwargs: Any,
    ) -> Generator[Event, None, SendRequest]:
        """Process-style blocking send: ``yield from engine.send(...)``."""
        req = self.isend(dest, data, **kwargs)
        yield req
        return req

    def recv(
        self, src: int = ANY, tag: int = ANY, **kwargs: Any
    ) -> Generator[Event, None, RecvRequest]:
        """Process-style blocking receive; returns the completed request."""
        req = self.irecv(src=src, tag=tag, **kwargs)
        yield req
        return req

    # -- match dispatch -----------------------------------------------------------
    def _on_match(self, inc: Incoming, req: RecvRequest) -> None:
        for layer in self.layers:
            layer.on_match(inc)
        if req.capacity is not None and inc.nbytes > req.capacity:
            err = MpiError(
                f"node{self.node_id}: truncation — {inc.nbytes}B message "
                f"(src={inc.src} flow={inc.flow} tag={inc.tag}) into a "
                f"{req.capacity}B receive"
            )
            req.fail_observed(err)
            return
        if isinstance(inc.item, RdvReqItem):
            self.rendezvous.grant(inc.item, req)
            return
        item = inc.item
        assert isinstance(item, SegItem)
        data = item.data
        nbytes = data.nbytes
        if self.params.eager_copy_on_recv and nbytes > 0:
            # Eager data lands in a driver buffer and is copied out to the
            # user buffer; the request completes after the copy, and copies
            # serialize on the host memory engine.
            delay = self.node.serialize_copy(
                self.node.memory.copy_time(nbytes))
            self.stats.recv_copies += 1
            self.stats.recv_copy_bytes += nbytes
            self.sim.schedule(
                delay, partial(req.finish, data, inc.src, inc.tag))
        else:
            req.finish(data, inc.src, inc.tag)

    # -- crash / drain lifecycle ---------------------------------------------
    def halt(self) -> None:
        """Silence this engine: its node crashed (fail-stop).

        Registered as a node crash hook by the session layer.  A
        dead process must not tick into its successor's incarnation, so
        every virtual-time timer of this engine — retransmit and delayed-ack
        timers, credit grant and NACK-resend timers, session monitors, the
        progress watchdog — is cancelled.
        No completion callbacks run: from the dead node's perspective the
        world simply stops, exactly like a real crash.
        """
        if self.halted:
            return
        self.halted = True
        if self.watchdog is not None:
            self.watchdog.disarm()
        for layer in self.layers:
            layer.halt()
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self._source, "halt")

    def quiesce(
        self, poll_us: float = 5.0, timeout_us: float = 1_000_000.0
    ) -> Generator[Event, None, None]:
        """Process-style drain: block until the engine holds no deferred
        work (``yield from engine.quiesce()``).

        The clean-teardown counterpart of crash recovery: an application
        that learned of a peer's death (:class:`PeerDeadError`,
        ``Comm.shrink``) drains its engine before carrying on, so no
        half-sent aggregate or pending grant leaks into the next phase.
        Raises :class:`~repro.errors.SimulationError` after ``timeout_us``.
        """
        deadline = self.sim.now + timeout_us
        while not self.quiesced():
            if self.sim.now >= deadline:
                raise SimulationError(
                    f"node{self.node_id}: quiesce() still not drained "
                    f"after {timeout_us:g}us"
                )
            yield self.sim.timeout(poll_us)

    # -- progress watchdog ---------------------------------------------------
    def poke_watchdog(self) -> None:
        """(Re)arm the watchdog on new work; no-op when it is disabled."""
        wd = self.watchdog
        if wd is not None:
            wd.arm()

    def _progress_token(self) -> object:
        """Changes whenever the engine makes any observable forward progress:
        a frame leaves or lands, a message matches, or credit moves."""
        stats = self.stats
        return (
            stats.phys_packets, stats.wire_bytes, stats.recv_copies,
            stats.credits_granted, stats.nack_resends,
            # Session transitions are progress (a declared death *unblocks*
            # waiters); heartbeats_sent deliberately is not — a probe loop
            # towards a wedged peer must not mask the stall.
            stats.peers_dead, stats.epochs_started, stats.stale_frames_fenced,
            # Parking and recovery are progress too: a healing partition
            # must not read as a stall while parked traffic drains.
            stats.peers_recovered, stats.frames_parked,
            self.matcher.delivered, self.matcher.n_posted,
            self.rendezvous.n_pending, self.rendezvous.n_granted,
        )

    def _watchdog_active(self) -> bool:
        """Work is outstanding, so a frozen token means a stall.

        Flow-control transients (a delayed grant advertisement, a scheduled
        NACK resend) are deliberately excluded: they are simulator timers
        that always fire on their own, so they cannot be stall symptoms —
        counting them would trip the watchdog on a healthy receiver whose
        only pending "work" is a coalesced credit grant.  When a resend
        fires it re-arms the watchdog via :meth:`poke_watchdog`.
        """
        return (
            self.matcher.n_posted > 0
            or not self._core_drained()
            or any(layer.has_outstanding() for layer in self.layers)
        )

    def _stall_report(self) -> str:
        """Per-peer window/layer dump for ProgressStallError."""
        win = self.window
        m = self.matcher
        lines = [f"node{self.node_id}: no engine progress "
                 f"(strategy={self.strategy.describe()})"]
        for peer in sorted(set(win.dests()) | set(win.blocked_dests())):
            blocked = " [credit-blocked]" if win.is_blocked(peer) else ""
            lines.append("; ".join(
                [f"  peer {peer}: window backlog={win.backlog(peer)} wraps/"
                 f"{win.backlog_bytes(peer)}B{blocked}"]
                + [layer.describe_peer(peer) for layer in self.layers]))
        lines.append(
            f"  collect: deferred={self.collect.n_deferred} submissions"
        )
        lines.append(
            f"  matcher: posted={m.n_posted} parked={m.n_parked} "
            f"unexpected={m.n_unexpected} ({m.unexpected_bytes}B buffered, "
            f"{m.refused_total} refused)"
        )
        lines.append(
            f"  rendezvous: pending={self.rendezvous.n_pending} "
            f"granted={self.rendezvous.n_granted} "
            f"incoming={self.rendezvous.n_incoming}"
        )
        return "\n".join(lines)

    # -- introspection ------------------------------------------------------------
    def quiesced(self) -> bool:
        """True when the engine holds no deferred work (end-of-test check)."""
        return (self._core_drained()
                and all(layer.quiesced for layer in self.layers))

    def _core_drained(self) -> bool:
        """The paper's three layers hold no deferred work."""
        return (
            self.window.empty
            and not self.transfer.has_anticipated
            and self.rendezvous.n_pending == 0
            and self.rendezvous.n_granted == 0
            and self.rendezvous.n_incoming == 0
            and self.matcher.n_parked == 0
            and self.collect.n_deferred == 0
        )

    def _deadlock_hint(self) -> str | None:
        """Engine-specific diagnosis appended to the kernel's deadlock error.

        A dropped frame is invisible to the engines themselves (both sides
        can be fully quiesced while the application hangs), so the stall
        signal is an outstanding posted receive or unquiesced state.
        """
        if self.halted:
            # A crashed node's engine is not stuck; it is dead.  The live
            # side's own hint (dead peers, sessions off) explains the hang.
            return None
        dead = sorted(self.dead_peers)
        if dead:
            return (
                f"node{self.node_id}: peer(s) {dead} confirmed dead — "
                "requests towards them failed with PeerDeadError; "
                "revoke/shrink the communicator to move on"
            )
        if self.stats.transport_failures:
            return (
                f"node{self.node_id}: retry budget exhausted on "
                f"{self.stats.transport_failures} frame(s) — the affected "
                "requests failed with TransportError"
            )
        if self.matcher.n_posted == 0 and self.quiesced():
            return None
        blocked = self.window.blocked_dests()
        if blocked:
            return (
                f"node{self.node_id}: credit-blocked towards peer(s) "
                f"{blocked} — the receiver never released credit "
                "(application not consuming?)"
            )
        if self.params.reliability == "off":
            return (
                f"node{self.node_id}: reliability='off' — no retransmission "
                "(paper mode); a lost or corrupted frame stalls its stream "
                "forever"
            )
        return (f"node{self.node_id}: reliability='ack' still awaiting "
                "delivery")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NmadEngine node{self.node_id} strategy={self.strategy.describe()} "
            f"rails={len(self.node.nics)}>"
        )
