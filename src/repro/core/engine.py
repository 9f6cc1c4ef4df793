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

import math
from collections.abc import Callable, Generator
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from importlib import import_module
from typing import TYPE_CHECKING, Any, cast

from repro.core.collect import CollectLayer
from repro.core.data import SegmentData
from repro.core.matching import Incoming, Matcher
from repro.core.packet import (
    CancelItem, HeaderSpec, RdvReqItem, SegItem,
)
from repro.core.protocols import (
    FlowControlParams, FlowControlStats, Layer, ReliabilityParams,
    ReliabilityStats, SessionParams, SessionStats, counter, knob,
)
from repro.core.rendezvous import RendezvousManager
from repro.core.requests import ANY, RecvRequest, SendRequest
from repro.core.strategy import Strategy, create
from repro.core.transfer import TransferLayer
from repro.core.window import OptimizationWindow
from repro.errors import (
    DeadlineExceededError, MpiError, PeerDeadError, SimulationError,
)
from repro.netsim.fabric import route_links
from repro.netsim.node import Node
from repro.sim import Event, Tracer

if TYPE_CHECKING:  # pragma: no cover
    # Imported when a layer is built, never by a paper-mode engine.
    from repro.core.flowcontrol import FlowControlLayer
    from repro.core.reliability import ReliabilityLayer
    from repro.core.rttstat import RttEstimator
    from repro.core.sessions import SessionLayer

__all__ = ["OPT_IN", "EngineParams", "EngineStats", "NmadEngine",
           "OptInLayer"]


@dataclass(frozen=True)
class EngineParams(ReliabilityParams, FlowControlParams, SessionParams):
    """Engine cost model and protocol constants.

    The scheduler costs realize the overhead sources of paper §5.1: an
    extra header per physical packet (``hdr``), and "extra operations on
    the critical path to inspect the 'ready list'" —
    :data:`~repro.core.transfer.PULL_COST_US` once per synthesized packet
    plus the rail's
    :attr:`~repro.netsim.profiles.NicProfile.per_mtu_cost_us` per MTU of
    data pushed through the optimizer's data path.

    Every scalar field is a :func:`~repro.core.protocols.knob`, its range
    checked at construction; the opt-in layers' knobs are inherited from
    their mixins in :mod:`repro.core.protocols`, so declaring them loads
    no layer.
    """

    hdr: HeaderSpec = field(default_factory=HeaderSpec)
    #: Dispatch policy (paper 3.2): "on_idle" = synthesize when a NIC asks;
    #: "anticipate" = while all NICs are busy keep one ready-to-send packet
    #: prepared and re-feed it instantly; "backlog" = anticipate only once
    #: the window holds at least ``backlog_flush_threshold`` wraps.
    dispatch_policy: str = knob(
        "on_idle", choices=("on_idle", "anticipate", "backlog"))
    backlog_flush_threshold: int = knob(8, lo=1)
    rdv_chunk_bytes: int = knob(512 * 1024, gt=0)

    def __post_init__(self) -> None:
        for name, spec in _KNOBS:
            spec.check(name, getattr(self, name))
        self._check_sessions()


#: Every declared knob of :class:`EngineParams`, as ``(name, Knob)``.
_KNOBS = tuple((f.name, f.metadata["knob"]) for f in fields(EngineParams)
               if "knob" in f.metadata)


@dataclass(frozen=True)
class OptInLayer:
    """One opt-in stage of the frame pipeline, as :data:`OPT_IN` lists it."""

    knob: str      # the EngineParams mode field
    attr: str      # the engine attribute holding it
    module: str    # the module defining it, imported when the mode is on
    name: str      # the layer class in ``module``
    tx: int        # position on the transmit path

    @property
    def cls(self) -> Callable[[NmadEngine], Layer]:
        """The layer class, built when the mode is :attr:`on`.  Its module
        is imported on first use and the class looked up on every call, so
        a paper-mode process never loads it."""
        return cast("Callable[[NmadEngine], Layer]",
                    getattr(import_module(self.module), self.name))

    @cached_property
    def on(self) -> str:
        """The mode that builds the layer: its knob's one choice but "off"."""
        (mode,) = (c for c in dict(_KNOBS)[self.knob].choices if c != "off")
        return str(mode)


#: The opt-in layers, in receive order (wire first); the engine builds them
#: in this order, so the reliability layer finds ``engine.sessions`` set.
#: Transmit order (``tx``) is not the mirror image: the credit grant is
#: stamped first, and the session gate precedes sequencing, so a parked
#: frame draws its sequence number and ack snapshot when it actually leaves.
OPT_IN: tuple[OptInLayer, ...] = (
    OptInLayer("sessions", "sessions", "repro.core.sessions", "SessionLayer",
               tx=1),
    OptInLayer("reliability", "reliability", "repro.core.reliability",
               "ReliabilityLayer", tx=2),
    OptInLayer("flow_control", "flowcontrol", "repro.core.flowcontrol",
               "FlowControlLayer", tx=0),
)


@dataclass
class EngineStats(ReliabilityStats, FlowControlStats, SessionStats):
    """Counters the tests, benches and ablations read: each declared once
    with :func:`counter`, here or in its opt-in layer's mixin in
    :mod:`repro.core.protocols`."""

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

    #: The opt-in layers (set from :data:`OPT_IN`), ``None`` when off.
    sessions: SessionLayer | None
    reliability: ReliabilityLayer | None
    flowcontrol: FlowControlLayer | None

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
        #: Peers confirmed dead (by the session layer; empty without it).
        self.dead_peers: set[int] = set()
        self.window = OptimizationWindow(n_rails=len(node.nics))
        self.matcher = Matcher(self._on_match, tracer=self.tracer,
                               name=f"node{self.node_id}.matcher")
        self.rendezvous = RendezvousManager(self)
        # True once this engine's node crashed: every timer closure and
        # idle callback of the dead incarnation checks it and goes silent.
        self.halted = False
        self.transfer = TransferLayer(self)
        # After the transfer layer: it issues wrap ids into its ledger.
        self.collect = CollectLayer(self)
        # The opt-in pipeline: a layer that is off is not constructed (nor
        # its module imported), so in paper mode both tuples are empty and
        # nothing sits between the transfer layer and the NIC.
        built: list[tuple[int, Layer]] = []
        for spec in OPT_IN:
            on = getattr(self.params, spec.knob) == spec.on
            layer = spec.cls(self) if on else None
            setattr(self, spec.attr, layer)
            if layer is not None:
                built.append((spec.tx, layer))
        #: Receive order, wire first.  Halt, quiesce, teardown and the
        #: diagnostics iterate this tuple too.
        self.layers: tuple[Layer, ...] = tuple(layer for _, layer in built)
        #: Transmit order (``OptInLayer.tx``).
        self.tx_layers: tuple[Layer, ...] = tuple(
            layer for _, layer in sorted(built, key=lambda entry: entry[0]))
        #: The per-packet and per-message hooks, in ``layers`` order: the
        #: bound method of each layer that overrides the ``Layer`` default.
        self.commit_hooks, self.match_hooks, self.post_hooks = (
            tuple(getattr(layer, hook) for layer in self.layers
                  if getattr(type(layer), hook) is not getattr(Layer, hook))
            for hook in ("commit", "on_match", "on_post"))
        #: The reliability layer's RTT estimator, ``None`` without that
        #: layer (nothing else measures a round trip): flow control paces
        #: its grants on it and ``repro report`` prints it.
        self.rtt: RttEstimator | None = (
            self.reliability.rtt if self.reliability is not None else None)
        self.sim.add_deadlock_hint(self._deadlock_hint)

    @cached_property
    def silence_us(self) -> float:
        """The longest silence a healthy peer can cause: the wire time of
        the largest frame (a rendezvous chunk with every header it can
        carry) plus one link latency per hop of the longest route, on the
        rail where that sum is largest.

        A frame is delivered only once fully serialised, so while one is
        on the wire its receiver hears nothing from the sender.  Computed
        once, for two uses: the cold RTO, and the session layer's
        heartbeat floor while a rendezvous with the peer is live.
        """
        hdr = self.params.hdr
        frame = (self.params.rdv_chunk_bytes + hdr.global_header
                 + hdr.rdv_data_header + hdr.rel_header + hdr.checksum
                 + hdr.credit_header + hdr.session_header)
        return max(frame / nic.profile.bandwidth_mbps
                   + route_links(nic) * nic.profile.latency_us
                   for nic in self.node.nics)

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

        ``depends_on`` holds the send back until another wrap has left the
        node (paper §3.2's dependency attributes); it names a wrap of *this*
        engine, ``req.wrap.wrap_id`` of an earlier send — wrap ids are
        numbered per engine, so another engine's id means nothing here.

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
        if deadline_us is not None:
            self._check_deadline(deadline_us)
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
        if deadline_us is not None:
            self._check_deadline(deadline_us)
        req = request_cls(self.sim, src, flow, tag, nbytes)
        self.matcher.post(req, self.sim.now)
        if src != ANY:
            for hook in self.post_hooks:
                hook(src)
        if deadline_us is not None:
            self._arm_deadline(req, deadline_us)
        return req

    # -- per-request deadlines -----------------------------------------------
    def _check_deadline(self, deadline_us: float) -> None:
        """Reject a bad deadline before the request has any side effect."""
        if not 0 < deadline_us < math.inf:
            raise MpiError(
                f"node{self.node_id}: deadline_us must be positive and "
                f"finite, got {deadline_us}"
            )

    def _arm_deadline(
        self, req: SendRequest | RecvRequest, deadline_us: float
    ) -> None:
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
                f"node{self.node_id}: receive (src={req.match_src} "
                f"flow={req.flow} tag={req.match_tag}) unmatched after its "
                f"{deadline_us:g}us deadline"
            )
            self.stats.deadlines_expired += 1
            req.fail_observed(err)
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self._source,
                                 "deadline_expired", side="recv",
                                 tag=req.match_tag)
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
        per-request deadline path: a wrap in the optimization window is
        taken out and replaced by a tombstone for its consumed sequence
        number.  Returns ``False`` — and fails nothing — when the data
        already left the node.
        """
        wrap = req.wrap
        assert wrap is not None
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
        for hook in self.match_hooks:
            hook(inc)
        if req.capacity is not None and inc.nbytes > req.capacity:
            err = MpiError(
                f"node{self.node_id}: truncation — {inc.nbytes}B message "
                f"(src={inc.src} flow={inc.flow} tag={inc.tag}) into a "
                f"{req.capacity}B receive"
            )
            req.fail_observed(err)
            if type(inc.item) is RdvReqItem:
                # The sender must not be stranded: grant anyway, and the
                # bulk is dropped as it lands.
                self.rendezvous.grant(inc.item, req)
            return
        if type(inc.item) is RdvReqItem:
            self.rendezvous.grant(inc.item, req)
            return
        item = inc.item
        assert type(item) is SegItem
        data = item.data
        nbytes = data.nbytes
        if nbytes > 0:
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
        timers, credit grant timers, session monitors — is cancelled.
        No completion callbacks run: from the dead node's perspective the
        world simply stops, exactly like a real crash.
        """
        if self.halted:
            return
        self.halted = True
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
        )

    def _deadlock_hint(self) -> str | None:
        """Engine-specific diagnosis appended to the kernel's deadlock and
        livelock errors.

        A dropped frame is invisible to the engines themselves (both sides
        can be fully quiesced while the application hangs), so the stall
        signal is an outstanding posted receive or unquiesced state.  An
        unquiesced engine adds a dump of where its work is held: each
        peer's window backlog and per-layer state, then the matcher and
        rendezvous queues.
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
        quiesced = self.quiesced()
        if self.matcher.n_posted == 0 and quiesced:
            return None
        blocked = self.window.blocked_dests()
        if blocked:
            cause = (
                f"node{self.node_id}: credit-blocked towards peer(s) "
                f"{blocked} — the receiver never released credit "
                "(application not consuming?)"
            )
        elif self.params.reliability == "off":
            cause = (
                f"node{self.node_id}: reliability='off' — no retransmission "
                "(paper mode); a lost or corrupted frame stalls its stream "
                "forever"
            )
        else:
            cause = (f"node{self.node_id}: reliability='ack' still awaiting "
                     "delivery")
        if quiesced:
            return cause
        # Deferred work is held somewhere: dump where, peer by peer.
        win = self.window
        m = self.matcher
        rdv = self.rendezvous
        lines = [cause, f"  strategy={self.strategy.describe()}"]
        for peer in sorted(set(win.dests()) | set(blocked)):
            flag = " [credit-blocked]" if win.is_blocked(peer) else ""
            lines.append("; ".join(
                [f"  peer {peer}: window backlog={win.backlog(peer)} wraps/"
                 f"{win.backlog_bytes(peer)}B{flag}"]
                + [layer.describe_peer(peer) for layer in self.layers]))
        lines += [
            f"  matcher: posted={m.n_posted} parked={m.n_parked} "
            f"unexpected={m.n_unexpected} ({m.unexpected_bytes}B buffered)",
            f"  rendezvous: pending={rdv.n_pending} granted={rdv.n_granted} "
            f"incoming={rdv.n_incoming}",
        ]
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<NmadEngine node{self.node_id} strategy={self.strategy.describe()} "
            f"rails={len(self.node.nics)}>"
        )
