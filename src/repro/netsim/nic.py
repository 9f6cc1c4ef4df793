"""NIC device model.

The NIC is the heart of the substrate because the whole NewMadeleine design
revolves around NIC *activity*: "While the NICs are busy, NewMadeleine
keeps accumulating packets... As soon as a NIC becomes idle, the
optimization window is analyzed" (paper §3.1).  The model therefore exposes
exactly the two things the engine's transfer layer consumes:

* a **busy/idle state machine**: a NIC serializes transmissions; each frame
  occupies the card for ``send_overhead + cpu_gap + wire_size/bandwidth``
  microseconds, and
* an **idle notification hook** fired the instant the card runs out of
  queued work — this is the "processor asking the process scheduler for the
  next ready process" analogy of paper §3.3.

Frames are delivered to the peer NIC through a :class:`~repro.netsim.link.Link`
after the wire latency, where the receive handler runs after
``recv_overhead``.  Reception is full-duplex (does not block transmission),
like the real hardware.

The same device serves the baselines: they simply push frames into the tx
queue (the hardware pipelines them back-to-back with ``pipeline_gap_us``
between frames — the efficient pipelining paper §5.2 credits MPICH with),
while the NewMadeleine transfer layer holds packets back and refills the
card one optimized packet at a time via the idle hook.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from functools import partial
from typing import ClassVar

from repro.errors import NetworkError
from repro.netsim.frames import Frame
from repro.netsim.link import Link
from repro.netsim.profiles import NicProfile
from repro.netsim.units import wire_time_us
from repro.sim import Event, Simulator, Tracer

__all__ = ["Nic"]


class Nic:
    """One network interface card attached to a node."""

    #: NICs are terminal link endpoints: links addressed elsewhere raise.
    #: Switches (:mod:`repro.netsim.fabric`) override this to forward.
    is_forwarder: ClassVar[bool] = False

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        rail: int,
        profile: NicProfile,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.node_id = node_id
        self.rail = rail
        self.profile = profile
        self.tracer = tracer if tracer is not None else Tracer()
        self.name = f"node{node_id}.nic{rail}.{profile.tech}"
        self._links: dict[int, Link] = {}
        # Structured fabrics attach one uplink into the switched fabric
        # instead of a link per peer; it is the routing fallback for any
        # destination without a direct point-to-point link.
        self._uplink: Link | None = None
        self._queue: deque[tuple[Frame, float, Event]] = deque()
        self._transmitting = False
        self._rx_handler: Callable[[Frame], None] | None = None
        self._idle_callbacks: list[Callable[[Nic], None]] = []
        self._idle_wanted: list[Callable[[], bool] | None] = []
        # Crash/restart lifecycle: a generation counter invalidates the
        # tx/rx completion closures already in the event queue when the
        # card loses power, so a frame half-serialized at crash time never
        # reaches the wire and a frame half-received never reaches a
        # handler from the previous incarnation.
        self.up = True
        self._gen = 0
        # Receive coalescing: adjacent same-timestamp arrivals append to one
        # pending handler batch (one queue entry, one dispatch) when the
        # kernel's mark() proves nothing else was scheduled in between —
        # see _arrive for the exact guard.
        self._rx_batch: list[Frame] | None = None
        self._rx_mark = -1
        self._rx_due = -1.0
        self._rx_gen = -1
        # Statistics (exercised by tests and utilization benches).
        self.frames_sent = 0
        self.frames_received = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.frames_lost = 0
        self.busy_time = 0.0
        self._tx_started_at = 0.0

    # -- wiring -------------------------------------------------------------
    def connect(self, dst_node: int, link: Link) -> None:
        """Attach the outgoing link towards ``dst_node``."""
        if dst_node in self._links:
            raise NetworkError(f"{self.name}: already connected to node {dst_node}")
        if dst_node == self.node_id:
            raise NetworkError(f"{self.name}: cannot connect a NIC to itself")
        self._links[dst_node] = link

    def set_uplink(self, link: Link) -> None:
        """Attach the fabric uplink (at most one; fabric builders call this)."""
        if self._uplink is not None:
            raise NetworkError(f"{self.name}: uplink already attached")
        self._uplink = link

    @property
    def uplink(self) -> Link | None:
        """The fabric uplink, if this NIC hangs off a switched topology."""
        return self._uplink

    def peers(self) -> list[int]:
        """Node ids reachable through a *direct* link on this NIC."""
        return sorted(self._links)

    def has_peer(self, dst_node: int) -> bool:
        """Can this NIC reach ``dst_node`` (direct link or fabric uplink)?"""
        if dst_node in self._links:
            return True
        return self._uplink is not None and dst_node != self.node_id

    def _route(self, dst_node: int) -> Link | None:
        """The egress link for ``dst_node``: direct if present, else uplink."""
        link = self._links.get(dst_node)
        return link if link is not None else self._uplink

    def set_receive_handler(self, fn: Callable[[Frame], None]) -> None:
        """Install the upper layer's frame-arrival handler."""
        self._rx_handler = fn

    def add_idle_callback(
        self,
        fn: Callable[[Nic], None],
        wanted: Callable[[], bool] | None = None,
    ) -> None:
        """Register ``fn(nic)`` to run every time the card goes idle.

        This is the hook the NewMadeleine transfer layer uses to pull the
        next optimized packet "as soon as a card becomes idle" (paper §3.3).
        The edge is reported through the event queue, never inline, and only
        if somebody wants it: ``wanted()`` is asked at the idle edge itself
        and a false answer is the registrant's promise that ``fn`` would find
        nothing to do — then the edge costs no queue entry at all.  Without
        a predicate every edge is wanted.  An edge any registrant wants is
        delivered to all of them, so ``fn`` must stay correct when called
        anyway.
        """
        self._idle_callbacks.append(fn)
        self._idle_wanted.append(wanted)

    # -- state ----------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """True when the card is neither transmitting nor has queued frames."""
        return self.up and not self._transmitting and not self._queue

    @property
    def queued(self) -> int:
        """Frames waiting in the tx queue (not counting the one on the wire)."""
        return len(self._queue)

    # -- transmission -----------------------------------------------------------
    def post_send(self, frame: Frame, cpu_gap_us: float = 0.0) -> Event:
        """Queue ``frame`` for transmission; returns a tx-completion event.

        The returned event succeeds when the frame has fully left the card
        (serialization done), *not* when it arrives — matching how drivers
        report send completion.  ``cpu_gap_us`` charges extra host CPU time
        on the critical path for this frame (the engine uses it for its
        per-frame scheduler inspection cost, paper §5.1).
        """
        if frame.src_node != self.node_id:
            raise NetworkError(
                f"{self.name}: frame src node {frame.src_node} != {self.node_id}"
            )
        if self._route(frame.dst_node) is None:
            raise NetworkError(
                f"{self.name}: no link to node {frame.dst_node} "
                f"(connected: {self.peers()}, no uplink)"
            )
        if cpu_gap_us < 0:
            raise NetworkError(f"negative cpu gap {cpu_gap_us}")
        done = self.sim.event(("txdone:%s", frame.frame_id))
        if not self.up:
            # A send racing the crash is benign: the frame is lost and the
            # completion event never fires, exactly as if the power died
            # one microsecond later.
            self.frames_lost += 1
            return done
        self._queue.append((frame, cpu_gap_us, done))
        if not self._transmitting:
            self._start_next(first_of_burst=True)
        return done

    def _start_next(self, first_of_burst: bool) -> None:
        frame, cpu_gap, done = self._queue.popleft()
        self._transmitting = True
        self._tx_started_at = self.sim.now
        tx_time = (
            self.profile.send_overhead_us
            + cpu_gap
            + wire_time_us(frame.wire_size, self.profile.bandwidth_mbps)
        )
        if not first_of_burst:
            # Back-to-back streaming pays the inter-frame pipeline gap
            # instead of a full fresh injection.
            tx_time += self.profile.pipeline_gap_us - self.profile.send_overhead_us
            tx_time = max(tx_time, 0.0)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "tx_start",
                             frame=frame.frame_id, fkind=frame.kind,
                             size=frame.wire_size, tx_time=round(tx_time, 4))
        self.sim.schedule(
            tx_time, partial(self._finish_tx, frame, done, self._gen))

    def _finish_tx(self, frame: Frame, done: Event, gen: int) -> None:
        if gen != self._gen:
            return  # card crashed mid-serialization; frame never hit the wire
        self.frames_sent += 1
        self.bytes_sent += frame.wire_size
        self.busy_time += self.sim.now - self._tx_started_at
        link = self._route(frame.dst_node)
        if link is None:  # pragma: no cover - post_send already validated
            raise NetworkError(f"{self.name}: lost route to {frame.dst_node}")
        link.transmit(frame)
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "tx_done",
                             frame=frame.frame_id)
        done.succeed(frame)
        if self._queue:
            self._start_next(first_of_burst=False)
        else:
            self._transmitting = False
            self._notify_idle()

    def _notify_idle(self) -> None:
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "idle")
        # Deliver via the queue so refill decisions are deterministic and may
        # themselves post sends re-entrantly — but as ONE queued dispatch for
        # the whole list instead of one closure per callback, and none when
        # no registrant wants this edge.  _run_idle_callbacks re-checks
        # ``idle`` before each callback, exactly like the old per-closure
        # guard did: if an earlier callback posts a send, the rest become
        # no-ops for this idle edge and fire again at the next one.
        for wanted in self._idle_wanted:
            if wanted is None or wanted():
                self.sim.schedule(0.0, self._run_idle_callbacks)
                return

    def _run_idle_callbacks(self) -> None:
        for fn in self._idle_callbacks:
            if self.idle:
                fn(self)

    # -- crash / restart --------------------------------------------------------
    def crash(self) -> None:
        """Lose power: drop queued and in-flight frames, detach the host.

        Frames already accepted by ``post_send`` (queued or on the card)
        are lost — their completion events never fire, which is exactly
        the ambiguity real senders face.  The receive handler and idle
        callbacks are detached so a restarted node's *new* engine can
        install its own without the old engine's closures lingering.
        """
        self.frames_lost += len(self._queue) + (1 if self._transmitting else 0)
        self._queue.clear()
        self._transmitting = False
        self._rx_handler = None
        self._idle_callbacks.clear()
        self._idle_wanted.clear()
        self._rx_batch = None
        self.up = False
        self._gen += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "crash")

    def restart(self) -> None:
        """Power the card back up (handlers must be re-installed)."""
        self.up = True
        self._gen += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "restart")

    # -- reception -------------------------------------------------------------
    def _arrive(self, frame: Frame) -> None:
        if not self.up:
            # Arrivals at a dead card vanish silently (counted, so the
            # cluster fault summary can still account for every byte).
            self.frames_lost += 1
            return
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "rx_start",
                             frame=frame.frame_id, fkind=frame.kind,
                             size=frame.wire_size)
        sim = self.sim
        gen = self._gen
        due = sim.now + self.profile.recv_overhead_us
        batch = self._rx_batch
        if (
            batch is not None
            and sim.mark() == self._rx_mark
            and due == self._rx_due
            and gen == self._rx_gen
        ):
            # Same handler timestamp, same card incarnation, and the kernel
            # mark proves NOTHING was scheduled since the pending batch was
            # pushed — so this frame's hypothetical own queue entry would
            # sit immediately behind the batch with no entry in between.
            # Appending is therefore order-identical to a separate dispatch
            # and saves one push + one dispatch (a burst of same-timestamp
            # completions costs one dispatch total).
            batch.append(frame)
            return
        batch = [frame]
        self._rx_batch = batch
        self._rx_gen = gen
        self._rx_due = due
        sim.schedule(self.profile.recv_overhead_us,
                     partial(self._handle_batch, batch, gen))
        self._rx_mark = sim.mark()

    def _handle_batch(self, frames: list[Frame], gen: int) -> None:
        if gen != self._gen:
            # Card crashed between arrival and handler dispatch: the whole
            # batch belongs to the dead incarnation.
            if self._rx_batch is frames:
                self._rx_batch = None
            return
        if self._rx_batch is frames:
            self._rx_batch = None  # no appends once dispatch has begun
        for frame in frames:
            if gen != self._gen:
                return  # card crashed mid-batch (a handler can kill the card)
            self.frames_received += 1
            self.bytes_received += frame.wire_size
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "rx_done",
                                 frame=frame.frame_id)
            if self._rx_handler is None:
                raise NetworkError(
                    f"{self.name}: frame {frame!r} arrived but no receive "
                    "handler is installed"
                )
            self._rx_handler(frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "idle" if self.idle else f"busy(q={len(self._queue)})"
        return f"<Nic {self.name} {state}>"
