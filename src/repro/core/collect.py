"""The collect layer.

Paper §3.3: "The collect layer is in charge of registering the pieces of
data submitted by the various communication flows of the application as
well as the meta-data necessary in their identification by the receiving
side (tag number, sender id, sequence number).  Once encapsulated, ... the
collected pieces of data are inserted onto a dedicated list for a specific
network technology selected by the application or (by default) on the
common list for automatized load-balancing."

Concretely: :meth:`CollectLayer.submit` wraps user data into a
:class:`~repro.core.packet.PacketWrap` with a fresh per-``(dest, flow)``
sequence number, drops it into the optimization window (dedicated or common
list) and kicks the transfer layer so an idle NIC picks it up immediately —
requests only *accumulate* while the cards are busy (paper §3.1).

The paper's window is unbounded.  The opt-in overload protection
(``EngineParams.max_window_wraps`` / ``max_window_bytes``) bounds it here,
at the submission boundary: a submission that would overflow is either
**deferred** on a FIFO queue until :meth:`~repro.core.window.OptimizationWindow.take`
frees space (``window_policy="block"`` — backpressure without losing the
nonblocking ``isend`` API: the caller still gets a request whose completion
fires late) or rejected with :class:`~repro.errors.WindowFullError`
(``"fail"``).  Deferred wraps receive their sequence number at *admission*,
not submission, so the fail-fast policy leaves no holes in a ``(dest,
flow)`` stream, and the FIFO order makes admission order equal submission
order for the wraps that do get in.  Engine control wraps bypass the caps:
they are the grants and acks that drain the window.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import TYPE_CHECKING

from repro.core.data import SegmentData, VirtualData, as_data
from repro.core.packet import PacketWrap, WireItem
from repro.core.requests import SendRequest
from repro.errors import NetworkError, WindowFullError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine

__all__ = ["CollectLayer", "CONTROL_FLOW"]

#: Flow id reserved for engine control traffic (never enters the matcher).
CONTROL_FLOW = -1

#: Priority assigned to control wraps so grants overtake queued data.
CONTROL_PRIORITY = 1_000_000


class CollectLayer:
    """Registers application data pieces and encapsulates their metadata."""

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        #: Trace source (the engine's cancel/deadline retraction emits
        #: under it too).
        self.source = f"node{engine.node_id}.collect"
        self._seq: defaultdict[tuple[int, int], int] = defaultdict(int)
        self._max_wraps = engine.params.max_window_wraps
        self._max_bytes = engine.params.max_window_bytes
        self._bounded = bool(self._max_wraps or self._max_bytes)
        self._fail_fast = engine.params.window_policy == "fail"
        self._deferred: deque[PacketWrap] = deque()
        if self._bounded:
            engine.window.on_space = self._drain_deferred

    def submit(
        self,
        dest: int,
        data: SegmentData | bytes | bytearray | memoryview | int,
        flow: int = 0,
        tag: int = 0,
        priority: int = 0,
        rail: int | None = None,
        allow_reorder: bool = True,
        depends_on: int | None = None,
        request_cls: type[SendRequest] = SendRequest,
    ) -> PacketWrap:
        """Encapsulate one data piece and enter it into the window; its
        ``completion`` is the send request, a fresh ``request_cls``."""
        if dest == self.engine.node_id:
            raise NetworkError(
                f"node{self.engine.node_id}: self-send not supported "
                "(loopback is not a network)"
            )
        if flow == CONTROL_FLOW:
            raise NetworkError(f"flow {CONTROL_FLOW} is reserved for control")
        seg = as_data(data)
        # FIFO fairness: once anything is deferred, every later submission
        # queues behind it even if it would fit — no small-message overtaking
        # of a waiting large one.
        over = self._bounded and (bool(self._deferred)
                                  or not self._fits(seg.nbytes))
        if over:
            self.engine.stats.window_full_events += 1
            if self._fail_fast:
                raise WindowFullError(
                    f"node{self.engine.node_id}: optimization window full "
                    f"({len(self.engine.window)} wraps, "
                    f"{self.engine.window.pending_bytes()}B pending, "
                    f"{len(self._deferred)} deferred) under "
                    f"window_policy='fail'"
                )
        # seq=0 is a placeholder: the real per-(dest, flow) sequence number
        # is assigned at admission so a failed submission leaves no hole.
        sim = self.engine.sim
        req = request_cls(sim, dest, flow, tag)
        req.wrap = wrap = PacketWrap(
            dest, flow, tag, 0, seg, priority, allow_reorder, depends_on,
            rail, sim.now, completion=req,
        )
        if over:
            self._deferred.append(wrap)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(sim.now, self.source, "defer", dest=dest,
                            flow=flow, tag=tag, nbytes=seg.nbytes,
                            queued=len(self._deferred))
            self.engine.poke_watchdog()
            return wrap
        self._admit(wrap)
        return wrap

    def _fits(self, nbytes: int) -> bool:
        """Would one more wrap of ``nbytes`` respect the window caps?

        The byte cap only rejects a *nonempty* window: a single wrap larger
        than ``max_window_bytes`` must still be admissible (alone) or it
        could never be sent.
        """
        window = self.engine.window
        if self._max_wraps and len(window) >= self._max_wraps:
            return False
        return not (self._max_bytes and len(window)
                    and window.pending_bytes() + nbytes > self._max_bytes)

    def _admit(self, wrap: PacketWrap) -> None:
        engine = self.engine
        key = (wrap.dest, wrap.flow)
        wrap.seq = seq = self._seq[key]
        self._seq[key] = seq + 1
        engine.window.submit(wrap)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(engine.sim.now, self.source, "submit",
                        dest=wrap.dest, flow=wrap.flow, tag=wrap.tag,
                        seq=seq, nbytes=wrap.length)
        if engine.watchdog is not None:
            engine.poke_watchdog()
        engine.transfer.kick()

    def _drain_deferred(self) -> None:
        """Window space freed: admit deferred submissions, oldest first."""
        while self._deferred and self._fits(self._deferred[0].length):
            self._admit(self._deferred.popleft())

    def cancel_deferred(self, wrap: PacketWrap) -> bool:
        """Remove a still-deferred wrap from the waiter queue.

        A deferred wrap never drew a sequence number, so — unlike a wrap
        cancelled out of the window — no tombstone needs to travel.
        """
        for i, waiting in enumerate(self._deferred):
            if waiting.wrap_id == wrap.wrap_id:
                del self._deferred[i]
                return True
        return False

    @property
    def n_deferred(self) -> int:
        """Submissions waiting for window space (quiesce/diagnostics)."""
        return len(self._deferred)

    # -- session-layer hooks --------------------------------------------------
    def reset_dest(self, dest: int, exc: BaseException) -> None:
        """Drop sequencing and deferred submissions towards a dead peer.

        Restarting the per-``(dest, flow)`` counters is what lets the next
        incarnation's streams begin at seq 0 — the matcher on the other
        side reset symmetrically.  Deferred (never-admitted) submissions
        fail with ``exc``; they never drew a sequence number, so no
        tombstones are owed.
        """
        for key in [k for k in self._seq if k[0] == dest]:
            del self._seq[key]
        kept: deque[PacketWrap] = deque()
        for wrap in self._deferred:
            if wrap.dest != dest:
                kept.append(wrap)
            elif wrap.completion is not None:
                wrap.completion.settle(exc)
        self._deferred = kept

    def has_deferred_to(self, dest: int) -> bool:
        """Any deferred submission towards ``dest`` (liveness interest)?"""
        return any(w.dest == dest for w in self._deferred)

    def submit_control(
        self, dest: int, item: WireItem, priority: int = CONTROL_PRIORITY
    ) -> PacketWrap:
        """Queue an engine control record (e.g. a rendezvous grant).

        Control wraps carry no payload bytes, never consume a sequence
        number (they bypass the matcher) and travel at maximum priority so
        grants are never stuck behind queued data.  They also bypass the
        window caps: blocking the records that drain the window would
        deadlock it.
        """
        engine = self.engine
        sim = engine.sim
        req = SendRequest(sim, dest, CONTROL_FLOW, 0)
        req.wrap = wrap = PacketWrap(
            dest=dest, flow=CONTROL_FLOW, tag=0, seq=0,
            data=VirtualData(0), priority=priority,
            is_control=True, control_item=item,
            submitted_at=sim.now, completion=req,
        )
        engine.window.submit(wrap)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(sim.now, self.source, "submit_control", dest=dest,
                        item=type(item).__name__)
        if engine.watchdog is not None:
            engine.poke_watchdog()
        engine.transfer.kick()
        return wrap

    def next_seq(self, dest: int, flow: int) -> int:
        """The sequence number the next submit to ``(dest, flow)`` will get.

        Counts only *admitted* submissions; with a bounded window, deferred
        wraps have not drawn their number yet.
        """
        return self._seq[(dest, flow)]
