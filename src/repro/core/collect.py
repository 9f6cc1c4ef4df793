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
sequence number and the engine's next wrap id (entered as outstanding in
the transfer layer's :class:`~repro.core.transfer.WrapLedger`), drops it
into the optimization window (dedicated or common list) and kicks the
transfer layer so an idle NIC picks it up immediately — requests only
*accumulate* while the cards are busy (paper §3.1).
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING

from repro.core.data import SegmentData, VirtualData, as_data
from repro.core.packet import PacketWrap, WireItem
from repro.core.requests import SendRequest
from repro.errors import NetworkError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine

__all__ = ["CollectLayer", "CONTROL_FLOW"]

#: Flow id reserved for engine control traffic (never enters the matcher).
CONTROL_FLOW = -1

#: Priority assigned to control wraps so grants overtake queued data.
CONTROL_PRIORITY = 1_000_000

#: The payload of every control wrap: none, so one instance serves them all.
_NO_PAYLOAD = VirtualData(0)


class CollectLayer:
    """Registers application data pieces and encapsulates their metadata."""

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        #: Trace source (the engine's cancel/deadline retraction emits
        #: under it too).
        self.source = f"node{engine.node_id}.collect"
        self._seq: defaultdict[tuple[int, int], int] = defaultdict(int)
        self._ledger = engine.transfer.sent_wraps

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
        engine = self.engine
        sim = engine.sim
        key = (dest, flow)
        seq = self._seq[key]
        self._seq[key] = seq + 1
        ledger = self._ledger
        ledger.issued = wrap_id = ledger.issued + 1
        ledger.outstanding[wrap_id] = None
        req = request_cls(sim, dest, flow, tag)
        req.wrap = wrap = PacketWrap(
            dest, flow, tag, seq, seg, priority, allow_reorder, depends_on,
            rail, sim.now, completion=req, wrap_id=wrap_id,
        )
        engine.window.submit(wrap)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(sim.now, self.source, "submit", dest=dest, flow=flow,
                        tag=tag, seq=seq, nbytes=wrap.length)
        engine.transfer.kick()
        return wrap

    # -- session-layer hooks --------------------------------------------------
    def reset_dest(self, dest: int) -> None:
        """Drop sequencing towards a dead peer.

        Restarting the per-``(dest, flow)`` counters is what lets the next
        incarnation's streams begin at seq 0 — the matcher on the other
        side reset symmetrically.
        """
        for key in [k for k in self._seq if k[0] == dest]:
            del self._seq[key]

    def submit_control(
        self, dest: int, item: WireItem, priority: int = CONTROL_PRIORITY
    ) -> PacketWrap:
        """Queue an engine control record (a rendezvous grant, a cancel
        tombstone).

        Control wraps carry no payload bytes, never consume a sequence
        number (they bypass the matcher) and travel at maximum priority so
        grants are never stuck behind queued data.  Nobody waits on one, so
        it carries no send request (``completion=None``).
        """
        engine = self.engine
        sim = engine.sim
        ledger = self._ledger
        ledger.issued = wrap_id = ledger.issued + 1
        ledger.outstanding[wrap_id] = None
        wrap = PacketWrap(
            dest=dest, flow=CONTROL_FLOW, tag=0, seq=0, wrap_id=wrap_id,
            data=_NO_PAYLOAD, priority=priority,
            is_control=True, control_item=item, submitted_at=sim.now,
        )
        engine.window.submit(wrap)
        tracer = engine.tracer
        if tracer.enabled:
            tracer.emit(sim.now, self.source, "submit_control", dest=dest,
                        item=type(item).__name__)
        engine.transfer.kick()
        return wrap

    def next_seq(self, dest: int, flow: int) -> int:
        """The sequence number the next submit to ``(dest, flow)`` will get."""
        return self._seq[(dest, flow)]
