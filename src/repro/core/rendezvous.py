"""Rendezvous protocol: announce → grant → zero-copy bulk streaming.

Messages above a NIC's rendezvous threshold cannot travel eagerly (the
receiver could not buffer them); instead the sender announces them with a
tiny :class:`~repro.core.packet.RdvReqItem` that carries full matching
metadata.  The announcement flows through the ordinary matcher, so it can
be **aggregated with small segments in the same physical packet** — the
heart of the paper's derived-datatype result (§5.3: small blocks coalesce
"with the rendez-vous requests of the large blocks, hence the large blocks
are directly received at their final destination, and the whole transfer is
made with a zero-copy technique").

Once the receiver has a matching posted receive it returns a grant
(:class:`RdvAckItem`, itself an aggregable high-priority control record).
The granted transfer then streams as :class:`RdvDataItem` chunks pulled by
idle NICs; with a multirail strategy *any* rail may pull the next chunk,
which is how a message splits heterogeneously across networks (§4, §7).
Bulk chunks land at their final destination with no memory copy.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING

from repro.core.data import Bytes, SegmentData, VirtualData
from repro.core.packet import PacketWrap, RdvAckItem, RdvDataItem, RdvReqItem
from repro.core.requests import RecvRequest
from repro.errors import ProtocolError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import NmadEngine

__all__ = ["RendezvousManager", "RdvSendState", "RdvRecvState"]


class RdvSendState:
    """Sender-side bookkeeping for one announced transfer."""

    __slots__ = ("wrap", "handle", "origin_rail", "granted", "total",
                 "next_offset", "bytes_sent")

    def __init__(self, wrap: PacketWrap, handle: int, origin_rail: int) -> None:
        self.wrap = wrap
        self.handle = handle
        self.origin_rail = origin_rail
        self.granted = False
        self.total = wrap.length  # the announced size
        self.next_offset = 0      # bytes carved into chunks so far
        self.bytes_sent = 0       # bytes whose frames completed transmission


class RdvRecvState:
    """Receiver-side bookkeeping for one granted transfer."""

    __slots__ = ("req", "src", "handle", "total", "received", "pieces", "tag",
                 "drop")

    def __init__(
        self, req: RecvRequest, src: int, handle: int, total: int, tag: int = -1
    ) -> None:
        self.req = req
        self.src = src
        self.handle = handle
        self.total = total
        self.tag = tag
        self.received = 0
        self.pieces: list[tuple[int, SegmentData]] = []
        #: The receive failed before the grant (too small for the message,
        #: MPI_ERR_TRUNCATE): the transfer still runs, so the sender
        #: completes, but what lands is dropped and the receive keeps its
        #: error.
        self.drop = req.triggered

    def land(self, offset: int, data: SegmentData) -> None:
        """Record one chunk, in any order (the transport filter lands each
        once; :meth:`assemble` catches one that landed twice)."""
        if offset < 0 or offset + data.nbytes > self.total:
            raise ProtocolError(
                f"rendezvous chunk [{offset}, {offset + data.nbytes}) outside "
                f"transfer of {self.total}B (src={self.src} "
                f"handle={self.handle})"
            )
        if not self.drop:
            self.pieces.append((offset, data))
        self.received += data.nbytes
        if self.received > self.total:
            raise ProtocolError(
                f"rendezvous transfer overran: {self.received}B > "
                f"{self.total}B (src={self.src} handle={self.handle})"
            )

    @property
    def complete(self) -> bool:
        return self.received == self.total

    def assemble(self) -> SegmentData:
        """Reconstruct the message; the chunks must tile ``[0, total)``."""
        if not self.complete:
            raise ProtocolError("assembling an incomplete rendezvous transfer")
        if len(self.pieces) == 1:
            # One chunk of ``total`` bytes that landed in bounds: it starts
            # at 0, so it is the message.
            data = self.pieces[0][1]
            if isinstance(data, VirtualData):
                return data
        pieces = sorted(self.pieces, key=lambda piece: piece[0])
        end = 0
        for offset, data in pieces:
            if offset != end:  # ``complete`` only counts bytes
                raise ProtocolError(
                    f"rendezvous chunks do not tile the transfer "
                    f"(src={self.src} handle={self.handle})")
            end += data.nbytes
        if any(isinstance(d, VirtualData) for _, d in pieces):
            return VirtualData(self.total)
        return Bytes(b"".join(d.tobytes() for _, d in pieces))


class RendezvousManager:
    """Both halves of the rendezvous state machine for one engine."""

    def __init__(self, engine: NmadEngine) -> None:
        self.engine = engine
        self._source = f"node{engine.node_id}.rendezvous"
        self._handles = itertools.count(1)
        self._pending: dict[int, RdvSendState] = {}
        self._granted: list[RdvSendState] = []
        self._incoming: dict[tuple[int, int], RdvRecvState] = {}
        # Statistics.
        self.handshakes = 0

    # -- sender side --------------------------------------------------------
    def announce(self, wrap: PacketWrap, rail: int) -> RdvReqItem:
        """Turn an oversized wrap into an announcement record."""
        handle = next(self._handles)
        state = RdvSendState(wrap, handle, origin_rail=rail)
        self._pending[handle] = state
        self.handshakes += 1
        return RdvReqItem(self.engine.node_id, wrap.flow, wrap.tag, wrap.seq,
                          handle, wrap.length)

    def on_ack(self, ack: RdvAckItem) -> None:
        """Receiver granted: move the transfer to the streaming queue."""
        state = self._pending.pop(ack.handle, None)
        if state is None:
            raise ProtocolError(
                f"node{self.engine.node_id}: rendezvous ACK for unknown "
                f"handle {ack.handle} (from node {ack.src})"
            )
        state.granted = True
        self._granted.append(state)
        self.engine.transfer.kick()

    def abort(self, handle: int, exc: BaseException) -> None:
        """Fail an announced-or-granted transfer (reliability error path)."""
        state = self._pending.pop(handle, None)
        if state is None:
            for s in self._granted:
                if s.handle == handle:
                    state = s
                    self._granted.remove(s)
                    break
        if state is None:
            return
        if state.wrap.completion is not None:
            state.wrap.completion.settle(exc)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.engine.sim.now, self._source, "abort",
                        handle=handle)

    def reroute_rail(self, rail: int, new_rail: int) -> None:
        """Re-home granted transfers whose origin rail was quarantined.

        Chunks not yet carved then stream from ``new_rail`` (or any rail,
        under a multirail strategy); chunks already in flight are
        retransmitted by the reliability layer itself.
        """
        for state in self._granted:
            if state.origin_rail == rail:
                state.origin_rail = new_rail

    def next_chunk(
        self, rail: int, multirail: bool
    ) -> tuple[RdvSendState, RdvDataItem] | None:
        """Carve the next bulk chunk an idle NIC on ``rail`` may stream."""
        for state in self._granted:
            if not multirail and state.origin_rail != rail:
                continue
            if state.wrap.rail is not None and state.wrap.rail != rail:
                continue  # application pinned this transfer to one rail
            chunk = min(self.engine.params.rdv_chunk_bytes,
                        state.total - state.next_offset)
            item = RdvDataItem(
                self.engine.node_id, state.handle, state.next_offset,
                state.total, state.wrap.data.slice(state.next_offset, chunk))
            state.next_offset += chunk
            if state.next_offset >= state.total:
                self._granted.remove(state)
            return state, item
        return None

    def chunk_sent(self, state: RdvSendState, item: RdvDataItem) -> None:
        """A bulk chunk's frame finished transmission (or was acked)."""
        state.bytes_sent += item.data.nbytes
        if (state.bytes_sent == state.total
                and state.wrap.completion is not None):
            state.wrap.completion.settle()

    def chunk_failed(self, state: RdvSendState, item: RdvDataItem,
                     exc: BaseException) -> None:
        """A bulk chunk exhausted its retransmit budget: fail the send."""
        if state in self._granted:
            self._granted.remove(state)
        if state.wrap.completion is not None:
            state.wrap.completion.settle(exc)
        tracer = self.engine.tracer
        if tracer.enabled:
            tracer.emit(self.engine.sim.now, self._source, "chunk_failed",
                        handle=state.handle, offset=item.offset)

    # -- receiver side -----------------------------------------------------------
    def grant(self, req_item: RdvReqItem, recv_req: RecvRequest) -> None:
        """A matching receive exists: set up landing and send the grant."""
        key = (req_item.src, req_item.handle)
        if key in self._incoming:
            raise ProtocolError(
                f"node{self.engine.node_id}: duplicate rendezvous grant for "
                f"{key}"
            )
        self._incoming[key] = RdvRecvState(
            recv_req, src=req_item.src, handle=req_item.handle,
            total=req_item.nbytes, tag=req_item.tag,
        )
        ack = RdvAckItem(src=self.engine.node_id, handle=req_item.handle)
        self.engine.collect.submit_control(dest=req_item.src, item=ack)

    def on_data(self, item: RdvDataItem) -> None:
        """A bulk chunk landed (zero-copy — no memory charge)."""
        key = (item.src, item.handle)
        state = self._incoming.get(key)
        if state is None:
            raise ProtocolError(
                f"node{self.engine.node_id}: bulk data for unknown "
                f"rendezvous {key}"
            )
        state.land(item.offset, item.data)
        if state.complete:
            del self._incoming[key]
            if not state.drop:
                state.req.finish(state.assemble(), src=item.src,
                                 tag=state.tag)

    # -- session-layer hooks --------------------------------------------------
    def fail_peer(self, peer: int, exc: BaseException) -> None:
        """Fail every transfer — either half — bound to a dead peer.

        Announced and granted sends towards ``peer`` abort (their
        completions fail with ``exc``); half-landed incoming transfers
        from ``peer`` fail their receive.  A re-sent message from the
        peer's next incarnation starts a fresh handshake with a fresh
        handle, so partial reassembly state must never survive an epoch.
        """
        for handle in [h for h, s in self._pending.items()
                       if s.wrap.dest == peer]:
            self.abort(handle, exc)
        for state in [s for s in self._granted if s.wrap.dest == peer]:
            self.abort(state.handle, exc)
        for key in [k for k in self._incoming if k[0] == peer]:
            state = self._incoming.pop(key)
            if not state.req.triggered:
                state.req.fail_observed(exc)
            tracer = self.engine.tracer
            if tracer.enabled:
                tracer.emit(self.engine.sim.now, self._source,
                            "fail_incoming", handle=state.handle,
                            src=peer, received=state.received)

    def involves_peer(self, peer: int) -> bool:
        """Any live transfer with ``peer`` (liveness interest)?"""
        return (
            any(s.wrap.dest == peer for s in self._pending.values())
            or any(s.wrap.dest == peer for s in self._granted)
            or any(k[0] == peer for k in self._incoming)
        )

    # -- introspection -------------------------------------------------------
    @property
    def n_pending(self) -> int:
        return len(self._pending)

    @property
    def n_granted(self) -> int:
        return len(self._granted)

    @property
    def n_incoming(self) -> int:
        return len(self._incoming)
