"""The Madeleine-style incremental message-building interface.

Paper §3.4: "The first interface is similar to the interface of the former
Madeleine library, it allows to incrementally build messages.  With this
interface, a NewMadeleine message is made of several pieces of data,
located anywhere in user-space.  The message is initiated and finalized
with a synchronization barrier call."

Each :meth:`PackMessage.pack` submits one piece immediately — the engine is
free to schedule, aggregate or reorder it right away; per-flow sequence
numbers keep the receiving side's pieces in pack order.  The
:meth:`PackMessage.end_pack` barrier returns an event that fires when every
piece has left the node.  The unpack side mirrors it.
"""

from __future__ import annotations


from repro.core.data import SegmentData
from repro.core.engine import NmadEngine
from repro.core.requests import RecvRequest, SendRequest
from repro.errors import MpiError
from repro.sim import Event

__all__ = ["PackMessage", "UnpackMessage", "begin_pack", "begin_unpack"]


class PackMessage:
    """Incrementally built outgoing message (a sequence of pieces)."""

    def __init__(self, engine: NmadEngine, dest: int, tag: int = 0,
                 flow: int = 0) -> None:
        self.engine = engine
        self.dest = dest
        self.tag = tag
        self.flow = flow
        self.requests: list[SendRequest] = []
        self._finalized = False

    def pack(
        self,
        data: SegmentData | bytes | bytearray | memoryview | int,
        priority: int = 0,
        rail: int | None = None,
        allow_reorder: bool = True,
    ) -> SendRequest:
        """Append one piece; it is submitted to the engine immediately."""
        if self._finalized:
            raise MpiError("pack() after end_pack()")
        req = self.engine.isend(
            self.dest, data, tag=self.tag, flow=self.flow,
            priority=priority, rail=rail, allow_reorder=allow_reorder,
        )
        self.requests.append(req)
        return req

    def end_pack(self) -> Event:
        """Finalize: an event that fires once every piece has been sent."""
        if self._finalized:
            raise MpiError("end_pack() called twice")
        self._finalized = True
        return self.engine.sim.all_of(self.requests)


class UnpackMessage:
    """Incrementally consumed incoming message."""

    def __init__(self, engine: NmadEngine, src: int, tag: int = 0,
                 flow: int = 0) -> None:
        self.engine = engine
        self.src = src
        self.tag = tag
        self.flow = flow
        self.requests: list[RecvRequest] = []
        self._finalized = False

    def unpack(self, nbytes: int | None = None) -> RecvRequest:
        """Post a receive for the next piece of the message."""
        if self._finalized:
            raise MpiError("unpack() after end_unpack()")
        req = self.engine.irecv(src=self.src, tag=self.tag, flow=self.flow,
                                nbytes=nbytes)
        self.requests.append(req)
        return req

    def end_unpack(self) -> Event:
        """Finalize: an event that fires once every piece has landed."""
        if self._finalized:
            raise MpiError("end_unpack() called twice")
        self._finalized = True
        return self.engine.sim.all_of(self.requests)


def begin_pack(engine: NmadEngine, dest: int, tag: int = 0,
               flow: int = 0) -> PackMessage:
    """Start building an outgoing message (Madeleine ``mad_begin_packing``)."""
    return PackMessage(engine, dest, tag=tag, flow=flow)


def begin_unpack(engine: NmadEngine, src: int, tag: int = 0,
                 flow: int = 0) -> UnpackMessage:
    """Start consuming an incoming message (Madeleine ``mad_begin_unpacking``)."""
    return UnpackMessage(engine, src, tag=tag, flow=flow)
