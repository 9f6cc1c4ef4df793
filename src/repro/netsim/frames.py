"""On-wire frame representation.

A :class:`Frame` is what a NIC transmits: an opaque payload (the engines put
their own packet structures there), a wire size that includes whatever
headers the sending protocol added, and addressing.  The NIC layer never
inspects payloads — exactly like real hardware — which keeps the substrate
reusable by the NewMadeleine engine and by the baseline MPI models alike.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

__all__ = ["Frame", "FrameKind"]


class FrameKind:
    """Well-known frame kinds (free-form strings; these are conventions)."""

    DATA = "data"          # eager data, possibly an aggregate
    RDV_REQ = "rdv_req"    # rendezvous request (control)
    RDV_ACK = "rdv_ack"    # rendezvous acknowledgement (control)
    RDV_DATA = "rdv_data"  # rendezvous bulk data (zero-copy / RDMA path)
    REL_ACK = "rel_ack"    # standalone reliability-layer acknowledgement
    CREDIT = "credit"      # standalone flow-control credit grant
    SESSION_HELLO = "session_hello"      # session handshake: open/announce
    SESSION_WELCOME = "session_welcome"  # session handshake: accept/confirm
    HEARTBEAT = "heartbeat"              # idle-path liveness probe/reply


_frame_ids = itertools.count()


@dataclass(slots=True)
class Frame:
    """One physical packet handed to a NIC for transmission.

    ``wire_size`` is the full on-wire byte count (payload + protocol
    headers) and is what serialization time is charged on.  ``payload_size``
    is the application-useful byte count, kept separately so tests can check
    byte conservation and header overhead independently.

    The three ``rel_*``/``corrupted`` fields belong to the optional
    reliability layer (``EngineParams.reliability="ack"``): ``rel_seq`` is
    the per-peer physical-frame sequence number, ``rel_ack`` a piggybacked
    ``(cumulative, selective...)`` acknowledgement for the reverse
    direction, and ``corrupted`` models a payload whose checksum will fail
    on arrival (set by a link's :class:`~repro.netsim.link.FaultPlan`).
    They stay ``None``/``False`` in the paper-faithful default mode.

    ``fc_grant`` belongs to the optional flow-control layer
    (``EngineParams.flow_control="credit"``): a piggybacked cumulative
    ``(released_bytes_total, released_wraps_total)`` credit grant for the
    reverse direction.  Cumulative totals make grants idempotent, so
    duplication or retransmission by the reliability layer is harmless.

    ``session`` belongs to the optional session layer
    (``EngineParams.sessions="epoch"``): a
    ``(sender_incarnation, receiver_incarnation)`` pair where the second
    element is the *sender's view* of the receiver's incarnation (``-1``
    when unknown, which is only legal on session handshake frames).  The
    receiver fences any frame whose view of it is stale — that is how no
    duplicate or ghost delivery crosses a crash/restart boundary.  Stays
    ``None`` in the paper-faithful default mode.

    ``on_sent`` is the sender's completion cookie (a verbs ``wr_id``): the
    NIC queues it at tx end and clears it first, so no copy ever carries it.
    """

    src_node: int
    dst_node: int
    kind: str
    wire_size: int
    payload: Any = None
    payload_size: int = 0
    rel_seq: int | None = None
    rel_ack: tuple[int, tuple[int, ...]] | None = None
    fc_grant: tuple[int, int] | None = None
    session: tuple[int, int] | None = None
    corrupted: bool = False
    frame_id: int = field(default_factory=_frame_ids.__next__)
    on_sent: Callable[[], None] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.wire_size < 0:
            raise ValueError(f"negative wire size {self.wire_size}")
        if self.payload_size < 0:
            raise ValueError(f"negative payload size {self.payload_size}")
        if self.payload_size > self.wire_size:
            raise ValueError(
                f"payload ({self.payload_size}B) larger than wire size "
                f"({self.wire_size}B); headers cannot be negative"
            )

    @property
    def header_size(self) -> int:
        """Bytes of protocol header carried by this frame."""
        return self.wire_size - self.payload_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Frame#{self.frame_id} {self.kind} {self.src_node}->{self.dst_node} "
            f"wire={self.wire_size}B payload={self.payload_size}B>"
        )
