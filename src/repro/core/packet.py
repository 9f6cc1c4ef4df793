"""Packet wraps and wire items.

Two levels of "packet" exist in the engine, mirroring the paper:

* a :class:`PacketWrap` is what the **collect layer** produces from one
  application data piece: the data plus "the meta-data necessary in their
  identification by the receiving side (tag number, sender id, sequence
  number)" (paper §3.3), plus the scheduling attributes the optimizer may
  consult ("destination, flow tag, length, sequence number, dependency
  attributes" — §3.2).  Wraps live in the optimization window.

* a **physical packet** is what the strategy synthesizes for an idle NIC:
  a list of :class:`WireItem` records (data segments, rendezvous control
  records, bulk chunks) that travels as a single :class:`~repro.netsim.frames.Frame`.
  Its byte layout is modelled by the header-size constants in
  :class:`HeaderSpec` — the "extra header systematically added ... for
  allowing the reordering and the multiplexing of the packets" whose cost
  Figure 2 measures (§5.1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.data import SegmentData

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.requests import SendRequest

__all__ = [
    "CancelItem",
    "HeaderSpec",
    "PacketWrap",
    "WireItem",
    "SegItem",
    "RdvReqItem",
    "RdvAckItem",
    "RdvDataItem",
    "PhysPacket",
]


@dataclass(frozen=True)
class HeaderSpec:
    """On-wire header byte counts for the engine's packet format.

    ``rel_header`` and ``checksum`` are only charged when the optional
    reliability layer is active (``EngineParams.reliability="ack"``): every
    sequenced frame then carries a sequence number plus a piggybacked
    cumulative/selective acknowledgement (``rel_header``) and a payload
    checksum used to detect corruption on arrival.
    """

    global_header: int = 16   # once per physical packet
    seg_header: int = 16      # per data segment (tag, flow, seq, length)
    rdv_req: int = 24         # rendezvous announce record
    rdv_ack: int = 16         # rendezvous grant record
    rdv_data_header: int = 24 # per bulk chunk (handle, offset, length)
    rel_header: int = 12      # reliability seq + piggybacked ack record
    checksum: int = 4         # payload checksum (reliability mode only)
    credit_header: int = 8    # piggybacked credit grant (flow-control mode)
    session_header: int = 8   # incarnation pair (session mode only)

    def __post_init__(self) -> None:
        for f in ("global_header", "seg_header", "rdv_req", "rdv_ack",
                  "rdv_data_header", "rel_header", "checksum",
                  "credit_header", "session_header"):
            if getattr(self, f) < 0:
                raise ValueError(f"negative header size for {f}")


_wrap_ids = itertools.count(1)


@dataclass(slots=True)
class PacketWrap:
    """One collected application data piece waiting in the window."""

    dest: int                       # destination node id
    flow: int                       # logical channel (e.g. MPI communicator)
    tag: int                        # message tag within the flow
    seq: int                        # per-(dest, flow) submission sequence no.
    data: SegmentData
    priority: int = 0               # higher = deliver earlier if possible
    allow_reorder: bool = True      # may the optimizer overtake with this?
    depends_on: int | None = None  # wrap_id that must be *sent* first
    rail: int | None = None      # pinned rail (dedicated list) or None
    submitted_at: float = 0.0
    is_control: bool = False        # engine-internal control traffic
    credit_exempt: bool = False     # bypasses credit gating (NACK resends)
    control_item: WireItem | None = None  # the item a control wrap carries
    wrap_id: int = field(default_factory=_wrap_ids.__next__)
    #: Settled when the send is over (``None``: nobody waits, NACK resend).
    completion: SendRequest | None = None
    #: Payload byte count, stamped once from ``data`` (which is never
    #: reassigned): the window, the tactics and the plan check all read it.
    length: int = field(init=False)

    def __post_init__(self) -> None:
        if self.dest < 0:
            raise ValueError(f"bad destination {self.dest}")
        if self.seq < 0:
            raise ValueError(f"bad sequence number {self.seq}")
        self.length = self.data.nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Wrap#{self.wrap_id} ->{self.dest} flow={self.flow} tag={self.tag} "
            f"seq={self.seq} {self.length}B prio={self.priority}>"
        )


class WireItem:
    """One record inside a physical packet."""

    __slots__ = ()

    def wire_size(self, hdr: HeaderSpec) -> int:
        raise NotImplementedError

    def payload_size(self) -> int:
        return 0


@dataclass(slots=True)
class SegItem(WireItem):
    """An eager data segment with its demultiplexing metadata."""

    src: int
    flow: int
    tag: int
    seq: int
    data: SegmentData

    def wire_size(self, hdr: HeaderSpec) -> int:
        return hdr.seg_header + self.data.nbytes

    def payload_size(self) -> int:
        return self.data.nbytes


@dataclass(slots=True)
class CancelItem(WireItem):
    """Tombstone for a cancelled send.

    Cancelling a wrap that already consumed a sequence number would leave a
    hole in the receiver's (src, flow) ordering stream and park every later
    message forever.  The tombstone travels in the cancelled wrap's place
    (it aggregates like any control record) and advances the receiver's
    sequence counter without matching any posted receive.
    """

    src: int
    flow: int
    tag: int
    seq: int

    def wire_size(self, hdr: HeaderSpec) -> int:
        return hdr.seg_header


@dataclass(slots=True)
class RdvReqItem(WireItem):
    """Announces a large message; the data follows after the grant.

    Carries the same matching metadata as a segment so the receiver matches
    it *in order* against posted receives, plus the handle the grant and the
    bulk chunks refer to.
    """

    src: int
    flow: int
    tag: int
    seq: int
    handle: int
    nbytes: int

    def wire_size(self, hdr: HeaderSpec) -> int:
        return hdr.rdv_req


@dataclass(slots=True)
class RdvAckItem(WireItem):
    """Grants a rendezvous: the destination is ready for zero-copy landing."""

    src: int          # node sending the ACK (the data receiver)
    handle: int       # sender-side handle being granted

    def wire_size(self, hdr: HeaderSpec) -> int:
        return hdr.rdv_ack


@dataclass(slots=True)
class RdvDataItem(WireItem):
    """One zero-copy bulk chunk of a granted rendezvous transfer."""

    src: int
    handle: int
    offset: int
    total: int
    data: SegmentData

    def wire_size(self, hdr: HeaderSpec) -> int:
        return hdr.rdv_data_header + self.data.nbytes

    def payload_size(self) -> int:
        return self.data.nbytes


@dataclass(slots=True)
class PhysPacket:
    """The payload of one frame: an ordered list of wire items."""

    items: list[WireItem]

    def sizes(self, hdr: HeaderSpec) -> tuple[int, int, int]:
        """``(wire bytes, payload bytes, data segments)`` in one pass.

        Runs once per physical packet; the eager segment — nearly every
        item — is sized in line, anything else through its own methods.
        """
        wire = hdr.global_header
        seg_header = hdr.seg_header
        payload = 0
        n_segments = 0
        for item in self.items:
            if item.__class__ is SegItem:
                nbytes = item.data.nbytes
                wire += seg_header + nbytes
                payload += nbytes
                n_segments += 1
            else:
                wire += item.wire_size(hdr)
                payload += item.payload_size()
        return wire, payload, n_segments
