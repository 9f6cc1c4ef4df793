"""The baseline MPI model (the paper's comparators) and its calibration rows.

The baselines are *executable models of documented behaviour*, run over the
exact same simulated NICs as the engine.  The behaviours come from the
paper itself:

* **Direct mapping** (§2, §6): "carefully designed to directly map basic
  point-to-point requests onto the underlying low-level interfaces" — each
  ``isend`` immediately becomes one NIC command; there is no optimization
  window, no coalescing across requests, "no message reordering or
  multiplexing" (§6 on MPICH2-Nemesis).

* **Efficient pipelining** (§5.2): "the MPICH-MX and MPICH-QUADRICS
  implementations are able to pipeline the transfer of a series of messages
  in a very efficient manner" — queued frames stream back-to-back paying
  only the NIC's inter-frame gap.

* **Eager/rendezvous switch**: small messages travel eagerly (one receive-
  side copy out of the driver buffer); large contiguous messages handshake
  and then stream zero-copy.

* **Datatype pack** (§5.3, reference [5]): "MPICH copies all the data
  fragments into a new contiguous buffer and sends the obtained buffer in
  an unique transaction ... Data are received in a temporary memory area
  before being dispatched to their final destination."  The model charges
  the sender the full pack, ships the packed stream, and charges the
  receiver the full unpack — both proportional to size.  A calibration
  field (``dt_pipeline_chunk``) turns this into the chunked, overlapped
  variant we attribute to OpenMPI (the paper: "in the absence of related
  documentation, we guess that OpenMPI has the same behaviour" — but
  measures it distinctly faster than MPICH, which chunk overlap explains).

MPICH and OpenMPI are one model, :class:`BaselineMpi`, with four
calibration rows that :func:`calibration` picks.  It sends the engine's own
wire records (:mod:`repro.core.packet`) and uses MAD-MPI's request,
communicator and datatype objects, so the harness drives every backend
through one interface.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass

from repro.core.data import SegmentData, VirtualData, as_data
from repro.core.matching import Incoming, Matcher
from repro.core.packet import RdvAckItem, RdvDataItem, RdvReqItem, SegItem
from repro.core.rendezvous import RdvRecvState
from repro.core.requests import ANY, RecvRequest
from repro.errors import MpiError, ProtocolError
from repro.madmpi.comm import Communicator
from repro.madmpi.datatype import Datatype
from repro.madmpi.endpoint import BufferLike, MpiEndpoint
from repro.madmpi.request import MpiRecv, MpiRequest, MpiSend
from repro.netsim.frames import Frame, FrameKind
from repro.netsim.node import Node
from repro.netsim.units import KB
from repro.sim import Tracer

__all__ = ["BaselineParams", "BaselineMpi", "MPICH_MX", "MPICH_QUADRICS",
           "OPENMPI_MX", "OPENMPI_QUADRICS", "RDV_CHUNK_BYTES", "calibration"]

#: Bulk chunk size of a contiguous rendezvous stream (every row).
RDV_CHUNK_BYTES = 512 * KB


@dataclass(frozen=True)
class BaselineParams:
    """The constants of one (implementation, network) calibration row."""

    name: str
    sw_overhead_us: float        # per-message software cost, each side
    header_bytes: int            # per-message wire header
    eager_threshold: int         # eager/rendezvous switch point
    dt_pipeline_chunk: int | None = None  # None = pack-all-then-send

    def __post_init__(self) -> None:
        if self.sw_overhead_us < 0 or self.header_bytes < 0:
            raise ValueError(f"negative constant in {self.name!r}")
        if self.eager_threshold <= 0:
            raise ValueError(f"bad threshold in {self.name!r}")
        if self.dt_pipeline_chunk is not None and self.dt_pipeline_chunk <= 0:
            raise ValueError(f"bad pipeline chunk in {self.name!r}")


# MPICH (MPICH-MX / MPICH-Quadrics in the paper's figures) is the behaviour
# above with the pack-all-then-send datatype path of §5.3 / reference [5].

#: MPICH 1.x-era MX channel: lean per-message software path.
MPICH_MX = BaselineParams("MPICH-MX", sw_overhead_us=0.25, header_bytes=8,
                          eager_threshold=32 * KB)

#: MPICH over the Quadrics Elan driver.
MPICH_QUADRICS = BaselineParams("MPICH-Quadrics", sw_overhead_us=0.30,
                                header_bytes=8, eager_threshold=16 * KB)

# OpenMPI 1.1 (OpenMPI-MX in the paper's figures) is the same protocol family
# with a heavier per-message software path — Figure 2(a) shows OpenMPI-MX
# above MPICH-MX at small sizes — and a chunk-pipelined datatype engine that
# overlaps packing with injection: the mechanism consistent with Figure 4(a)
# measuring OpenMPI clearly faster than MPICH on the indexed datatype yet
# still ~2x slower than MAD-MPI's zero-copy schedule.

#: OpenMPI 1.1 over MX.
OPENMPI_MX = BaselineParams("OpenMPI-MX", sw_overhead_us=0.55, header_bytes=16,
                            eager_threshold=32 * KB, dt_pipeline_chunk=64 * KB)

#: OpenMPI over Quadrics (not in the paper's Quadrics figures, but available
#: for completeness).
OPENMPI_QUADRICS = BaselineParams("OpenMPI-Quadrics", sw_overhead_us=0.60,
                                  header_bytes=16, eager_threshold=16 * KB,
                                  dt_pipeline_chunk=64 * KB)


def calibration(backend: str, tech: str) -> BaselineParams:
    """``backend``'s MX row on ``tech == "mx"``, its Quadrics row otherwise."""
    mx, quadrics = {
        "mpich": (MPICH_MX, MPICH_QUADRICS),
        "openmpi": (OPENMPI_MX, OPENMPI_QUADRICS),
    }[backend]
    return mx if tech == "mx" else quadrics


@dataclass(slots=True)
class _Arrival(Incoming):
    """A matcher descriptor that remembers its packed-datatype layout (the
    eager or rendezvous-request frame payload, built by the sender)."""

    unpack_blocks: list[int] | None = None


class _RdvSend:
    """Sender-side state of one rendezvous transfer."""

    __slots__ = ("dest", "data", "total", "next_offset", "bytes_done",
                 "request", "per_chunk_pack_us", "chunk_size")

    def __init__(self, dest: int, data: SegmentData, request: MpiSend,
                 chunk_size: int, per_chunk_pack_us: float = 0.0) -> None:
        self.dest = dest
        self.data = data
        self.total = data.nbytes
        self.next_offset = 0
        self.bytes_done = 0
        self.request = request
        self.chunk_size = chunk_size
        self.per_chunk_pack_us = per_chunk_pack_us


class _RdvRecv(RdvRecvState):
    """Receiver-side state of one rendezvous transfer, plus the packed
    datatype stream still to dispatch into the typed buffer."""

    __slots__ = ("unpack_blocks", "unpack_free_at")

    def __init__(self, req: RecvRequest, src: int, handle: int, total: int,
                 tag: int, unpack_blocks: list[int] | None) -> None:
        super().__init__(req, src, handle, total, tag)
        self.unpack_blocks = unpack_blocks
        self.unpack_free_at = 0.0


class BaselineMpi(MpiEndpoint):
    """One rank of a baseline MPI implementation (rail 0 only).

    ``params`` is the calibration row (see :func:`calibration`) that makes
    this rank MPICH or OpenMPI over MX or Quadrics.
    """

    def __init__(self, node: Node, params: BaselineParams,
                 world: Communicator, tracer: Tracer | None = None) -> None:
        self.node = node
        self.sim = node.sim
        self.params = params
        self.world = world
        self.rank = world.rank_of(node.node_id)
        self.tracer = tracer if tracer is not None else node.tracer
        self.nic = node.nic(0)
        self.nic.set_receive_handler(self._on_frame)
        self._seq: defaultdict[tuple[int, int], int] = defaultdict(int)
        self._handles = itertools.count(1)
        self._rdv_pending: dict[int, _RdvSend] = {}
        self._rdv_incoming: dict[tuple[int, int], _RdvRecv] = {}
        self.matcher = Matcher(self._on_match, tracer=self.tracer,
                               name=f"{params.name}.node{node.node_id}.matcher")
        # Statistics mirroring EngineStats where meaningful.
        self.frames_sent = 0
        self.rdv_handshakes = 0

    # ------------------------------------------------------------------ send
    def isend(
        self,
        data: BufferLike,
        dest: int,
        tag: int = 0,
        comm: Communicator | None = None,
        datatype: Datatype | None = None,
        priority: int = 0,  # accepted for interface parity; ignored
    ) -> MpiSend:
        """Nonblocking send: immediately mapped onto NIC commands."""
        comm = self._live_comm(comm)
        dest_node = comm.node_of(dest)
        if dest_node == self.node.node_id:
            raise MpiError(f"{self.params.name}: self-send not supported")
        if datatype is not None:
            return self._isend_typed(data, dest_node, tag, comm, datatype)
        seg = as_data(data)
        return self._isend_stream(seg, dest_node, tag, comm.id,
                                  unpack_blocks=None, pack_delay_us=0.0)

    def _isend_stream(
        self,
        seg: SegmentData,
        dest_node: int,
        tag: int,
        flow: int,
        unpack_blocks: list[int] | None,
        pack_delay_us: float,
        pipeline_chunk: int | None = None,
    ) -> MpiSend:
        """Send a contiguous byte stream (raw message or packed datatype)."""
        seq = self._seq[(dest_node, flow)]
        self._seq[(dest_node, flow)] += 1
        req = MpiSend(self.sim, dest_node, flow, tag)
        src = self.node.node_id
        if seg.nbytes <= self.params.eager_threshold:
            msg = _Arrival(src=src, flow=flow, tag=tag, seq=seq,
                           nbytes=seg.nbytes,
                           item=SegItem(src=src, flow=flow, tag=tag, seq=seq,
                                        data=seg),
                           unpack_blocks=unpack_blocks)
            wire = self.params.header_bytes + seg.nbytes
            frame = Frame(src_node=src, dst_node=dest_node,
                          kind=FrameKind.DATA, wire_size=wire, payload=msg,
                          payload_size=seg.nbytes)
            if pack_delay_us > 0:
                self.sim.schedule(
                    pack_delay_us, lambda: self._post(frame, req))
            else:
                self._post(frame, req)
            return req
        # Rendezvous path.
        handle = next(self._handles)
        chunk_size = RDV_CHUNK_BYTES
        per_chunk_pack = 0.0
        if pipeline_chunk is not None:
            # Chunked pack/send overlap: the pack cost is paid per chunk on
            # the critical path of injecting that chunk.
            chunk_size = pipeline_chunk
            n_chunks = -(-seg.nbytes // pipeline_chunk)
            per_chunk_pack = pack_delay_us / max(n_chunks, 1)
            pack_delay_us = 0.0  # nothing is packed up front
        self._rdv_pending[handle] = _RdvSend(
            dest_node, seg, req, chunk_size, per_chunk_pack_us=per_chunk_pack)
        self.rdv_handshakes += 1
        msg = _Arrival(src=src, flow=flow, tag=tag, seq=seq, nbytes=seg.nbytes,
                       item=RdvReqItem(src=src, flow=flow, tag=tag, seq=seq,
                                       handle=handle, nbytes=seg.nbytes),
                       unpack_blocks=unpack_blocks)
        frame = Frame(src_node=src, dst_node=dest_node,
                      kind=FrameKind.RDV_REQ,
                      wire_size=self.params.header_bytes + 24, payload=msg,
                      payload_size=0)
        if pack_delay_us > 0:
            self.sim.schedule(pack_delay_us, lambda: self._post(frame, None))
        else:
            self._post(frame, None)
        return req

    def _isend_typed(self, data: BufferLike, dest_node: int, tag: int,
                     comm: Communicator, datatype: Datatype) -> MpiSend:
        """Derived datatype: pack into a contiguous stream, then send it."""
        blocks = datatype.flatten()
        if not blocks:
            raise MpiError("cannot send an empty datatype")
        lengths = [l for _, l in blocks]
        total = sum(lengths)
        pack_delay = self.node.memory.pack_time(lengths)
        # The packed stream is a fresh contiguous buffer; content-accurate
        # packing is only needed when the caller gave real bytes.
        seg = as_data(data)
        if isinstance(seg, VirtualData):
            packed: SegmentData = VirtualData(total)
        else:
            from repro.core.data import Bytes
            packed = Bytes(datatype.pack(seg.tobytes()))
        return self._isend_stream(
            packed, dest_node, tag, comm.id, unpack_blocks=lengths,
            pack_delay_us=pack_delay,
            pipeline_chunk=self.params.dt_pipeline_chunk,
        )

    def _post(self, frame: Frame, req: MpiSend | None) -> None:
        self.frames_sent += 1
        if req is not None:
            frame.on_sent = req.settle
        self.nic.post_send(frame, cpu_gap_us=self.params.sw_overhead_us)

    # -------------------------------------------------------------- receive
    def irecv(
        self,
        source: int = ANY,
        tag: int = ANY,
        comm: Communicator | None = None,
        nbytes: int | None = None,
        datatype: Datatype | None = None,
    ) -> MpiRecv | MpiRequest:
        """Post a receive.  Typed receives land packed and pay the unpack."""
        comm = self._live_comm(comm)
        src_node = ANY if source == ANY else comm.node_of(source)
        if datatype is None:
            req = MpiRecv(self.sim, src_node, comm.id, tag, nbytes)
            req.comm = comm
            self.matcher.post(req, self.sim.now)
            return req
        sub = RecvRequest(self.sim, src_node, comm.id, tag, datatype.size)

        def _publish(typed: MpiRequest) -> None:
            # The packed stream landed: expose its blocks and status.
            typed.block_data = self._split_blocks(sub.data, datatype)
            typed.source = comm.rank_of(sub.actual_src)
            typed.tag, typed.count = sub.actual_tag, sub.actual_len
            typed.data = sub.data

        req = MpiRequest(self.sim, "recv", datatype, 1, _publish)
        sub.add_callback(req.part_done)
        self.matcher.post(sub, self.sim.now)
        return req

    @staticmethod
    def _split_blocks(data: SegmentData, datatype: Datatype) -> list[SegmentData]:
        """Cut the packed stream back into datatype blocks (post-unpack view)."""
        out: list[SegmentData] = []
        cursor = 0
        for _, length in datatype.flatten():
            out.append(data.slice(cursor, length))
            cursor += length
        return out

    # ----------------------------------------------------------- frame path
    def _on_frame(self, frame: Frame) -> None:
        msg = frame.payload
        if isinstance(msg, _Arrival):
            self.matcher.deliver(msg, now=self.sim.now)
        elif isinstance(msg, RdvAckItem):
            self._stream_granted(msg)
        elif isinstance(msg, RdvDataItem):
            self._on_bulk(msg)
        else:
            raise ProtocolError(
                f"{self.params.name}: unknown baseline frame payload "
                f"{type(msg).__name__}"
            )

    def _on_match(self, inc: _Arrival, sub: RecvRequest) -> None:
        if sub.capacity is not None and inc.nbytes > sub.capacity:
            sub.fail_observed(MpiError(
                f"{self.params.name}: truncation — {inc.nbytes}B into "
                f"{sub.capacity}B receive"
            ))
            if not isinstance(inc.item, RdvReqItem):
                return
            # A rendezvous is granted anyway so its sender completes; the
            # bulk is dropped as it lands (``RdvRecvState.drop``).
        unpack_blocks = inc.unpack_blocks
        if isinstance(inc.item, RdvReqItem):
            key = (inc.item.src, inc.item.handle)
            self._rdv_incoming[key] = _RdvRecv(
                sub, src=inc.src, handle=inc.item.handle,
                total=inc.item.nbytes, tag=inc.tag,
                unpack_blocks=unpack_blocks)
            ack = RdvAckItem(src=self.node.node_id, handle=inc.item.handle)
            frame = Frame(src_node=self.node.node_id, dst_node=inc.item.src,
                          kind=FrameKind.RDV_ACK,
                          wire_size=self.params.header_bytes + 16,
                          payload=ack, payload_size=0)
            self._post(frame, None)
            return
        item = inc.item
        assert isinstance(item, SegItem)
        # Eager data: one copy out of the driver buffer, plus the datatype
        # dispatch (unpack) when the stream was packed; copies serialize on
        # the host memory engine.
        copy_cost = 0.0
        if item.data.nbytes > 0:
            copy_cost += self.node.memory.copy_time(item.data.nbytes)
        if unpack_blocks:
            copy_cost += self.node.memory.unpack_time(unpack_blocks)
        delay = self.params.sw_overhead_us
        if copy_cost > 0:
            delay += self.node.serialize_copy(copy_cost)
        self.sim.schedule(
            delay, lambda: sub.finish(item.data, src=inc.src, tag=inc.tag))

    # -- rendezvous streaming ------------------------------------------------
    def _stream_granted(self, ack: RdvAckItem) -> None:
        state = self._rdv_pending.pop(ack.handle, None)
        if state is None:
            raise ProtocolError(
                f"{self.params.name}: ACK for unknown handle {ack.handle}"
            )
        self._send_next_chunk(state, ack.handle, state.chunk_size)

    def _send_next_chunk(self, state: _RdvSend, handle: int,
                         chunk_size: int) -> None:
        offset = state.next_offset
        n = min(chunk_size, state.total - offset)
        state.next_offset += n
        msg = RdvDataItem(src=self.node.node_id, handle=handle,
                          offset=offset, total=state.total,
                          data=state.data.slice(offset, n))
        frame = Frame(src_node=self.node.node_id, dst_node=state.dest,
                      kind=FrameKind.RDV_DATA,
                      wire_size=self.params.header_bytes + 16 + n,
                      payload=msg, payload_size=n)

        def _after_pack():
            self.frames_sent += 1
            frame.on_sent = _chunk_done
            self.nic.post_send(frame, cpu_gap_us=self.params.sw_overhead_us)

        def _chunk_done():
            state.bytes_done += n
            if state.next_offset < state.total:
                self._send_next_chunk(state, handle, chunk_size)
            elif state.bytes_done == state.total:
                state.request.settle()

        if state.per_chunk_pack_us > 0:
            # Chunked datatype pipeline: pack this chunk before injecting it
            # (the previous chunk is on the wire meanwhile — the overlap).
            self.sim.schedule(state.per_chunk_pack_us, _after_pack)
        else:
            _after_pack()

    def _on_bulk(self, msg: RdvDataItem) -> None:
        key = (msg.src, msg.handle)
        state = self._rdv_incoming.get(key)
        if state is None:
            raise ProtocolError(
                f"{self.params.name}: bulk for unknown rendezvous {key}"
            )
        state.land(msg.offset, msg.data)
        if state.drop:
            if state.complete:
                del self._rdv_incoming[key]
            return
        now = self.sim.now
        if state.unpack_blocks is not None:
            # The packed stream lands in a temporary area; dispatching it to
            # the typed buffer is a serial copy chargeable per chunk on the
            # node's (shared) memory engine.
            fraction = msg.data.nbytes / state.total
            cost = self.node.memory.unpack_time(state.unpack_blocks) * fraction
            state.unpack_free_at = now + self.node.serialize_copy(cost)
        if state.complete:
            del self._rdv_incoming[key]
            finish_at = max(now, state.unpack_free_at)
            data = state.assemble()

            def _finish():
                state.req.finish(data, src=state.src, tag=state.tag)

            if finish_at > now:
                self.sim.schedule(finish_at - now, _finish)
            else:
                _finish()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.params.name} rank={self.rank} node={self.node.node_id}>"
