"""MAD-MPI: the proof-of-concept MPI subset over NewMadeleine.

Paper §3.4: "This implementation called MAD-MPI is based on the
point-to-point nonblocking posting (isend, irecv) and completion (wait,
test) operations of MPI, these four operations being directly mapped to the
equivalent operations of NewMadeleine."

The derived-datatype path is the paper's §5.3 algorithm verbatim: "MAD-MPI
uses an algorithm which generates an individual communication request for
each block, allowing the underlying communication layer to perform any
appropriate optimization" — small blocks then aggregate (with each other
and with the rendezvous requests of large blocks) while large blocks travel
zero-copy, entirely as a consequence of the engine's strategy.
"""

from __future__ import annotations

from repro.core.data import SegmentData, VirtualData, as_data
from repro.core.engine import NmadEngine
from repro.core.requests import ANY
from repro.errors import MpiError
from repro.madmpi.comm import Communicator
from repro.madmpi.datatype import Datatype
from repro.madmpi.endpoint import BufferLike, MpiEndpoint
from repro.madmpi.request import MpiRecv, MpiRequest, MpiSend

__all__ = ["MadMpi", "ANY"]


class MadMpi(MpiEndpoint):
    """One rank's MPI endpoint, backed by a :class:`NmadEngine`."""

    #: Backend identifier used in benchmark reports.
    backend_name = "MadMPI"

    def __init__(self, engine: NmadEngine, world: Communicator) -> None:
        self.engine = engine
        self.sim = engine.sim
        self.matcher = engine.matcher
        self.world = world
        self.rank = world.rank_of(engine.node_id)

    # -- point-to-point ---------------------------------------------------
    def isend(
        self,
        data: BufferLike,
        dest: int,
        tag: int = 0,
        comm: Communicator | None = None,
        datatype: Datatype | None = None,
        priority: int = 0,
        deadline_us: float | None = None,
    ) -> MpiSend | MpiRequest:
        """Nonblocking send to ``dest`` (a rank in ``comm``); untyped, the
        handle is the library's own send request.

        Overload protection (:class:`~repro.core.engine.EngineParams`)
        surfaces here: with a bounded window and ``window_policy="block"``
        an over-cap send is *deferred* — the request is returned as usual
        and simply completes later (backpressure shows up as ``wait``
        latency); with ``window_policy="fail"`` this call raises
        :class:`~repro.errors.WindowFullError` (an :class:`MpiError`)
        synchronously, like an MPI implementation out of request slots.

        ``deadline_us`` (relative virtual time) bounds how long the send
        may stay pending: if it expires while the data has not left the
        node the request fails with
        :class:`~repro.errors.DeadlineExceededError` through
        ``wait``/``test`` (a datatype send fails as a unit once any block
        is retracted); once the transfer is underway the deadline lapses,
        like ``MPI_Cancel`` on a matched send.
        """
        comm = self._live_comm(comm)
        node = comm.node_of(dest)
        if datatype is None:
            return self.engine.isend(node, data, tag=tag, flow=comm.id,
                                     priority=priority,
                                     deadline_us=deadline_us,
                                     request_cls=MpiSend)
        # One engine request per datatype block (paper §5.3).
        blocks = datatype.flatten()
        if not blocks:
            raise MpiError("cannot send an empty datatype")
        sub = [
            self.engine.isend(node, self._block_data(data, disp, length),
                              tag=tag, flow=comm.id, priority=priority,
                              deadline_us=deadline_us)
            for disp, length in blocks
        ]
        req = MpiRequest(self.sim, "send", datatype, len(sub))
        for block in sub:
            block.add_callback(req.part_done)
        return req

    def irecv(
        self,
        source: int = ANY,
        tag: int = ANY,
        comm: Communicator | None = None,
        nbytes: int | None = None,
        datatype: Datatype | None = None,
        deadline_us: float | None = None,
    ) -> MpiRecv | MpiRequest:
        """Nonblocking receive from ``source`` (a rank in ``comm`` or ANY);
        untyped, the handle is the library's own receive request.

        ``deadline_us`` (relative virtual time) bounds how long the
        receive may stay unmatched: on expiry the posted receive is
        withdrawn and the request fails with
        :class:`~repro.errors.DeadlineExceededError` through
        ``wait``/``test``; a receive that matched in time completes
        normally even if the data copy finishes after the deadline.
        """
        comm = self._live_comm(comm)
        src_node = ANY if source == ANY else comm.node_of(source)
        if datatype is None:
            req = self.engine.irecv(src_node, tag, comm.id, nbytes,
                                    deadline_us, MpiRecv)
            req.comm = comm
            return req
        blocks = datatype.flatten()
        if not blocks:
            raise MpiError("cannot receive into an empty datatype")
        subs = [
            self.engine.irecv(src=src_node, tag=tag, flow=comm.id,
                              nbytes=length, deadline_us=deadline_us)
            for _, length in blocks
        ]

        def _publish(typed: MpiRequest) -> None:
            typed.block_data = [s.data for s in subs]
            typed.source = comm.rank_of(subs[0].actual_src)
            typed.tag = subs[0].actual_tag
            typed.count = sum(s.actual_len for s in subs)

        req = MpiRequest(self.sim, "recv", datatype, 1, _publish)
        # One part, the blocks' join: the handle fires a hop after the last
        # block, as it did when it was a separate event.
        self.sim.all_of(subs).add_callback(req.part_done)
        return req

    # -- helpers --------------------------------------------------------------------
    @staticmethod
    def _block_data(data: BufferLike, disp: int, length: int) -> SegmentData:
        """Slice one datatype block out of the user buffer."""
        seg = as_data(data)
        if isinstance(seg, VirtualData):
            return VirtualData(length)
        if disp + length > seg.nbytes:
            raise MpiError(
                f"datatype block [{disp}, {disp + length}) exceeds the "
                f"{seg.nbytes}B buffer"
            )
        return seg.slice(disp, length)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MadMpi rank={self.rank} node={self.engine.node_id}>"
