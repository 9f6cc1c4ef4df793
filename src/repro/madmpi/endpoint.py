"""The MPI endpoint surface MAD-MPI and the baseline models share.

Paper §3.4 maps MPI's nonblocking posting (isend, irecv) and completion
(wait, test) onto the communication library underneath.  An endpoint
supplies exactly that mapping — ``isend``/``irecv`` plus its ``sim``,
``matcher``, ``world`` and ``rank`` — and inherits everything that is
defined in terms of it, so the benchmark harness drives every backend
through one interface.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.data import SegmentData
from repro.core.matching import Matcher
from repro.core.requests import ANY, RecvRequest
from repro.errors import CommRevokedError, MpiError
from repro.madmpi.comm import Communicator
from repro.madmpi.datatype import Datatype
from repro.madmpi.request import MpiRequest
from repro.sim import Event, Simulator

__all__ = ["BufferLike", "MpiEndpoint"]

BufferLike = SegmentData | bytes | bytearray | memoryview | int


class MpiEndpoint:
    """One rank's MPI operations over a subclass's ``isend``/``irecv``."""

    sim: Simulator
    matcher: Matcher
    world: Communicator
    rank: int

    def _live_comm(self, comm: Communicator | None) -> Communicator:
        """Resolve the default communicator and fence revoked ones.

        The ULFM-style fail-fast surface: after :meth:`Communicator.revoke`
        every new operation raises instead of blocking on a dead peer.
        """
        comm = comm if comm is not None else self.world
        if comm.revoked:
            raise CommRevokedError(
                f"rank {self.rank}: communicator {comm.id} was revoked "
                "after a peer failure; shrink() it to continue"
            )
        return comm

    @staticmethod
    def _recv_done(req: MpiRequest, sub: RecvRequest,
                   comm: Communicator) -> Callable[[Event], None]:
        """Completion callback of the library receive ``sub``: hand its
        outcome (data and status, or the failure) to the MPI request."""

        def _finish(evt: Event) -> None:
            if not evt.ok:
                evt.defuse()
                exc = evt.exception
                assert exc is not None
                req.done.fail(exc)
                return
            assert sub.actual_src is not None
            req.data = sub.data
            req.set_status(source=comm.rank_of(sub.actual_src),
                           tag=sub.actual_tag, count=sub.actual_len)
            req.done.succeed(req)

        return _finish

    # -- probing -----------------------------------------------------------------
    def iprobe(self, source: int = ANY, tag: int = ANY,
               comm: Communicator | None = None):
        """Nonblocking probe: (source_rank, tag, nbytes) or None.

        Like MPI_Iprobe, never consumes the message.
        """
        comm = self._live_comm(comm)
        src_node = ANY if source == ANY else comm.node_of(source)
        inc = self.matcher.peek(src_node, comm.id, tag)
        if inc is None:
            return None
        return comm.rank_of(inc.src), inc.tag, inc.nbytes

    def probe(self, source: int = ANY, tag: int = ANY,
              comm: Communicator | None = None):
        """Blocking probe (process style): waits for a matching message."""
        comm = self._live_comm(comm)
        src_node = ANY if source == ANY else comm.node_of(source)
        event = self.sim.event(("probe:%s/%s", source, tag))
        self.matcher.watch(src_node, comm.id, tag, event)
        inc = yield event
        return comm.rank_of(inc.src), inc.tag, inc.nbytes

    # -- combined send/receive ------------------------------------------------------
    def sendrecv(self, send_data: BufferLike, dest: int, source: int = ANY,
                 sendtag: int = 0, recvtag: int = ANY,
                 comm: Communicator | None = None,
                 nbytes: int | None = None):
        """MPI_Sendrecv: simultaneous, deadlock-free exchange."""
        rreq = self.irecv(source=source, tag=recvtag, comm=comm,
                          nbytes=nbytes)
        sreq = self.isend(send_data, dest, tag=sendtag, comm=comm)
        yield self.sim.all_of([rreq.done, sreq.done])
        return rreq

    # -- completion --------------------------------------------------------------
    def wait_any(self, requests: Sequence[MpiRequest]):
        """Wait for the first completed request; returns (index, request)."""
        if not requests:
            raise MpiError("wait_any on an empty request list")
        yield self.sim.any_of([r.done for r in requests])
        for idx, req in enumerate(requests):
            if req.complete:
                return idx, req
        raise MpiError("wait_any woke without a complete request")

    def wait(self, request: MpiRequest):
        """Blocking wait (process style: ``yield from mpi.wait(req)``)."""
        yield request.done
        return request

    def wait_all(self, requests: Sequence[MpiRequest]):
        """Wait for every request in ``requests``."""
        yield self.sim.all_of([r.done for r in requests])
        return list(requests)

    @staticmethod
    def test(request: MpiRequest) -> bool:
        """Nonblocking completion check (MPI_Test)."""
        return request.complete

    # -- blocking conveniences -----------------------------------------------------
    def send(self, data: BufferLike, dest: int, tag: int = 0,
             comm: Communicator | None = None,
             datatype: Datatype | None = None):
        req = self.isend(data, dest, tag=tag, comm=comm, datatype=datatype)
        yield req.done
        return req

    def recv(self, source: int = ANY, tag: int = ANY,
             comm: Communicator | None = None,
             nbytes: int | None = None,
             datatype: Datatype | None = None):
        req = self.irecv(source=source, tag=tag, comm=comm, nbytes=nbytes,
                         datatype=datatype)
        yield req.done
        return req
