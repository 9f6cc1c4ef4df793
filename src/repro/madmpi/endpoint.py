"""The MPI endpoint surface MAD-MPI and the baseline models share.

Paper §3.4 maps MPI's nonblocking posting (isend, irecv) and completion
(wait, test) onto the communication library underneath.  An endpoint
supplies exactly that mapping — ``isend``/``irecv`` plus its ``sim``,
``matcher``, ``world`` and ``rank`` — and inherits everything that is
defined in terms of it, so the benchmark harness drives every backend
through one interface.

The mapping is direct in the paper's sense: the handle of an untyped
operation *is* the library request, which is its own completion event
(:mod:`repro.madmpi.request`), so the library's outcome — success, or a
failure it already marked as observed — *is* the MPI outcome, and wait/test
add no event, callback or copy of their own: they hand the handles to the
kernel as they are.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.data import SegmentData
from repro.core.matching import Matcher
from repro.core.requests import ANY, Request
from repro.errors import CommRevokedError, MpiError
from repro.madmpi.comm import Communicator
from repro.madmpi.datatype import Datatype
from repro.sim import Simulator

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
        yield self.sim.all_of((rreq, sreq))
        return rreq

    # -- completion --------------------------------------------------------------
    def wait_any(self, requests: Sequence[Request]):
        """Wait for the first completed request; returns (index, request)."""
        if not requests:
            raise MpiError("wait_any on an empty request list")
        yield self.sim.any_of(requests)
        for idx, req in enumerate(requests):
            if req.complete:
                return idx, req
        raise MpiError("wait_any woke without a complete request")

    def wait(self, request: Request):
        """Blocking wait (process style: ``yield from mpi.wait(req)``)."""
        yield request
        return request

    def wait_all(self, requests: Sequence[Request]):
        """Wait for every request in ``requests``; returns them as a list.

        Costs what is still pending: one request is waited on as itself
        (exactly :meth:`wait` — no condition object, no extra wake-up), and
        among several, one that had already succeeded and been processed
        takes no queue entry to say so.  The first failure is raised into
        the waiter, which counts as observing it.
        """
        if len(requests) == 1:
            yield requests[0]
        else:
            yield self.sim.all_of(requests)
        return list(requests)

    @staticmethod
    def test(request: Request) -> bool:
        """Nonblocking completion check (MPI_Test)."""
        return request.complete

    # -- blocking conveniences -----------------------------------------------------
    def send(self, data: BufferLike, dest: int, tag: int = 0,
             comm: Communicator | None = None,
             datatype: Datatype | None = None):
        req = self.isend(data, dest, tag=tag, comm=comm, datatype=datatype)
        yield req
        return req

    def recv(self, source: int = ANY, tag: int = ANY,
             comm: Communicator | None = None,
             nbytes: int | None = None,
             datatype: Datatype | None = None):
        req = self.irecv(source=source, tag=tag, comm=comm, nbytes=nbytes,
                         datatype=datatype)
        yield req
        return req
