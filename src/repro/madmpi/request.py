"""MPI request handles (backend-neutral).

Both MAD-MPI and the baseline models hand these to applications, so the
ping-pong harness can drive any backend through one interface.

Paper §3.4 maps isend / irecv / wait / test *directly* onto the library
underneath, and the handle is that mapping: what an untyped ``isend`` /
``irecv`` returns *is* the library request — :class:`MpiSend` /
:class:`MpiRecv` are :class:`~repro.core.requests.SendRequest` /
:class:`~repro.core.requests.RecvRequest` with the MPI view on them
(``kind``, and a receive's status ``source`` / ``tag`` / ``count`` /
``data``, read off the library's own fields) — and the library request is
its own completion event.  Only a derived-datatype operation, which really
does finish after several library requests, is a further object
(:class:`MpiRequest`).  Every handle is an :class:`~repro.sim.Event` whose
``done`` is itself, so ``yield req``, ``wait_all(mixed)`` and
``sim.all_of(reqs)`` take handles as they are.  A finished handle holds
its outcome, its status and its data, nothing else: on 64-bit CPython an
:class:`MpiRecv` is 112 bytes (the event core, the ``(src, tag)`` pair that
is its status, the flow, the capacity, the data and the communicator), an
:class:`MpiSend` 96 (the event core, the wrap slot it has let go of, the
destination, the flow and the posted tag).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.core.data import SegmentData, VirtualData
from repro.core.requests import RecvRequest, Request, SendRequest
from repro.errors import MpiError
from repro.madmpi.comm import Communicator
from repro.madmpi.datatype import Datatype
from repro.sim import Event, Simulator

__all__ = ["MpiRecv", "MpiRequest", "MpiSend"]


class _Untyped:
    """What the MPI view of an operation without a datatype answers."""

    __slots__ = ()
    datatype = None
    block_data: Sequence[SegmentData] = ()

    def scatter_into(self, buffer: bytearray | memoryview) -> None:
        raise MpiError("scatter_into() on an untyped request")


class MpiSend(_Untyped, SendRequest):
    """An untyped MPI send: the library send request itself."""

    __slots__ = ()
    kind = "send"
    #: A send never grows a status.
    source = tag = count = data = None


class MpiRecv(_Untyped, RecvRequest):
    """An untyped MPI receive: the library receive request itself.  The
    status is ``None`` until the receive completed successfully; the
    selectors it was posted with (possibly wildcards) never show through.
    ``comm``, set by the endpoint that posted it, turns the library's node
    id into a rank on read.
    """

    __slots__ = ("comm",)
    kind = "recv"
    comm: Communicator

    @property
    def source(self) -> int | None:
        """Sender's rank in the request's communicator."""
        if self.data is None:
            return None
        return self.comm.rank_of(self.match_src)

    @property
    def tag(self) -> int | None:
        """The matched message's tag."""
        return None if self.data is None else self.match_tag

    @property
    def count(self) -> int | None:
        """Bytes received."""
        data = self.data
        return None if data is None else data.nbytes


class MpiRequest(Request):
    """Handle on a derived-datatype operation, which finishes after several
    library requests: it fires once ``n_parts`` successes were reported to
    :meth:`part_done`, after ``publish(handle)`` stamped a typed receive's
    status and ``block_data``.  A failure of any part fails the handle,
    marked observed like the library's own failures (it reaches the
    application through wait/test, never crashes a run that only polls).
    Finished, the handle keeps no part alive.
    """

    __slots__ = ("kind", "datatype", "block_data",
                 "source", "tag", "count", "data", "_waiting", "_publish")

    def __init__(self, sim: Simulator, kind: str, datatype: Datatype,
                 n_parts: int,
                 publish: Callable[[MpiRequest], None] | None = None) -> None:
        Event.__init__(self, sim)
        self.kind = kind  # "send" | "recv"
        self.datatype = datatype
        self.block_data: Sequence[SegmentData] = ()
        self.source: int | None = None
        self.tag: int | None = None
        self.count: int | None = None
        self.data: SegmentData | None = None
        self._waiting = n_parts
        self._publish = publish

    def part_done(self, part: Event) -> None:
        """Completion callback of every part: the last success completes
        the handle, the first failure fails it (an ``AllOf`` that holds on
        to nothing)."""
        if self.triggered:
            return
        if part.ok:
            self._waiting -= 1
            if self._waiting:
                return
            if self._publish is not None:
                self._publish(self)
            self.succeed()
        else:
            part.defuse()
            assert part.exception is not None
            self.fail_observed(part.exception)
        self._publish = None

    def scatter_into(self, buffer: bytearray | memoryview) -> None:
        """Scatter a completed typed receive into ``buffer``.

        Blocks land at their datatype displacements; untyped gap bytes are
        left untouched (MPI semantics).
        """
        if not self.complete:
            raise MpiError("scatter_into() before completion")
        view = memoryview(buffer)
        flat = self.datatype.flatten()
        if len(flat) != len(self.block_data):
            raise MpiError(
                f"received {len(self.block_data)} blocks for a datatype "
                f"with {len(flat)} blocks"
            )
        for (disp, length), data in zip(flat, self.block_data, strict=True):
            if data.nbytes != length:
                raise MpiError(
                    f"block at displacement {disp} is {data.nbytes}B, "
                    f"expected {length}B"
                )
            if isinstance(data, VirtualData):
                continue  # benchmark payloads carry no content
            view[disp:disp + length] = data.tobytes()
