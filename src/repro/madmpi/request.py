"""MPI request handles (backend-neutral).

Both MAD-MPI and the baseline models hand these to applications, so the
ping-pong harness can drive any backend through one interface.

Paper §3.4 maps isend / irecv / wait / test *directly* onto the library
underneath, and the handle is that mapping: ``done`` is the library
request's own completion event, and an untyped receive's status
(``source`` / ``tag`` / ``count`` / ``data``) reads through to the library
:class:`~repro.core.requests.RecvRequest` — nothing is copied, no second
event fires.  Only a derived-datatype receive, which finishes after several
library receives (or after an unpack), owns an event and has its status and
per-block data stamped at completion.

A completed handle pins the status and the data, nothing else: the event
carries no value, so a request is never in a reference cycle with it.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.data import SegmentData, VirtualData
from repro.core.requests import RecvRequest
from repro.errors import MpiError
from repro.madmpi.comm import Communicator
from repro.madmpi.datatype import Datatype
from repro.sim import Event

__all__ = ["MpiRequest"]

#: Status of a request that has none (yet): source, tag, count, data.
_NO_STATUS: tuple[None, None, None, None] = (None, None, None, None)


class MpiRequest:
    """Handle on a nonblocking MPI operation."""

    __slots__ = ("done", "kind", "datatype", "block_data",
                 "_sub", "_comm", "_status")

    def __init__(
        self,
        done: Event,
        kind: str,
        datatype: Datatype | None = None,
        sub: RecvRequest | None = None,
        comm: Communicator | None = None,
    ) -> None:
        self.done = done
        self.kind = kind  # "send" | "recv"
        self.datatype = datatype
        #: Per-block data of a typed receive (set at completion).
        self.block_data: Sequence[SegmentData] = ()
        # Untyped receive: the library request the status reads through to,
        # and the communicator that turns its node id into a rank.
        self._sub = sub
        self._comm = comm
        # Typed receive: stamped by set_status() at completion.
        self._status: tuple[int | None, int | None, int | None,
                            SegmentData | None] = _NO_STATUS

    # -- status (receives only; None until completed successfully) ------------
    @property
    def source(self) -> int | None:
        """Sender's rank in the request's communicator."""
        sub = self._sub
        if sub is None:
            return self._status[0]
        node = sub.actual_src
        if node is None:
            return None
        assert self._comm is not None
        return self._comm.rank_of(node)

    @property
    def tag(self) -> int | None:
        sub = self._sub
        return self._status[1] if sub is None else sub.actual_tag

    @property
    def count(self) -> int | None:
        """Bytes received."""
        sub = self._sub
        return self._status[2] if sub is None else sub.actual_len

    @property
    def data(self) -> SegmentData | None:
        sub = self._sub
        return self._status[3] if sub is None else sub.data

    def set_status(self, source: int, tag: int, count: int,
                   data: SegmentData | None = None) -> None:
        """Stamp the outcome of a typed receive (its completion path only)."""
        self._status = (source, tag, count, data)

    # -- completion ------------------------------------------------------------
    @property
    def complete(self) -> bool:
        """Nonblocking completion test (MPI_Test semantics, no progress)."""
        return self.done.triggered

    @property
    def failed(self) -> bool:
        """True when the operation ended in an error instead of completing.

        With the engine's reliability layer active, a send whose retransmit
        budget is exhausted fails with
        :class:`~repro.errors.TransportError`; this surfaces it through the
        MPI-level wait/test interface without raising.
        """
        return self.done.triggered and not self.done.ok

    @property
    def error(self):
        """The failure exception, or ``None`` (nonblocking inspection)."""
        return self.done.exception if self.failed else None

    def scatter_into(self, buffer: bytearray | memoryview) -> None:
        """Scatter a completed typed receive into ``buffer``.

        Blocks land at their datatype displacements; untyped gap bytes are
        left untouched (MPI semantics).
        """
        if not self.complete:
            raise MpiError("scatter_into() before completion")
        if self.datatype is None:
            raise MpiError("scatter_into() on an untyped request")
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.complete else "pending"
        return f"<MpiRequest {self.kind} {state}>"
