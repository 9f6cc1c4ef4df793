"""Send and receive request handles.

These are the engine-native equivalents of MPI nonblocking requests: the
application keeps the handle, the engine completes it.  MAD-MPI's
``MPI_Isend``/``MPI_Irecv``/``MPI_Wait``/``MPI_Test`` map one-to-one onto
these (paper §3.4: "these four operations being directly mapped to the
equivalent operations of NewMadeleine").

A request's ``done`` event carries an outcome and no value: success, or
the failure exception.  What was received is read off the request
(``data``, ``actual_*``), never off the event — an event that pointed back
at its request (or at the sent wrap) would tie every finished message into
a reference cycle that only the cycle collector can free, and would pin
the whole packet wrap for as long as anybody holds the handle.
"""

from __future__ import annotations


from repro.core.data import SegmentData
from repro.core.packet import PacketWrap
from repro.errors import MpiError
from repro.sim import Event

__all__ = ["ANY", "SendRequest", "RecvRequest"]

#: Wildcard for source or tag matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY = -1


class SendRequest:
    """Handle on an in-progress send.

    Completion normally means the data left this node; with the
    reliability layer active it means the peer acknowledged delivery.  A
    request may alternatively *fail* (cancellation, or a
    :class:`~repro.errors.TransportError` after the retransmit budget is
    exhausted) — ``failed``/``error`` expose that state without raising,
    while waiting on ``done`` raises the error into the waiter.
    """

    __slots__ = ("wrap", "done")

    def __init__(self, wrap: PacketWrap, done: Event) -> None:
        self.wrap = wrap
        self.done = done

    @property
    def complete(self) -> bool:
        """True once the data has left this node (nonblocking test)."""
        return self.done.triggered

    @property
    def failed(self) -> bool:
        """True when the request ended in an error instead of completing."""
        return self.done.triggered and not self.done.ok

    @property
    def error(self) -> BaseException | None:
        """The failure exception, or ``None`` (nonblocking inspection)."""
        return self.done.exception if self.failed else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("failed" if self.failed
                 else "done" if self.complete else "pending")
        return f"<SendRequest {self.wrap!r} {state}>"


class RecvRequest:
    """Handle on a posted receive.

    ``src``/``tag`` may be :data:`ANY`.  ``capacity`` bounds the acceptable
    message length (``None`` = unbounded); a longer incoming message fails
    the request with a truncation error, like MPI_ERR_TRUNCATE.

    After completion, ``data``, ``actual_src``, ``actual_tag`` and
    ``actual_len`` describe the received message (the MPI_Status analogue).
    """

    __slots__ = (
        "src", "flow", "tag", "capacity", "done",
        "data", "actual_src", "actual_tag", "actual_len", "posted_at",
    )

    def __init__(
        self,
        src: int,
        flow: int,
        tag: int,
        capacity: int | None,
        done: Event,
        posted_at: float = 0.0,
    ) -> None:
        if capacity is not None and capacity < 0:
            raise MpiError(f"negative receive capacity {capacity}")
        self.src = src
        self.flow = flow
        self.tag = tag
        self.capacity = capacity
        self.done = done
        self.posted_at = posted_at
        self.data: SegmentData | None = None
        self.actual_src: int | None = None
        self.actual_tag: int | None = None
        self.actual_len: int | None = None

    @property
    def complete(self) -> bool:
        """True once matched data has fully landed (nonblocking test)."""
        return self.done.triggered

    @property
    def failed(self) -> bool:
        """True when the receive ended in an error (e.g. truncation)."""
        return self.done.triggered and not self.done.ok

    @property
    def error(self) -> BaseException | None:
        """The failure exception, or ``None`` (nonblocking inspection)."""
        return self.done.exception if self.failed else None

    def matches(self, src: int, tag: int) -> bool:
        """Does an incoming (src, tag) satisfy this posted receive?"""
        return (self.src in (ANY, src)) and (self.tag in (ANY, tag))

    def finish(self, data: SegmentData, src: int, tag: int) -> None:
        """Record the message and trigger completion (engine-internal)."""
        self.data = data
        self.actual_src = src
        self.actual_tag = tag
        self.actual_len = data.nbytes
        self.done.succeed()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.complete else "pending"
        return (
            f"<RecvRequest src={self.src} flow={self.flow} tag={self.tag} "
            f"{state}>"
        )
