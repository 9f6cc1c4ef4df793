"""Send and receive request handles.

These are the engine-native equivalents of MPI nonblocking requests: the
application keeps the handle, the engine completes it.  MAD-MPI's
``MPI_Isend``/``MPI_Irecv``/``MPI_Wait``/``MPI_Test`` map one-to-one onto
these (paper §3.4: "these four operations being directly mapped to the
equivalent operations of NewMadeleine").

A nonblocking operation is *one object*: the handle is its own completion
event (``yield req``, ``sim.all_of(reqs)``; ``req.done`` is the request
itself).  The event carries an outcome and no value; what was received is
read off the request (``data``, ``actual_*``).  A handle pins that status
and the data, never its packet wrap: a pending send and its wrap point at
each other, and :meth:`SendRequest.settle` drops the request's side the
moment the send is over, so no finished message sits in a reference cycle
waiting for the cycle collector.  Debug labels (``send:dest/flow/tag``) are
rendered from the request's own fields on demand, never stored.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.data import SegmentData
from repro.errors import MpiError
from repro.sim import Event, Simulator

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.packet import PacketWrap

__all__ = ["ANY", "Request", "SendRequest", "RecvRequest"]

#: Wildcard for source or tag matching (MPI_ANY_SOURCE / MPI_ANY_TAG).
ANY = -1


class Request(Event):
    """A nonblocking operation, which is its own completion event.

    A request may *fail* instead of completing (cancellation, deadline,
    truncation, :class:`~repro.errors.TransportError` once the retransmit
    budget is spent): ``failed``/``error`` expose that without raising,
    while waiting on the request raises the error into the waiter.
    """

    __slots__ = ()

    @property
    def done(self) -> Request:
        """The completion event: the request itself (``yield req.done`` is
        the long form of ``yield req``)."""
        return self

    #: Nonblocking completion test (MPI_Test semantics, no progress).
    complete = Event.triggered

    @property
    def failed(self) -> bool:
        """True when the operation ended in an error instead of completing."""
        return self.triggered and not self.ok

    @property
    def error(self) -> BaseException | None:
        """The failure exception, or ``None`` (nonblocking inspection)."""
        return self.exception if self.failed else None

    def fail_observed(self, exc: BaseException) -> None:
        """Fail with ``exc``, marked observed.  The failure reaches the
        application through ``failed``/``error``/wait; a program that only
        polls must not crash at ``run()`` end with the kernel's
        unobserved-failure re-raise despite having handled the error.
        """
        self.fail(exc)
        self.defuse()


class SendRequest(Request):
    """Handle on an in-progress send.

    Completion normally means the data left this node; with the
    reliability layer active it means the peer acknowledged delivery.
    ``wrap`` is the packet wrap while the send is pending (what ``cancel``
    and ``depends_on=req.wrap.wrap_id`` work on), ``None`` once settled.
    """

    __slots__ = ("wrap", "dest", "flow", "posted_tag")

    def __init__(self, sim: Simulator, dest: int, flow: int, tag: int) -> None:
        Event.__init__(self, sim)
        self.wrap: PacketWrap | None = None
        self.dest = dest
        self.flow = flow
        self.posted_tag = tag

    @property
    def name(self) -> str:
        return f"send:{self.dest}/{self.flow}/{self.posted_tag}"

    def settle(self, exc: BaseException | None = None) -> None:
        """The send is over — sent, or failed with ``exc`` (retry budget,
        cancel, deadline, peer teardown): trigger once, let go of the wrap.
        """
        if self.triggered:
            return
        self.wrap = None
        if exc is None:
            self.succeed()
        else:
            self.fail_observed(exc)


class RecvRequest(Request):
    """Handle on a posted receive.

    ``posted_src``/``posted_tag`` are the selectors the receive was posted
    with and may be :data:`ANY`.  ``capacity`` bounds the acceptable
    message length (``None`` = unbounded); a longer incoming message fails
    the request with a truncation error, like MPI_ERR_TRUNCATE.

    After completion, ``data``, ``actual_src``, ``actual_tag`` and
    ``actual_len`` describe the received message (the MPI_Status analogue).
    """

    __slots__ = (
        "posted_src", "flow", "posted_tag", "capacity", "posted_at",
        "data", "actual_src", "actual_tag", "actual_len",
    )

    def __init__(
        self,
        sim: Simulator,
        src: int,
        flow: int,
        tag: int,
        capacity: int | None,
        posted_at: float = 0.0,
    ) -> None:
        if capacity is not None and capacity < 0:
            raise MpiError(f"negative receive capacity {capacity}")
        Event.__init__(self, sim)
        self.posted_src = src
        self.flow = flow
        self.posted_tag = tag
        self.capacity = capacity
        self.posted_at = posted_at
        self.data: SegmentData | None = None
        self.actual_src: int | None = None
        self.actual_tag: int | None = None
        self.actual_len: int | None = None

    @property
    def name(self) -> str:
        return f"recv:{self.posted_src}/{self.flow}/{self.posted_tag}"

    def matches(self, src: int, tag: int) -> bool:
        """Does an incoming (src, tag) satisfy this posted receive?"""
        return (self.posted_src in (ANY, src)
                and self.posted_tag in (ANY, tag))

    def finish(self, data: SegmentData, src: int, tag: int) -> None:
        """Record the message and trigger completion (engine-internal)."""
        self.data = data
        self.actual_src = src
        self.actual_tag = tag
        self.actual_len = data.nbytes
        self.succeed()
