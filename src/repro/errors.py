"""Exception hierarchy for the repro package.

All exceptions raised intentionally by this library derive from
:class:`ReproError` so callers can catch library failures without also
swallowing programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SimulationError(ReproError):
    """Misuse or internal inconsistency of the discrete-event kernel."""


class NetworkError(ReproError):
    """Invalid network configuration or transfer-layer misuse."""


class ProtocolError(ReproError):
    """A communication protocol invariant was violated.

    Raised, for example, when a rendezvous acknowledgement arrives for an
    unknown handle or a frame is delivered to a node that never posted a
    matching structure.  In a correct run these indicate bugs, so they are
    never silently ignored.
    """


class MatchError(ReproError):
    """Receive-side matching failed in a way the application can observe."""


class TransportError(ReproError):
    """A reliable delivery could not be completed.

    Raised (as a request-level failure, never as a silent hang) when the
    optional reliability layer exhausts its retransmit budget for a frame:
    the affected :class:`~repro.core.requests.SendRequest` fails with this
    error while unrelated flows keep progressing.  Never raised in the
    default ``reliability="off"`` (paper-faithful) mode, where a loss
    surfaces as a visible stall instead.
    """


class PeerDeadError(TransportError):
    """A request failed because its peer was declared dead (or restarted).

    Only raised by the optional session layer
    (``EngineParams.sessions="epoch"``): when the heartbeat failure
    detector confirms a peer dead, or an epoch change reveals the peer
    restarted, every request bound to the old incarnation fails with this
    error — in-flight sends, queued sends and posted receives alike —
    while traffic to other peers keeps progressing.  Never raised
    in the default ``sessions="off"`` (paper-faithful) mode.
    """


class RailDownError(TransportError):
    """Delivery failed because the rail it depended on is down.

    A specialization of :class:`TransportError` used when the retransmit
    budget was exhausted on a rail the engine has quarantined (or whose
    link went permanently down), so the failure is attributable to the
    rail rather than to transient loss.
    """


class StrategyError(ReproError):
    """A scheduling strategy broke one of its contracts.

    Strategies must only emit packets that (a) exist in the optimization
    window, (b) respect the rendezvous threshold for eager aggregates, and
    (c) preserve per-flow submission order unless the flow allows
    reordering.  The engine validates these contracts and raises this error
    on violation rather than corrupting the schedule.
    """


class DatatypeError(ReproError):
    """Invalid derived-datatype construction or pack/unpack misuse."""


class MpiError(ReproError):
    """MPI-level misuse (bad rank, truncation, invalid request state)."""


class CommRevokedError(MpiError):
    """An operation was attempted on a revoked communicator.

    After :meth:`~repro.madmpi.comm.Communicator.revoke` marks a
    communicator dead (typically in response to a
    :class:`PeerDeadError` from one of its members), any further
    ``isend``/``irecv``/collective on it raises this error immediately —
    the ULFM-style fail-fast that lets survivors agree to
    :meth:`~repro.madmpi.comm.Communicator.shrink` instead of
    deadlocking inside a collective.
    """


class DeadlineExceededError(MpiError):
    """A request's per-call deadline expired before it could complete.

    Only raised when the caller passed ``deadline_us`` to ``isend`` /
    ``irecv`` (engine-native or MAD-MPI): when the virtual-time budget
    runs out, a still-pending send is retracted from the optimization
    window (or its anticipated packet) exactly like ``cancel()`` and a
    still-unmatched receive is unposted, then the request fails with this
    error — surfaced through ``wait``/``test`` like every other
    request-level failure.  A request that already completed, or a send
    whose data already left the node, is never failed retroactively.
    """
