"""Structural typing contracts for the engine's extension points.

* :class:`Layer` — one opt-in stage of the engine's frame pipeline
  (sessions, reliability, flow control), as ``engine.layers`` iterates it.
  It is ``runtime_checkable`` so tests can assert conformance with
  ``isinstance`` (which checks attribute presence, not signatures — the
  signatures are enforced statically by mypy).
* :func:`counter` — the one-line declaration of an ``EngineStats`` counter.
* :func:`knob` — the one-line declaration of an ``EngineParams`` field and
  its admissible range.
* The opt-in layers' declarations: :class:`ReliabilityParams` /
  :class:`ReliabilityStats`, :class:`FlowControlParams` /
  :class:`FlowControlStats`, :class:`SessionParams` /
  :class:`SessionStats`, the mixins ``EngineParams`` and ``EngineStats``
  inherit.  They live here, not beside each layer, because this module
  imports no layer: the engine loads a layer's module only to build it.
* :class:`PeerTable` — a layer's per-peer state, built on first lookup.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Protocol, TypeVar, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.matching import Incoming
    from repro.core.strategy import SendPlan
    from repro.netsim.frames import Frame
    from repro.netsim.nic import Nic

__all__ = ["FlowControlParams", "FlowControlStats", "Knob", "Layer",
           "PeerTable", "ReliabilityParams", "ReliabilityStats",
           "SessionParams", "SessionStats", "counter", "knob"]

T = TypeVar("T")


class PeerTable(dict[int, T]):
    """A layer's per-peer state: ``table[peer]`` builds the entry on the
    peer's first lookup; ``get`` and iteration never build one."""

    __slots__ = ("_new",)

    def __init__(self, new: Callable[[int], T]) -> None:
        super().__init__()
        self._new = new

    def __missing__(self, peer: int) -> T:
        st = self[peer] = self._new(peer)
        return st


def counter(group: str) -> int:
    """Declare an ``EngineStats`` counter (starts at 0): the one line
    ``repro report``, its JSON and the NM203 lint all derive from."""
    return field(default=0, metadata={"group": group})


@dataclass(frozen=True, slots=True)
class Knob:
    """What one ``EngineParams`` field admits (see :func:`knob`)."""

    numeric: bool                 # the default is a number
    lo: float | None              # inclusive lower bound
    gt: float | None              # exclusive lower bound
    choices: tuple[Any, ...]      # the named values a mode field admits

    def check(self, name: str, value: Any) -> None:
        """Raise :class:`ValueError` unless ``value`` is admissible."""
        if not self.numeric:
            if value not in self.choices:
                raise ValueError(
                    f"unknown {name.replace('_', ' ')} {value!r}; "
                    f"expected {' | '.join(str(c) for c in self.choices)}")
            return
        if not isinstance(value, (int, float)):
            raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}; "
                             f"expected a number")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        # Written so that a comparison with NaN fails.
        if self.lo is not None and not self.lo <= value:
            raise ValueError(f"{name} must be >= {self.lo:g}, got {value!r}")
        if self.gt is not None and not self.gt < value:
            raise ValueError(f"{name} must be > {self.gt:g}, got {value!r}")


def knob(default: T, *, lo: float | None = None, gt: float | None = None,
         choices: tuple[Any, ...] = ()) -> T:
    """Declare an ``EngineParams`` field: its default and what it admits.

    A field whose default is a number admits a finite number ``>= lo``
    and ``> gt``; any other field is a mode and admits exactly its
    ``choices``.  ``EngineParams.__post_init__`` checks every
    declaration, so a NaN or an unknown mode fails at construction,
    never mid-run.
    """
    numeric = (isinstance(default, (int, float))
               and not isinstance(default, bool))
    return field(default=default, metadata={
        "knob": Knob(numeric, lo, gt, choices)})


@dataclass(frozen=True)
class ReliabilityParams:
    """Reliability knobs (``EngineParams`` inherits them)."""

    #: Transport reliability.  The paper's engine targets reliable
    #: system-area networks and performs no retransmission, so ``"off"`` is
    #: the default and keeps every benchmark number unchanged; ``"ack"``
    #: turns on the sliding-window ack/retransmit protocol with rail
    #: failover.
    reliability: str = knob("off", choices=("off", "ack"))
    #: Always ``"auto"``; kept because benchmarks/macro/workloads.py passes
    #: it by name.  The retransmit timeout is always the measured one:
    #: per-peer Jacobson SRTT/RTTVAR estimation (:mod:`repro.core.rttstat`)
    #: derives it as ``RTO_HEADROOM * (srtt + 4*rttvar)`` clamped into
    #: ``[RTO_FLOOR_US, RTO_CEILING_US]``, seeded from the engine's rails
    #: until a peer is measured.
    rel_timeout_us: str = knob("auto", choices=("auto",))
    #: Retransmissions per frame before the send fails with TransportError.
    rel_retry_budget: int = knob(8, lo=1)
    #: Reverse-silence window before a standalone ack frame is emitted.
    rel_ack_delay_us: float = knob(25.0, lo=0.0)


@dataclass
class ReliabilityStats:
    """Reliability counters (``EngineStats`` inherits them)."""

    retransmits: int = counter("reliability")
    duplicates_suppressed: int = counter("reliability")
    failovers: int = counter("reliability")
    rails_quarantined: int = counter("reliability")
    rails_reprobed: int = counter("reliability")  # probes that lifted a quarantine
    acks_sent: int = counter("reliability")
    corrupt_discards: int = counter("reliability")  # at the rx entry: any mode
    transport_failures: int = counter("reliability")
    # Adaptive timing (all zero outside reliability="ack").
    rtt_samples: int = counter("adaptive")   # acks that fed the estimator


@dataclass(frozen=True)
class FlowControlParams:
    """Flow-control knobs (``EngineParams`` inherits them)."""

    #: Overload protection.  The paper's engine assumes well-behaved peers
    #: and unbounded buffering, so ``"off"`` is the default and keeps every
    #: benchmark figure bit-identical; ``"credit"`` turns on receive-side
    #: credit flow control for eager traffic (rendezvous traffic is
    #: self-paced by its grant).
    flow_control: str = knob("off", choices=("off", "credit"))


@dataclass
class FlowControlStats:
    """Overload-protection counters (``EngineStats`` inherits them)."""

    credit_stalls: int = counter("flow_control")    # dest became credit-blocked
    credits_granted: int = counter("flow_control")  # grants of released credit
    # Always 0; kept because benchmarks/macro/one_run.py reads it by name.
    nacks_sent: int = counter("flow_control")


@dataclass(frozen=True)
class SessionParams:
    """Session knobs (``EngineParams`` inherits them)."""

    #: Failure detection and session epochs.  The paper's engine assumes
    #: every peer stays alive, so ``"off"`` is the default and keeps every
    #: benchmark figure bit-identical; ``"epoch"`` stamps a session header
    #: on every frame, runs a hello/welcome handshake per peer, and
    #: confirms peers dead after ``hb_timeout_us`` of silence.
    sessions: str = knob("off", choices=("off", "epoch"))
    #: Heartbeat/monitor period: how often a watched peer's silence is
    #: re-examined and (when the line is otherwise idle) probed.
    hb_interval_us: float = knob(50.0, gt=0.0)
    #: Silence before a peer is confirmed dead; at half of this the peer
    #: becomes *suspected* (counted, traced, not yet acted on).
    hb_timeout_us: float = knob(500.0, gt=0.0)

    def _check_sessions(self) -> None:
        """The rule between fields; each field's own range is its knob."""
        if self.hb_timeout_us < 2 * self.hb_interval_us:
            raise ValueError(
                "hb_timeout_us must be at least 2*hb_interval_us: a "
                "timeout shorter than two monitor ticks declares a peer "
                "dead before a single probe could round-trip"
            )


@dataclass
class SessionStats:
    """Session counters (``EngineStats`` inherits them)."""

    peers_suspected: int = counter("sessions")  # crossed half the hb timeout
    peers_dead: int = counter("sessions")       # confirmed dead by the detector
    epochs_started: int = counter("sessions")   # sessions established
    stale_frames_fenced: int = counter("sessions")  # stale-incarnation discards
    heartbeats_sent: int = counter("sessions")  # idle probes and probe replies
    peers_recovered: int = counter("partition")  # suspects that resumed contact
    frames_parked: int = counter("partition")   # frames held for a suspect peer


@runtime_checkable
class Layer(Protocol):
    """One opt-in stage of the engine's frame pipeline.

    ``NmadEngine.layers`` holds the layers that are *on*; one that is off
    is never constructed, so paper mode iterates an empty tuple.  The
    layers subclass this protocol to inherit ``quiesced`` and the last three
    hooks, datapath stages most layers let pass.  A hook a layer does not
    override is never called: the engine collects the overrides once.
    """

    def send(
        self,
        nic: Nic,
        frame: Frame,
        cpu_gap_us: float,
        on_delivered: Callable[[], None] | None,
        on_failed: Callable[[BaseException], None] | None,
    ) -> bool:
        """Transmit hook: ``True`` = took the frame over (sent, buffered or
        failed it), ``False`` = stamped, pass it on."""
        ...

    def on_frame(self, rail: int, frame: Frame) -> bool:
        """Receive hook: ``True`` = pass inwards, ``False`` = absorbed."""
        ...

    def halt(self) -> None:
        """This node crashed: silence every timer, run no callbacks."""
        ...

    def reset_peer(self, peer: int, exc: BaseException) -> None:
        """Drop all state towards a dead/restarted peer, failing what was
        in flight with ``exc`` (one step of the atomic teardown)."""
        ...

    def has_outstanding(self, peer: int | None = None) -> bool:
        """Is something owed or awaited (towards ``peer``) that only the
        peer can resolve?  Self-firing timers do not count: the failure
        detector and the engine's quiesce check poll this."""
        ...

    @property
    def quiesced(self) -> bool:
        """True when the layer holds no deferred work at all."""
        return not self.has_outstanding()

    def describe_peer(self, peer: int) -> str:
        """One-line per-peer diagnostic for the engine's stall report."""
        ...

    def commit(self, plan: SendPlan) -> None:
        """``plan``'s wraps left the window into a packet a NIC took."""

    def on_match(self, inc: Incoming) -> None:
        """The application consumed message ``inc``."""

    def on_post(self, src: int) -> None:
        """The application posted a receive naming ``src``."""
