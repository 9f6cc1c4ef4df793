"""Structural typing contracts for the engine's extension points.

The engine is "dynamically extensible" (paper abstract): strategies come
from a registry, tactics are plain callables strategies compose, and the
transfer layer drives whatever NIC objects the node carries.  These
Protocols pin down exactly what each extension point must provide, so a
third-party strategy or an instrumented test double type-checks against
the engine without inheriting from the concrete classes:

* :class:`StrategyLike` — what :class:`repro.core.transfer.TransferLayer`
  calls on the active optimization function.  :class:`~repro.core.
  strategy.Strategy` satisfies it; so does any duck-typed stand-in.
* :class:`TacticLike` — the shape of a packet-synthesis tactic such as
  :func:`repro.core.tactics.plan_aggregate`: pure function from candidate
  wraps to an :class:`~repro.core.tactics.AggregateChoice`.
* :class:`NicLike` — the slice of :class:`repro.netsim.nic.Nic` the
  transfer layer depends on (idle-driven pull, post_send, receive hook).
* :class:`Layer` — one opt-in stage of the engine's frame pipeline
  (sessions, reliability, flow control), as ``engine.layers`` iterates it.

All four are ``runtime_checkable`` so tests can assert conformance with
``isinstance`` (which checks attribute presence, not signatures — the
signatures are enforced statically by mypy).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import field
from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.matching import Incoming
    from repro.core.packet import PacketWrap
    from repro.core.strategy import SchedulingContext, SendPlan
    from repro.core.tactics import AggregateChoice
    from repro.netsim.frames import Frame
    from repro.netsim.nic import Nic
    from repro.netsim.profiles import NicProfile
    from repro.sim import Event

__all__ = ["StrategyLike", "TacticLike", "NicLike", "Layer", "counter"]


def counter(group: str) -> int:
    """Declare an ``EngineStats`` counter (starts at 0): the one line
    ``repro report``, its JSON and the NM203/NM204 lint all derive from."""
    return field(default=0, metadata={"group": group})


@runtime_checkable
class StrategyLike(Protocol):
    """An optimization function the transfer layer can drive.

    Instances may carry tuning parameters but must not keep per-call
    mutable scheduling state: the engine interleaves calls across NICs.
    """

    name: str

    def select(self, ctx: SchedulingContext) -> SendPlan | None:
        """Elect the next request for an idle NIC, or ``None``."""
        ...

    def hold_until(self, ctx: SchedulingContext) -> float | None:
        """Absolute retry time after declining despite pending work."""
        ...

    def describe(self) -> str:
        """Human-readable parameterization (for reports)."""
        ...


@runtime_checkable
class TacticLike(Protocol):
    """A packet-synthesis tactic: candidates in, aggregate choice out.

    Tactics are the reusable planning kernels strategies compose
    (:func:`repro.core.tactics.plan_aggregate` is the canonical one).
    They are pure with respect to engine state — everything they may
    consult arrives through the arguments.
    """

    def __call__(
        self,
        candidates: Sequence[PacketWrap],
        dest: int,
        rdv_threshold: int,
        sent: set[int],
        max_items: int | None = None,
        scan_past_blockage: bool = True,
    ) -> AggregateChoice:
        ...


@runtime_checkable
class NicLike(Protocol):
    """The transfer layer's view of one network interface card.

    The real :class:`repro.netsim.nic.Nic` satisfies this; a test double
    only needs these members to be driven by the engine.
    """

    rail: int
    profile: NicProfile

    @property
    def idle(self) -> bool:
        """True when no frame is being transmitted or queued."""
        ...

    @property
    def queued(self) -> int:
        """Number of frames waiting behind the current transmission."""
        ...

    def post_send(self, frame: Frame, cpu_gap_us: float = 0.0) -> Event:
        """Queue a frame; the returned event fires when it left the wire."""
        ...

    def set_receive_handler(self, fn: Callable[[Frame], None]) -> None:
        """Install the single upcall invoked per received frame."""
        ...

    def add_idle_callback(self, fn: Callable[[Any], None]) -> None:
        """Register a hook fired (with the NIC) whenever it goes idle."""
        ...


@runtime_checkable
class Layer(Protocol):
    """One opt-in stage of the engine's frame pipeline.

    ``NmadEngine.layers`` holds the layers that are *on*; one that is off
    is never constructed, so paper mode iterates an empty tuple.  The
    layers subclass this protocol to inherit ``quiesced`` and the last four
    hooks, datapath stages most layers let pass.
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
        peer can resolve?  Self-firing timers do not count: the watchdog
        and the failure detector poll this."""
        ...

    @property
    def quiesced(self) -> bool:
        """True when the layer holds no deferred work at all."""
        return not self.has_outstanding()

    def describe_peer(self, peer: int) -> str:
        """One-line per-peer diagnostic for the stall report."""
        ...

    def commit(self, plan: SendPlan) -> None:
        """``plan``'s wraps left the window into a packet."""

    def uncommit(self, plan: SendPlan) -> None:
        """That packet was dissolved before any NIC accepted it."""

    def on_match(self, inc: Incoming) -> None:
        """The application consumed message ``inc``."""

    def on_post(self, src: int) -> None:
        """The application posted a receive naming ``src``."""
