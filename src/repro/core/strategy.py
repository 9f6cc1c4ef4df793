"""Strategy interface, scheduling context, and the extensible registry.

Paper §3.2 proposes "a (dynamically in the future) selectable optimization
function ... selected among an extensible and programmable set of
strategies", and §4 notes that "developing a new strategy only requires to
write a few methods such as an initialisation method, and a request method
which returns the next communication request".  This module is that
contract:

* :class:`Strategy` — subclass, implement :meth:`Strategy.select`.
* :func:`register` — add the class to the strategy database under its
  ``name`` (the "dynamically extended" database from the abstract).
* :func:`create` — instantiate by name with keyword parameters.

``select`` receives a :class:`SchedulingContext` — the full panel of inputs
§3.2 enumerates: the window contents (count, characteristics of each
packet), the nominal/functional characteristics of the underlying network
(the NIC profile), application hints (priority, reorder, dependency
attributes on the wraps), and the current time.  It returns a
:class:`SendPlan` or ``None`` ("nothing useful to send on this NIC now").
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable, Container
from dataclasses import dataclass, field
from typing import Any

from repro.core.packet import HeaderSpec, PacketWrap, WireItem
from repro.core.window import OptimizationWindow
from repro.errors import StrategyError
from repro.netsim.profiles import NicProfile

__all__ = [
    "SchedulingContext",
    "SendPlan",
    "Strategy",
    "register",
    "create",
    "available_strategies",
    "unregister",
]


def unconstrained_budget(dest: int) -> tuple[int | None, int | None]:
    return (None, None)


@dataclass
class SchedulingContext:
    """Everything a strategy may consult when electing the next request."""

    window: OptimizationWindow
    rail: int
    nic_profile: NicProfile
    hdr: HeaderSpec
    now: float
    src_node: int = -1
    #: Answers ``wrap_id in sent_wraps`` for the dependency attributes: the
    #: engine's :class:`~repro.core.transfer.WrapLedger`, a plain set in
    #: the tactics' unit tests.
    sent_wraps: Container[int] = field(default_factory=set)
    #: ``eager_budget(dest)``: remaining eager credit ``(bytes, wraps)``
    #: towards ``dest``; ``(None, None)`` when flow control is off.  A
    #: credit-aware strategy caps its aggregate below both numbers;
    #: strategies that ignore the budget may transiently overdraw by at most
    #: one aggregate — the flow-control layer then blocks the destination
    #: until credit returns, so the overdraft is self-correcting.
    eager_budget: Callable[[int], tuple[int | None, int | None]] = \
        unconstrained_budget

    @property
    def rdv_threshold(self) -> int:
        """The eager/rendezvous switch point of this NIC's driver."""
        return self.nic_profile.rdv_threshold


@dataclass(slots=True)
class SendPlan:
    """One physical packet as a strategy elected it: an inert plan.

    Nothing is spent by building or holding one.  The transfer layer
    applies it when a NIC takes the packet: ``taken`` wraps then leave the
    window and complete when the frame is sent; ``announced`` wraps leave
    the window into the rendezvous-pending table, each adding its RdvReq
    record behind ``items``.
    """

    dest: int
    items: list[WireItem]
    taken: list[PacketWrap] = field(default_factory=list)
    announced: list[PacketWrap] = field(default_factory=list)

    def validate(self, ctx: SchedulingContext) -> None:
        """Enforce the strategy contracts the engine relies on."""
        if not self.items and not self.announced:
            raise StrategyError("plan with no wire items and no announcements")
        for wrap in self.taken + self.announced:
            if wrap.dest != self.dest:
                raise StrategyError(
                    f"plan mixes destinations: {wrap!r} vs dest={self.dest}"
                )
        eager_payload = 0
        for wrap in self.taken:
            eager_payload += wrap.length
        if eager_payload > ctx.rdv_threshold and len(self.taken) > 1:
            raise StrategyError(
                f"aggregate of {eager_payload}B exceeds the rendezvous "
                f"threshold ({ctx.rdv_threshold}B); aggregation must stop "
                "below the switch point (paper section 4)"
            )


class Strategy(ABC):
    """Base class for optimization strategies.

    Subclasses set ``name`` and implement :meth:`select`.  Instances may
    keep tuning parameters but must not keep per-call mutable scheduling
    state (the engine may call them for several NICs interleaved).
    """

    #: Registry key; subclasses must override.
    name: str = ""
    #: May a granted rendezvous transfer stream its chunks over every rail
    #: (paper §4, §7), not only the rail that announced it?
    multirail_bulk: bool = False

    @abstractmethod
    def select(self, ctx: SchedulingContext) -> SendPlan | None:
        """Elect the next request for an idle NIC, or None."""

    def hold_until(self, ctx: SchedulingContext) -> float | None:
        """When to retry after ``select`` returned None despite pending work.

        Latency-favoring strategies never hold (return ``None``); a
        bandwidth-favoring strategy may deliberately leave an idle NIC
        unfed for a bounded time to let more requests accumulate (paper §2:
        "instead favoring the bandwidth may be a better bet").  The
        transfer layer re-pulls at the returned absolute time.
        """
        return None

    def describe(self) -> str:
        """Human-readable parameterization (for reports and examples)."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Strategy {self.describe()}>"


_REGISTRY: dict[str, type[Strategy]] = {}


def register(cls: type[Strategy]) -> type[Strategy]:
    """Class decorator: add a strategy to the database.

    Re-registering a name is an error (catch typos and accidental
    shadowing); use :func:`unregister` first to replace deliberately.
    """
    if not issubclass(cls, Strategy):
        raise StrategyError(f"{cls!r} is not a Strategy subclass")
    if not cls.name:
        raise StrategyError(f"{cls.__name__} must define a non-empty name")
    if cls.name in _REGISTRY:
        raise StrategyError(f"strategy {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def unregister(name: str) -> None:
    """Remove a strategy from the database (no-op if absent)."""
    _REGISTRY.pop(name, None)


def create(name: str, **params: Any) -> Strategy:
    """Instantiate a registered strategy by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise StrategyError(
            f"unknown strategy {name!r}; available: {available_strategies()}"
        ) from None
    return cls(**params)


def available_strategies() -> list[str]:
    """Sorted names currently in the database."""
    return sorted(_REGISTRY)
