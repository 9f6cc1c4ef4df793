"""Structural typing contracts for the engine's extension points.

* :class:`Layer` — one opt-in stage of the engine's frame pipeline
  (sessions, reliability, flow control), as ``engine.layers`` iterates it.
  It is ``runtime_checkable`` so tests can assert conformance with
  ``isinstance`` (which checks attribute presence, not signatures — the
  signatures are enforced statically by mypy).
* :func:`counter` — the one-line declaration of an ``EngineStats`` counter.
* :func:`knob` — the one-line declaration of an ``EngineParams`` field and
  its admissible range.
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

__all__ = ["Knob", "Layer", "PeerTable", "counter", "knob"]

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
