"""Structural typing contracts for the engine's extension points.

* :class:`Layer` — one opt-in stage of the engine's frame pipeline
  (sessions, reliability, flow control), as ``engine.layers`` iterates it.
  It is ``runtime_checkable`` so tests can assert conformance with
  ``isinstance`` (which checks attribute presence, not signatures — the
  signatures are enforced statically by mypy).
* :func:`counter` — the one-line declaration of an ``EngineStats`` counter.
* :func:`knob` — the one-line declaration of an ``EngineParams`` field and
  its admissible range.
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

__all__ = ["Knob", "Layer", "counter", "knob"]

T = TypeVar("T")


def counter(group: str) -> int:
    """Declare an ``EngineStats`` counter (starts at 0): the one line
    ``repro report``, its JSON and the NM203/NM204 lint all derive from."""
    return field(default=0, metadata={"group": group})


@dataclass(frozen=True, slots=True)
class Knob:
    """What one ``EngineParams`` field admits (see :func:`knob`)."""

    numeric: bool                 # the default is a number
    lo: float | None              # inclusive lower bound
    gt: float | None              # exclusive lower bound
    choices: tuple[Any, ...]      # named values accepted as they are
    inf_ok: bool                  # +inf is a meaningful number here

    def check(self, name: str, value: Any) -> None:
        """Raise :class:`ValueError` unless ``value`` is admissible."""
        if value in self.choices:
            return
        if not self.numeric or not isinstance(value, (int, float)):
            expected = [str(c) for c in self.choices]
            if self.numeric:
                expected.insert(0, "a number")
            raise ValueError(f"unknown {name.replace('_', ' ')} {value!r}; "
                             f"expected {' | '.join(expected)}")
        if not (math.isfinite(value) or self.inf_ok and value == math.inf):
            raise ValueError(f"{name} must be finite, got {value!r}")
        # Written so that a comparison with NaN fails.
        if self.lo is not None and not self.lo <= value:
            raise ValueError(f"{name} must be >= {self.lo:g}, got {value!r}")
        if self.gt is not None and not self.gt < value:
            raise ValueError(f"{name} must be > {self.gt:g}, got {value!r}")


def knob(default: T, *, lo: float | None = None, gt: float | None = None,
         choices: tuple[Any, ...] = (), inf_ok: bool = False) -> T:
    """Declare an ``EngineParams`` field: its default and what it admits.

    A number must be finite (``+inf`` too when ``inf_ok``), ``>= lo`` and
    ``> gt``; a value in ``choices`` (a mode string, ``"auto"``) is taken
    as it is, and a field whose default is not a number admits nothing
    else.  ``EngineParams.__post_init__`` checks every declaration, so a
    NaN or an unknown mode fails at construction, never mid-run.
    """
    numeric = (isinstance(default, (int, float))
               and not isinstance(default, bool))
    return field(default=default, metadata={
        "knob": Knob(numeric, lo, gt, choices, inf_ok)})


@runtime_checkable
class Layer(Protocol):
    """One opt-in stage of the engine's frame pipeline.

    ``NmadEngine.layers`` holds the layers that are *on*; one that is off
    is never constructed, so paper mode iterates an empty tuple.  The
    layers subclass this protocol to inherit ``quiesced`` and the last three
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
        """``plan``'s wraps left the window into a packet a NIC took."""

    def on_match(self, inc: Incoming) -> None:
        """The application consumed message ``inc``."""

    def on_post(self, src: int) -> None:
        """The application posted a receive naming ``src``."""
