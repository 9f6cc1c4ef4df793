"""Point-to-point wire between two NICs.

A :class:`Link` is unidirectional (topology creates one per direction); it
adds propagation latency and delivers frames to the destination NIC in
transmission order.  Ordering is guaranteed because the sending NIC
serializes transmissions and the link never lets a frame overtake an
earlier one (delivery times are clamped monotonic, which matters when a
``slow_link`` fault ends mid-flight), and the kernel resolves equal
timestamps in scheduling order.

The link also keeps conservation counters (frames/bytes entered vs
delivered) that the property tests use to prove no packet is ever lost or
duplicated by the scheduling engine above.

Faults are modelled by a composable :class:`FaultPlan` (drop the nth
frame, corrupt payloads, slow the link down over a time window, take the
link permanently down at a given time, deliver an arrival twice, hold an
arrival back past its successors, seeded latency jitter, and timed
partition windows).  The engine — like
the real NewMadeleine, which targets reliable system-area networks (MX,
Elan, SCI) — performs **no retransmission** by default; fault injection
exists so tests can prove that a loss surfaces as a visible failure (stuck
requests, failed conservation check, parked sequence gaps) rather than
silent corruption.  The opt-in reliability layer
(:mod:`repro.core.reliability`) builds recovery on top of these same
fault hooks.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence
from functools import partial
from random import Random

from typing import TYPE_CHECKING

from repro.errors import NetworkError
from repro.netsim.frames import Frame
from repro.sim import Simulator, Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.fabric import Switch
    from repro.netsim.nic import Nic

__all__ = ["FaultPlan", "Link"]

#: Outcomes a fault decision may produce.
DELIVER, DROP, CORRUPT = "deliver", "drop", "corrupt"
#: Partition drops are ordinary drops wearing a name tag: the link counts
#: them separately so ``fault_summary()`` can tell a lossy wire from a
#: severed one.
DROP_PARTITION = "drop_partition"
DUPLICATE = "duplicate"


def _check_finite(*values: float | None) -> None:
    """Reject NaN and infinities; ``None`` ("never", "forever") passes."""
    for value in values:
        if value is not None and not math.isfinite(value):
            raise NetworkError(
                f"fault times, factors and delays must be finite, got "
                f"{value}")


class FaultPlan:
    """Deterministic, composable fault model for one link.

    A plan combines any of:

    * ``drop_nth`` — 1-based arrival indices to drop (a burst of losses
      is a run of consecutive indices);
    * ``corrupt_nth`` — arrival indices delivered with a failing checksum
      (the receiver discards them like a loss, but the bytes did travel);
    * ``slow_link`` — ``(factor, from_us, until_us)`` multiplying the
      link's propagation latency by ``factor`` for frames entering the
      wire in ``[from_us, until_us)`` (``until_us=None`` = forever): a
      degraded-but-alive link, the overload scenario flow control is
      built for;
    * ``down_at_us`` — a time after which every frame is dropped (permanent
      link failure);
    * ``dup_nth`` — 1-based arrival indices delivered *twice* (the wire
      echoes the frame; both copies arrive back to back);
    * ``reorder`` — ``(nth, delay_us)`` pairs holding the nth arrival back
      ``delay_us`` past its normal delivery time while letting later
      frames overtake it (the one fault that deliberately bypasses the
      link's FIFO floor);
    * ``jitter`` — ``(max_us, seed)`` adding seeded uniform latency noise
      in ``[0, max_us)`` per delivered frame.  Jitter respects the FIFO
      floor, so it spreads deliveries without reordering them;
    * ``partitions`` — ``(from_us, until_us)`` windows during which every
      frame is dropped (``until_us=None`` = forever), counted separately
      from plain drops.  :meth:`~repro.netsim.topology.Cluster.partition`
      installs these across group boundaries;
    * ``switch_down_at`` — a virtual time at which a whole *switch*
      fail-stops, taking every path through it with it.  This is not a
      link-level decision: ``decide`` ignores it; apply the plan through
      :meth:`~repro.netsim.topology.Cluster.schedule_switch_fault`.

    Every factor, time and delay must be finite; ``None`` is how a plan
    says "never" or "forever".  Plans keep per-instance arrival counters
    (and a per-instance jitter RNG), so do not share one instance across
    links.  Drop decisions win over duplication, which wins over
    corruption, when several match.
    """

    def __init__(
        self,
        drop_nth: Sequence[int] = (),
        corrupt_nth: Sequence[int] = (),
        slow_link: tuple[float, float, float | None] | None = None,
        down_at_us: float | None = None,
        dup_nth: Sequence[int] = (),
        reorder: Sequence[tuple[int, float]] = (),
        jitter: tuple[float, int] | None = None,
        partitions: Sequence[tuple[float, float | None]] = (),
        switch_down_at: float | None = None,
    ) -> None:
        for n in tuple(drop_nth) + tuple(corrupt_nth) + tuple(dup_nth):
            if n < 1:
                raise NetworkError(f"fault indices are 1-based, got {n}")
        if slow_link is not None:
            factor, from_us, until_us = slow_link
            _check_finite(factor, from_us, until_us)
            if factor < 1:
                raise NetworkError(
                    f"slow_link factor must be >= 1, got {factor}")
            if from_us < 0:
                raise NetworkError(f"negative slow_link from_us {from_us}")
            if until_us is not None and until_us <= from_us:
                raise NetworkError(
                    f"empty slow_link window [{from_us}, {until_us})")
        _check_finite(down_at_us, switch_down_at)
        if down_at_us is not None and down_at_us < 0:
            raise NetworkError(f"negative down_at_us {down_at_us}")
        reorder_map: dict[int, float] = {}
        for n, delay_us in reorder:
            _check_finite(delay_us)
            if n < 1:
                raise NetworkError(f"fault indices are 1-based, got {n}")
            if delay_us <= 0:
                raise NetworkError(
                    f"reorder delay must be positive, got {delay_us}")
            if n in reorder_map:
                raise NetworkError(f"duplicate reorder index {n}")
            reorder_map[n] = delay_us
        if jitter is not None:
            max_us, _seed = jitter
            _check_finite(max_us)
            if max_us <= 0:
                raise NetworkError(
                    f"jitter max_us must be positive, got {max_us}")
        self.partitions: list[tuple[float, float | None]] = []
        for from_us, until_us in partitions:
            self.add_partition(from_us, until_us)
        if switch_down_at is not None and switch_down_at < 0:
            raise NetworkError(f"negative switch_down_at {switch_down_at}")
        self.drop_nth = frozenset(drop_nth)
        self.corrupt_nth = frozenset(corrupt_nth)
        self.slow_link = slow_link
        self.down_at_us = down_at_us
        self.dup_nth = frozenset(dup_nth)
        self.reorder = reorder_map
        self.jitter = jitter
        self._jitter_rng: Random | None = (
            Random(jitter[1]) if jitter is not None else None)
        self.switch_down_at = switch_down_at
        self._n = 0

    def add_partition(self, from_us: float, until_us: float | None) -> None:
        """Validate and append one partition window (the constructor's too)."""
        _check_finite(from_us, until_us)
        if from_us < 0:
            raise NetworkError(f"negative partition from_us {from_us}")
        if until_us is not None and until_us <= from_us:
            raise NetworkError(
                f"empty partition window [{from_us}, {until_us})")
        self.partitions.append((from_us, until_us))

    def decide(self, now: float) -> str:
        """Classify the next arrival: deliver, drop, duplicate, or corrupt."""
        self._n += 1
        n = self._n
        if self.down_at_us is not None and now >= self.down_at_us:
            return DROP
        if self.partitions and any(
                from_us <= now and (until_us is None or now < until_us)
                for from_us, until_us in self.partitions):
            return DROP_PARTITION
        if n in self.drop_nth:
            return DROP
        if n in self.dup_nth:
            return DUPLICATE
        if n in self.corrupt_nth:
            return CORRUPT
        return DELIVER

    def extra_latency(self, now: float) -> tuple[float, bool]:
        """``(extra_us, overtake_ok)`` for the arrival ``decide`` just saw.

        ``extra_us`` combines jitter noise and any ``reorder`` hold-back;
        ``overtake_ok`` is True only for a reordered frame, telling the
        link to leave its FIFO floor alone so successors can pass it.
        """
        extra = 0.0
        overtake = False
        if self._jitter_rng is not None and self.jitter is not None:
            extra += self._jitter_rng.uniform(0.0, self.jitter[0])
        delay_us = self.reorder.get(self._n)
        if delay_us is not None:
            extra += delay_us
            overtake = True
        return extra, overtake

    def latency_factor(self, now: float) -> float:
        """Latency multiplier for a frame entering the wire at ``now``."""
        if self.slow_link is None:
            return 1.0
        factor, from_us, until_us = self.slow_link
        if now < from_us or (until_us is not None and now >= until_us):
            return 1.0
        return factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = []
        if self.drop_nth:
            parts.append(f"drop_nth={sorted(self.drop_nth)}")
        if self.corrupt_nth:
            parts.append(f"corrupt_nth={sorted(self.corrupt_nth)}")
        if self.slow_link is not None:
            parts.append(f"slow_link={self.slow_link}")
        if self.down_at_us is not None:
            parts.append(f"down_at={self.down_at_us}us")
        if self.dup_nth:
            parts.append(f"dup_nth={sorted(self.dup_nth)}")
        if self.reorder:
            parts.append(f"reorder={sorted(self.reorder.items())}")
        if self.jitter is not None:
            parts.append(f"jitter={self.jitter}")
        if self.partitions:
            parts.append(f"partitions={self.partitions}")
        if self.switch_down_at is not None:
            parts.append(f"switch_down_at={self.switch_down_at}us")
        return f"<FaultPlan {' '.join(parts) or 'clean'}>"


class Link:
    """One directed wire between two endpoints with fixed latency.

    Endpoints are NICs in the flat mesh; structured fabrics
    (:mod:`repro.netsim.fabric`) also terminate links on switches, which
    forward rather than consume — the endpoint duck type is ``name``,
    ``node_id``, ``is_forwarder`` and ``_arrive``.
    """

    def __init__(
        self,
        sim: Simulator,
        src: Nic | Switch,
        dst: Nic | Switch,
        latency_us: float,
        tracer: Tracer | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if latency_us < 0:
            raise NetworkError(f"negative link latency {latency_us}")
        self.sim = sim
        self.src = src
        self.dst = dst
        self.latency_us = latency_us
        self.tracer = tracer if tracer is not None else Tracer()
        self.fault_plan = fault_plan
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        self.frames_corrupted = 0
        self.frames_slowed = 0
        self.frames_duplicated = 0
        self.frames_reordered = 0
        self.frames_jittered = 0
        self.frames_partition_dropped = 0
        #: Drops of frames already carrying the ``corrupted`` flag from an
        #: earlier hop — the chaos auditor's corrupt-conservation bound
        #: needs them: such a frame is neither discarded by an engine nor
        #: visible in any switch counter.
        self.frames_corrupt_dropped = 0
        self.bytes_sent = 0
        self.bytes_delivered = 0
        self.bytes_dropped = 0
        self.bytes_duplicated = 0
        self.down_since: float | None = None
        # FIFO floor: no frame may be delivered before an earlier one (a
        # slow_link window ending mid-flight would otherwise let later
        # frames overtake).  At constant latency the clamp never binds.
        self._last_deliver_at = 0.0
        self.name = f"link.{src.name}->{dst.name}"

    def add_partition(self, from_us: float, until_us: float | None) -> None:
        """Drop every frame in ``[from_us, until_us)``, atop any fault plan."""
        plan = self.fault_plan if self.fault_plan is not None else FaultPlan()
        plan.add_partition(from_us, until_us)
        self.fault_plan = plan

    def transmit(self, frame: Frame) -> None:
        """Accept a fully-serialized frame and deliver it after the latency."""
        if not self.dst.is_forwarder and frame.dst_node != self.dst.node_id:
            # A forwarder endpoint (switch) routes on the final host
            # address; only terminal NIC endpoints enforce it.
            raise NetworkError(
                f"{self.name}: frame addressed to node {frame.dst_node}, "
                f"link ends at node {self.dst.node_id}"
            )
        self.frames_sent += 1
        self.bytes_sent += frame.wire_size
        sim = self.sim
        now = sim.now
        tracer = self.tracer
        plan = self.fault_plan
        action = DELIVER if plan is None else plan.decide(now)
        if action in (DROP, DROP_PARTITION):
            self.frames_dropped += 1
            self.bytes_dropped += frame.wire_size
            if action == DROP_PARTITION:
                self.frames_partition_dropped += 1
            if frame.corrupted:
                self.frames_corrupt_dropped += 1
            if plan.down_at_us is not None and now >= plan.down_at_us:
                if self.down_since is None:
                    self.down_since = now
                    if tracer.enabled:
                        tracer.emit(now, self.name, "link_down")
            if tracer.enabled:
                tracer.emit(now, self.name, "wire_drop",
                            frame=frame.frame_id, size=frame.wire_size,
                            partition=action == DROP_PARTITION)
            return
        if action == CORRUPT:
            # The bytes travel (conservation holds) but the payload checksum
            # will fail on arrival.  Deliver a flagged copy so a sender-held
            # retransmit buffer never sees the corruption.
            self.frames_corrupted += 1
            frame = dataclasses.replace(frame, corrupted=True)
            if tracer.enabled:
                tracer.emit(now, self.name, "wire_corrupt",
                            frame=frame.frame_id, size=frame.wire_size)
        latency = self.latency_us
        extra_us = 0.0
        overtake = False
        if plan is not None:
            # A fault plan costs what it uses: each helper only if configured.
            if plan.slow_link is not None:
                factor = plan.latency_factor(now)
                if factor > 1.0:
                    latency *= factor
                    self.frames_slowed += 1
                    if tracer.enabled:
                        tracer.emit(now, self.name, "wire_slow",
                                    frame=frame.frame_id, factor=factor)
            if plan.jitter is not None or plan.reorder:
                extra_us, overtake = plan.extra_latency(now)
        deliver_at = now + latency + extra_us
        if overtake:
            # A reordered frame is held back without raising the FIFO floor:
            # successors keep their normal delivery times and overtake it.
            self.frames_reordered += 1
            floor = max(self._last_deliver_at, now + latency)
            self._last_deliver_at = floor
            if tracer.enabled:
                tracer.emit(now, self.name, "wire_reorder",
                            frame=frame.frame_id, delay_us=extra_us)
        else:
            if extra_us > 0.0:
                self.frames_jittered += 1
            if deliver_at < self._last_deliver_at:
                deliver_at = self._last_deliver_at
            self._last_deliver_at = deliver_at
        if tracer.enabled:
            tracer.emit(now, self.name, "wire_enter",
                        frame=frame.frame_id, size=frame.wire_size)
        if action == DUPLICATE:
            # The wire echoes the frame: a second, independent delivery of
            # the same bytes right behind the first (FIFO tie-break keeps
            # the original in front).
            self.frames_duplicated += 1
            self.bytes_duplicated += frame.wire_size
            if tracer.enabled:
                tracer.emit(now, self.name, "wire_dup",
                            frame=frame.frame_id, size=frame.wire_size)
            deliver = partial(self._deliver, frame)
            sim.schedule_batch(deliver_at - now, [deliver, deliver])
        else:
            sim.schedule(deliver_at - now, partial(self._deliver, frame))

    def _deliver(self, frame: Frame) -> None:
        self.frames_delivered += 1
        self.bytes_delivered += frame.wire_size
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "wire_exit",
                             frame=frame.frame_id, size=frame.wire_size)
        self.dst._arrive(frame)

    @property
    def down(self) -> bool:
        """True once a ``down_at_us`` fault has taken the link down."""
        return self.down_since is not None
