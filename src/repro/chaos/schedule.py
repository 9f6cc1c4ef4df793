"""Seeded chaos schedules: a seed expands into a concrete fault list.

A schedule is a flat list of :class:`ChaosFault` records, each naming one
fault the runner installs before traffic starts — a link-level fault on a
directed ``src -> dst`` wire (drop/burst/corrupt/slow/dup/reorder/jitter),
a cluster-level partition between node groups, or a node crash/restart.
Keeping the schedule a plain value (instead of pre-built
:class:`~repro.netsim.link.FaultPlan` objects) is what makes the shrinker
possible: the greedy minimizer re-runs arbitrary sublists of the same
schedule, and the repro snippet prints the surviving records verbatim.

Generation is a pure function of ``(seed, spec)`` via one
``random.Random(seed)`` stream, so a seed reported by a CI sweep replays
bit-identically anywhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from random import Random
from typing import Any

from repro.core.engine import OPT_IN, EngineParams
from repro.errors import ReproError

__all__ = ["FAULT_KINDS", "HARDENED", "ChaosFault", "ChaosSpec",
           "generate_schedule"]

#: Every fault kind a schedule may contain.  ``crash`` only appears when
#: :attr:`ChaosSpec.crashes` is set (restart-aware drivers only);
#: ``rack_partition`` and ``switch_kill`` only on structured topologies
#: (:attr:`ChaosSpec.topology` != ``"mesh"``).
FAULT_KINDS = ("drop", "burst", "corrupt", "slow", "dup", "reorder",
               "jitter", "partition", "crash", "rack_partition",
               "switch_kill")

#: Relative pick weights for link faults (partition/crash are rationed
#: separately: at most a couple per schedule, or recovery never settles).
_LINK_KINDS = ("drop", "burst", "corrupt", "slow", "dup", "reorder",
               "jitter")


@dataclass(frozen=True)
class ChaosFault:
    """One injected fault.  Which fields matter depends on ``kind``:

    ========= =========================================================
    kind      meaning of the populated fields
    ========= =========================================================
    drop      link ``src->dst`` drops arrival ``nth``
    burst     link drops ``length`` arrivals starting at ``nth``
    corrupt   link corrupts arrival ``nth`` (delivered, checksum fails)
    slow      link latency x ``factor`` over ``[from_us, until_us)``
    dup       link delivers arrival ``nth`` twice
    reorder   link holds arrival ``nth`` back ``delay_us`` past successors
    jitter    link adds seeded noise in ``[0, max_us)`` (seed ``rng_seed``)
    partition ``groups`` cannot talk over ``[from_us, until_us)``
              (``one_way``: only lower-indexed -> higher-indexed drops)
    crash     node ``src`` fail-stops at ``from_us``, restarts ``until_us``
    rack_partition
              rack ``nth % n_racks`` unreachable over
              ``[from_us, until_us)`` (structured topologies only)
    switch_kill
              a spine switch (selected deterministically from ``nth``
              among the safe candidates) fail-stops at ``from_us``
    ========= =========================================================
    """

    kind: str
    src: int = -1
    dst: int = -1
    nth: int = 0
    length: int = 0
    delay_us: float = 0.0
    factor: float = 1.0
    max_us: float = 0.0
    rng_seed: int = 0
    from_us: float = 0.0
    until_us: float = 0.0
    groups: tuple[tuple[int, ...], ...] = ()
    one_way: bool = False

    def describe(self) -> str:
        """One compact human-readable line for reports and snippets."""
        if self.kind == "drop":
            return f"drop#{self.nth} {self.src}->{self.dst}"
        if self.kind == "burst":
            return (f"burst#{self.nth}+{self.length} "
                    f"{self.src}->{self.dst}")
        if self.kind == "corrupt":
            return f"corrupt#{self.nth} {self.src}->{self.dst}"
        if self.kind == "slow":
            return (f"slow x{self.factor:g} {self.src}->{self.dst} "
                    f"[{self.from_us:g},{self.until_us:g})us")
        if self.kind == "dup":
            return f"dup#{self.nth} {self.src}->{self.dst}"
        if self.kind == "reorder":
            return (f"reorder#{self.nth}+{self.delay_us:g}us "
                    f"{self.src}->{self.dst}")
        if self.kind == "jitter":
            return (f"jitter<{self.max_us:g}us(seed={self.rng_seed}) "
                    f"{self.src}->{self.dst}")
        if self.kind == "partition":
            arrow = "-/>" if self.one_way else "<-/->"
            sides = arrow.join("".join(map(str, g)) for g in self.groups)
            return f"partition {sides} [{self.from_us:g},{self.until_us:g})us"
        if self.kind == "crash":
            return (f"crash node{self.src} at {self.from_us:g}us, "
                    f"restart {self.until_us:g}us")
        if self.kind == "rack_partition":
            return (f"rack-partition rack~{self.nth} "
                    f"[{self.from_us:g},{self.until_us:g})us")
        if self.kind == "switch_kill":
            return f"switch-kill spine~{self.nth} at {self.from_us:g}us"
        return f"{self.kind}?"

    def to_jsonable(self) -> dict[str, Any]:
        """The record as plain JSON types, defaults omitted."""
        out: dict[str, Any] = {"kind": self.kind}
        defaults = ChaosFault(kind=self.kind)
        for field in dataclasses.fields(self):
            if field.name == "kind":
                continue
            value = getattr(self, field.name)
            if value != getattr(defaults, field.name):
                out[field.name] = (
                    [list(g) for g in value]
                    if field.name == "groups" else value)
        return out


#: The engine every chaos run drives: all opt-in layers on, with the
#: heartbeat sized for the drill's two-node MX fabric.  The schedule
#: generator reads its heartbeat clocks, so fault windows scale with the
#: detector.  The retransmit timeout is the measured one: until a peer is
#: measured it is the engine's cold RTO, derived from its rails (twice
#: the wire time of a rendezvous chunk plus the path latency: about
#: 0.84ms on the drill's MX mesh), so no retry timer needs sizing here.
_ALL_ON: dict[str, Any] = {layer.knob: layer.on for layer in OPT_IN}
HARDENED = EngineParams(
    **_ALL_ON,
    rel_ack_delay_us=10.0,
    rel_retry_budget=64,
    hb_interval_us=50.0,
    hb_timeout_us=600.0,
)

#: Every schedule carries at least this many faults.
MIN_FAULTS = 2
#: The workload's smallest message, in bytes.
MSG_MIN_BYTES = 64
#: Pause between two sends of the initial burst.
SEND_GAP_US = 25.0


@dataclass(frozen=True)
class ChaosSpec:
    """Everything a chaos run is parameterized by, besides the seed.

    Two nodes exchange the workload through :data:`HARDENED`; the spec
    only sizes the workload and the fault density and picks the fabric.
    Fault windows are derived from the heartbeat timeout: without
    ``crashes``, partitions stay short enough (< 0.7 x timeout, less
    next to lost frames) that every suspicion must heal — a teardown in
    that regime is an engine bug, and the auditor treats it as one.
    """

    n_messages: int = 16
    msg_max_bytes: int = 4096
    max_faults: int = 8
    crashes: bool = False
    deadline_us: float = 60_000.0
    #: ``"mesh"`` (the default, byte-identical to the pre-topology engine)
    #: or ``"fat-tree"`` to route the workload through a switched fabric.
    topology: str = "mesh"
    fat_tree_k: int = 4
    #: Spine switches to fail-stop mid-run (fat-tree only).  Kills are
    #: capped so each core group keeps a survivor — the drill exercises
    #: rerouting, not a disconnected fabric.
    switch_kills: int = 0
    #: Append an RTT-drift drill to the schedule: a long slow-link ramp
    #: plus jitter windows on the workload path, sized so a constant RTO
    #: sized for the idle path would fire spuriously; the measured one
    #: must track the drift (the auditor's ``rto-thrash`` check).
    #: Composed from the existing ``slow`` and ``jitter`` fault kinds — no
    #: new fault kind.
    rtt_drift: bool = False

    def __post_init__(self) -> None:
        if self.n_messages < 1:
            raise ReproError("chaos needs at least one message")
        if self.max_faults < MIN_FAULTS:
            raise ReproError(
                f"max_faults must be >= {MIN_FAULTS}, got {self.max_faults}")
        if self.msg_max_bytes < MSG_MIN_BYTES:
            raise ReproError(
                f"msg_max_bytes must be >= {MSG_MIN_BYTES}, "
                f"got {self.msg_max_bytes}")
        if self.topology not in ("mesh", "fat-tree"):
            raise ReproError(
                f"unknown chaos topology {self.topology!r}; "
                "expected mesh | fat-tree")
        if self.fat_tree_k < 4 or self.fat_tree_k % 2:
            raise ReproError(
                f"fat_tree_k must be even and >= 4, got {self.fat_tree_k}")
        if self.switch_kills < 0:
            raise ReproError(f"negative switch_kills {self.switch_kills}")
        if self.switch_kills and self.topology == "mesh":
            raise ReproError(
                "switch_kills needs a switched topology "
                "(topology='fat-tree'); a mesh has no switches")

    @classmethod
    def quick(cls, **kw: Any) -> ChaosSpec:
        """The CI sweep profile: smaller workload, same fault variety."""
        return cls(n_messages=8, msg_max_bytes=2048, max_faults=6,
                   deadline_us=30_000.0, **kw)


#: The longest partition window a schedule draws, as a share of the
#: heartbeat timeout: clear of the teardown cliff with room to spare.
HEALABLE_SHARE = 0.7


def _apart(start: float, duration: float,
           earlier: tuple[float, float] | None, bound: float) -> float:
    """Start of a partition window that does not merge with ``earlier``.

    Each window alone stays below ``bound``, but two windows closer than
    a heartbeat round read to the failure detector as one silence.  When
    their union would pass that bound the later window moves to
    ``2 * hb_interval_us`` past the earlier one's end, so the detector
    hears the peer between them.  No rng draw: the stream, and every
    schedule with at most one partition, is unchanged.
    """
    if earlier is None:
        return start
    lo, hi = earlier
    gap = 2.0 * HARDENED.hb_interval_us
    end = start + duration
    near = start < hi + gap and end > lo - gap
    if near and max(hi, end) - min(lo, start) > bound:
        return hi + gap
    return start


def _lost_run(faults: list[ChaosFault]) -> int:
    """Longest run of consecutive arrivals one directed wire loses (drops,
    bursts and corruptions, merged)."""
    lost: dict[tuple[int, int], set[int]] = {}
    for f in faults:
        length = {"drop": 1, "corrupt": 1, "burst": f.length}.get(f.kind, 0)
        lost.setdefault((f.src, f.dst), set()).update(
            range(f.nth, f.nth + length))
    run = 0
    for nths in lost.values():
        for first in nths - {nth + 1 for nth in nths}:
            last = first
            while last + 1 in nths:
                last += 1
            run = max(run, last - first + 1)
    return run


def _healable(faults: list[ChaosFault]) -> list[ChaosFault]:
    """Shorten the partitions a run of lost frames could stretch into a
    death.

    The lost frames may bracket a partition window (the last ack before
    it, the heartbeat replies after it), and each one stretches the
    peer's silence by up to a heartbeat round.  So the windows, and the
    union of two near ones, stay below ``hb_timeout_us`` less the run and
    two rounds of slack.  A run of at most one frame leaves that bound
    above :data:`HEALABLE_SHARE` of the timeout, so such a schedule is
    returned unchanged; so is one without a partition.  No rng draw.
    """
    hb = HARDENED.hb_interval_us
    bound = HARDENED.hb_timeout_us - (_lost_run(faults) + 2) * hb
    if bound >= HEALABLE_SHARE * HARDENED.hb_timeout_us:
        return faults
    out: list[ChaosFault] = []
    earlier: tuple[float, float] | None = None
    for f in faults:
        if f.kind in ("partition", "rack_partition"):
            duration = min(f.until_us - f.from_us, max(bound, 0.0))
            start = _apart(f.from_us, duration, earlier, bound)
            earlier = (start, start + duration)
            f = dataclasses.replace(f, from_us=round(start, 3),
                                    until_us=round(start + duration, 3))
        out.append(f)
    return out


def generate_schedule(seed: int, spec: ChaosSpec) -> list[ChaosFault]:
    """Expand ``seed`` into a concrete fault list under ``spec``.

    Deterministic: one ``Random(seed)`` stream drives every choice, and
    nothing else is consulted.  The active traffic window is estimated
    from the workload shape so faults land where frames actually fly.
    """
    rng = Random(seed)
    # Rough window during which the wire is busy: the send ramp plus the
    # tail of retransmits/heals that trail the last injection.
    active_us = (spec.n_messages * SEND_GAP_US
                 + 4.0 * HARDENED.hb_timeout_us)
    # Arrivals on the busy link comfortably exceed the message count
    # (packing, acks, credits); aim fault indices at the real stream.
    est_arrivals = max(4, spec.n_messages * 2)

    faults: list[ChaosFault] = []
    n_faults = rng.randint(MIN_FAULTS, spec.max_faults)
    n_partitions = 0
    partitioned: tuple[float, float] | None = None
    n_crashes = 0
    for _ in range(n_faults):
        roll = rng.random()
        if roll < 0.18 and n_partitions < 2:
            n_partitions += 1
            start = rng.uniform(0.0, active_us * 0.5)
            # Healable by construction: suspicion needs timeout/2 of
            # silence, death a full timeout — 0.2..0.7 spans both sides
            # of suspicion while staying clear of the teardown cliff
            # (:func:`_healable` shortens it further next to lost frames).
            duration = (rng.uniform(0.2, HEALABLE_SHARE)
                        * HARDENED.hb_timeout_us)
            start = _apart(start, duration, partitioned,
                           HEALABLE_SHARE * HARDENED.hb_timeout_us)
            partitioned = (start, start + duration)
            if spec.topology == "mesh":
                # Nodes 0 and 1 on opposite sides: the partition always
                # crosses the workload's path.
                faults.append(ChaosFault(
                    kind="partition",
                    groups=((0,), (1,)),
                    from_us=round(start, 3),
                    until_us=round(start + duration, 3),
                    one_way=rng.random() < 0.3,
                ))
            else:
                # On a structured fabric the natural partition unit is a
                # rack (edge switch / dragonfly group), which always cuts
                # the 0->1 workload path: the two nodes sit in different
                # racks by construction.  Same healable window.
                faults.append(ChaosFault(
                    kind="rack_partition",
                    nth=rng.randrange(1 << 30),
                    from_us=round(start, 3),
                    until_us=round(start + duration, 3),
                ))
            continue
        if spec.crashes and roll < 0.28 and n_crashes < 1:
            n_crashes += 1
            crash_at = rng.uniform(5.0, active_us * 0.4)
            restart_gap = rng.uniform(1.5, 3.0) * HARDENED.hb_timeout_us
            faults.append(ChaosFault(
                kind="crash",
                src=rng.randrange(2),
                from_us=round(crash_at, 3),
                until_us=round(crash_at + restart_gap, 3),
            ))
            continue
        kind = rng.choice(_LINK_KINDS)
        # The 0->1 data path or its 1->0 ack path.
        src, dst = (0, 1) if rng.random() < 0.6 else (1, 0)
        if kind == "drop":
            faults.append(ChaosFault(
                kind="drop", src=src, dst=dst,
                nth=rng.randint(1, est_arrivals)))
        elif kind == "burst":
            faults.append(ChaosFault(
                kind="burst", src=src, dst=dst,
                nth=rng.randint(1, est_arrivals),
                length=rng.randint(2, 4)))
        elif kind == "corrupt":
            faults.append(ChaosFault(
                kind="corrupt", src=src, dst=dst,
                nth=rng.randint(1, est_arrivals)))
        elif kind == "slow":
            start = rng.uniform(0.0, active_us * 0.6)
            faults.append(ChaosFault(
                kind="slow", src=src, dst=dst,
                factor=round(rng.uniform(2.0, 8.0), 2),
                from_us=round(start, 3),
                until_us=round(start + rng.uniform(50.0, 400.0), 3)))
        elif kind == "dup":
            faults.append(ChaosFault(
                kind="dup", src=src, dst=dst,
                nth=rng.randint(1, est_arrivals)))
        elif kind == "reorder":
            faults.append(ChaosFault(
                kind="reorder", src=src, dst=dst,
                nth=rng.randint(1, est_arrivals),
                delay_us=round(rng.uniform(5.0, 150.0), 3)))
        else:  # jitter
            faults.append(ChaosFault(
                kind="jitter", src=src, dst=dst,
                max_us=round(rng.uniform(0.5, 15.0), 3),
                rng_seed=rng.randrange(1 << 30)))
    # Switch kills ride AFTER the seeded link-fault loop so a mesh schedule
    # from the same seed stays byte-identical.  ``nth`` is a selection seed
    # the runner resolves against the safe spine candidates; the kill lands
    # early enough that reroute happens mid-transfer, not post-traffic.
    for _ in range(spec.switch_kills):
        faults.append(ChaosFault(
            kind="switch_kill",
            nth=rng.randrange(1 << 30),
            from_us=round(rng.uniform(active_us * 0.1, active_us * 0.5), 3),
        ))
    # The RTT-drift drill: a long, severe slow-link ramp on the workload
    # wire plus jitter on both directions of the path, built from the
    # existing fault kinds.  Drawn AFTER every other fault so the shared
    # rng stream leaves non-drift schedules byte-identical, but PREPENDED
    # to the list so the per-link singleton ``slow``/``jitter`` slots in
    # the runner (first-come wins) always belong to the drill.  The slow
    # factor is sized against the MX profile (~2us hops) so a constant
    # 100us RTO would retransmit spuriously inside the window, while the
    # measured RTO rides it out.
    if spec.rtt_drift:
        start = round(rng.uniform(active_us * 0.05, active_us * 0.25), 3)
        drift = [
            ChaosFault(
                kind="slow", src=0, dst=1,
                factor=round(rng.uniform(48.0, 80.0), 2),
                from_us=start,
                until_us=round(start + rng.uniform(0.35, 0.6) * active_us,
                               3)),
            ChaosFault(
                kind="jitter", src=0, dst=1,
                max_us=round(rng.uniform(15.0, 45.0), 3),
                rng_seed=rng.randrange(1 << 30)),
            ChaosFault(
                kind="jitter", src=1, dst=0,
                max_us=round(rng.uniform(15.0, 45.0), 3),
                rng_seed=rng.randrange(1 << 30)),
        ]
        faults[:0] = drift
    return _healable(faults)
