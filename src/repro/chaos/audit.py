"""Post-run invariant auditor for chaos worlds.

After a chaos schedule has run and settled, the engine must satisfy a set
of invariants *regardless of which faults were injected* — that is the
whole point of the hardening layers.  The auditor walks the quiesced
:class:`~repro.chaos.runner.ChaosWorld` and checks:

* **conservation** — every byte a link accepted is accounted as
  delivered, dropped or duplicated (no frame vanishes untracked);
* **payload-mismatch** — every completed receive landed the exact bytes
  the sender injected for that tag;
* **double-delivery** — in ack mode a tag never completes more receives
  than successful sends (exactly-once per send attempt; resends across
  crash epochs are the one sanctioned at-least-once window, PR 5);
* **undelivered** — without crashes or teardowns, every message must
  arrive: the schedule generator only emits healable faults;
* **unexpected-teardown** — a crash-free schedule keeps partitions below
  the death threshold, so any ``peers_dead`` is a false-positive
  teardown, the bug the suspect-parking path exists to prevent;
* **stuck-send** — no send request is still pending on a live engine
  after the settle window (everything terminal: completed or failed);
* **credit-leak / credit-ledger** — with no teardowns, all consumed
  credit was released back and both sides agree on the release totals;
* **live-timers / not-quiesced** — after settle the event queue is
  drained; a quiesced engine fleet with a busy queue means a timer
  leaked (and vice versa);
* **stats-ledger** — cross-counter consistency: recoveries never exceed
  suspicions, parked frames imply a suspicion, and every corrupt frame a
  link mangled was discarded by exactly one engine (less any mangled
  frames that died inside a downed switch or in a later hop's drop
  window — bounded by the fabric's and the links' own drop counters);
* **rto-thrash** — adaptive-RTO runs (``spec.adaptive``) never
  retransmit beyond their loss evidence plus a small ambiguity budget:
  the measured timeout must not fire at healthy-but-slow frames, which
  is exactly what a static RTO does under an RTT-drift schedule.

This is the **only** module allowed to read other layers' private state
(the flow-control ledgers): it inspects, never mutates.  The repo lint
enforces that boundary (NM305).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.chaos.runner import ChaosWorld

__all__ = ["Finding", "audit_run"]


@dataclass(frozen=True)
class Finding:
    """One violated invariant: a stable code plus a human-readable detail."""

    code: str
    detail: str

    def to_jsonable(self) -> dict[str, Any]:
        return {"code": self.code, "detail": self.detail}


def _check_conservation(world: ChaosWorld, out: list[Finding]) -> None:
    if world.cluster.conservation_ok(allow_faults=True):
        return
    for link in world.cluster.links:
        frames_in = link.frames_sent + link.frames_duplicated
        frames_out = link.frames_delivered + link.frames_dropped
        bytes_in = link.bytes_sent + link.bytes_duplicated
        bytes_out = link.bytes_delivered + link.bytes_dropped
        if frames_in != frames_out or bytes_in != bytes_out:
            out.append(Finding(
                "conservation",
                f"link node{link.src.node_id}->node{link.dst.node_id}: "
                f"{frames_in} frames in vs {frames_out} out "
                f"({bytes_in}B vs {bytes_out}B)"))
            return
    out.append(Finding("conservation", "cluster-level byte imbalance"))


def _check_messages(world: ChaosWorld, out: list[Finding]) -> None:
    deaths = world.total("peers_dead")
    for tag, st in sorted(world.tags.items()):
        comps = st.completions()
        for eng, req in comps:
            assert req.data is not None
            landed = req.data.tobytes()
            if landed != st.payload:
                out.append(Finding(
                    "payload-mismatch",
                    f"tag {tag}: node{eng.node_id} landed {len(landed)}B "
                    f"!= injected {len(st.payload)}B (or bytes differ)"))
        ok_sends = sum(1 for _eng, s in st.sends
                       if s.complete and not s.failed)
        if len(comps) > 1 and (not world.crashed
                               or len(comps) > max(ok_sends, 1)):
            out.append(Finding(
                "double-delivery",
                f"tag {tag}: {len(comps)} completed receives for "
                f"{ok_sends} successful send(s)"))
        if not comps and not world.crashed and deaths == 0:
            out.append(Finding(
                "undelivered",
                f"tag {tag}: never delivered after "
                f"{len(st.sends)} send attempt(s) with no teardown"))
        for eng, send in st.sends:
            if not eng.halted and not send.complete:
                out.append(Finding(
                    "stuck-send",
                    f"tag {tag}: send still pending on live "
                    f"node{eng.node_id} after settle"))


def _check_teardowns(world: ChaosWorld, out: list[Finding]) -> None:
    if world.crashed:
        return
    deaths = world.total("peers_dead")
    if deaths:
        out.append(Finding(
            "unexpected-teardown",
            f"{deaths} peer teardown(s) though every injected fault was "
            f"healable (partitions < death threshold)"))


def _check_credit(world: ChaosWorld, out: list[Finding]) -> None:
    if world.crashed or world.total("peers_dead"):
        return  # teardown legitimately abandons in-flight credit
    for node_id, incarnations in sorted(world.nodes.items()):
        fc = incarnations[-1].flowcontrol
        if fc is None:
            return
        for peer, ledger in sorted(fc._peers.items()):
            out_bytes = ledger.sent_bytes_total - ledger.peer_released_bytes
            out_wraps = ledger.sent_wraps_total - ledger.peer_released_wraps
            if out_bytes or out_wraps:
                out.append(Finding(
                    "credit-leak",
                    f"node{node_id}->node{peer}: {out_bytes}B / "
                    f"{out_wraps} wrap(s) of credit never released"))
            peer_fc = world.nodes[peer][-1].flowcontrol
            peer_view = peer_fc._peers.get(node_id) if peer_fc else None
            released = peer_view.released_bytes_total if peer_view else 0
            if ledger.peer_released_bytes > released:
                out.append(Finding(
                    "credit-ledger",
                    f"node{node_id} saw {ledger.peer_released_bytes}B "
                    f"released by node{peer}, whose ledger only shows "
                    f"{released}B"))


def _check_drain(world: ChaosWorld, out: list[Finding]) -> None:
    if world.crashed or world.drained:
        return  # an abandoned tag may legitimately keep a monitor armed
    live = [eng for eng in world.engines() if not eng.halted]
    busy = [f"node{eng.node_id}" for eng in live if not eng.quiesced()]
    if busy:
        out.append(Finding(
            "not-quiesced",
            "engines still hold deferred work after settle: "
            + ", ".join(busy)))
    else:
        out.append(Finding(
            "live-timers",
            "event queue not drained after settle though every live "
            "engine reports quiesced — a timer leaked"))


def _check_stats_ledger(world: ChaosWorld, out: list[Finding]) -> None:
    for eng in world.engines():
        stats = eng.stats
        if stats.peers_recovered > stats.peers_suspected:
            out.append(Finding(
                "stats-ledger",
                f"node{eng.node_id}: peers_recovered "
                f"({stats.peers_recovered}) exceeds peers_suspected "
                f"({stats.peers_suspected})"))
        if stats.frames_parked and not stats.peers_suspected:
            out.append(Finding(
                "stats-ledger",
                f"node{eng.node_id}: {stats.frames_parked} frame(s) "
                "parked without any suspicion"))
    if not world.crashed:
        mangled = sum(link.frames_corrupted for link in world.cluster.links)
        discarded = world.total("corrupt_discards")
        # A corrupt frame normally reaches an engine and is discarded by
        # its checksum — exactly once.  On a switched fabric a mangled
        # frame (or its retransmission's mangled copy) can instead die at
        # a downed switch, and on *any* topology a later hop's drop
        # window (a rack partition, say) can eat the flagged copy — the
        # links' own corrupt-drop counter plus the fabric's drop counter
        # bound the permissible shortfall; an *excess* of discards is
        # always a bug.
        switch_drops = sum(sw.frames_dropped
                           for sw in world.cluster.switches)
        wire_eaten = sum(link.frames_corrupt_dropped
                         for link in world.cluster.links)
        if (discarded > mangled
                or mangled - discarded > switch_drops + wire_eaten):
            out.append(Finding(
                "stats-ledger",
                f"links corrupted {mangled} frame(s) but engines "
                f"discarded {discarded} (switches dropped "
                f"{switch_drops}, wire ate {wire_eaten} flagged)"))


def _check_adaptive(world: ChaosWorld, out: list[Finding]) -> None:
    """Adaptive-RTO runs must not retransmit beyond their loss evidence.

    The point of measuring the RTT is to stop firing the retry clock at
    healthy-but-queued frames, so under ``spec.adaptive`` every
    retransmit has to be attributable to an actual wire event — a link
    or switch drop (partitions included) or a corrupt discard — plus a
    small ambiguity budget (a retransmission racing its own late ack is
    legitimate).  A static-RTO run under the same drift schedule blows
    through this bound by construction; an adaptive run that does too is
    thrashing, the regression this invariant pins.
    """
    if not world.spec.adaptive:
        return
    wire_losses = sum(link.frames_dropped for link in world.cluster.links)
    switch_drops = sum(sw.frames_dropped for sw in world.cluster.switches)
    corrupts = world.total("corrupt_discards")
    budget = max(8, world.spec.n_messages)
    retrans = world.total("retransmits")
    if retrans > wire_losses + switch_drops + corrupts + budget:
        out.append(Finding(
            "rto-thrash",
            f"adaptive run retransmitted {retrans} frame(s) against "
            f"{wire_losses} wire drop(s), {switch_drops} switch drop(s), "
            f"{corrupts} corrupt discard(s) and a budget of {budget} — "
            "the measured RTO is firing at healthy frames"))


def audit_run(world: ChaosWorld) -> list[Finding]:
    """Audit a quiesced chaos world; an empty list means every invariant
    held.  Pure inspection — the world is not mutated."""
    findings: list[Finding] = []
    _check_conservation(world, findings)
    _check_messages(world, findings)
    _check_teardowns(world, findings)
    _check_credit(world, findings)
    _check_drain(world, findings)
    _check_stats_ledger(world, findings)
    _check_adaptive(world, findings)
    return findings
