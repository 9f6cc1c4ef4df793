"""Per-peer round-trip-time estimation for the adaptive timing layer.

The reliability, session, and flow-control layers all run on virtual-time
deadlines.  Through PR 9 those were *static* knobs (``rel_timeout_us``,
``hb_timeout_us``, the credit grant delay), which forces the operator to
hand-budget for path conditions the transport could simply measure — the
documented fat-tree failure mode: the retry clock starts at transmit
completion and cannot see switch-port queueing, so a static RTO sized for
a flat mesh spuriously quarantines healthy rails on a switched fabric.

:class:`RttEstimator` is the measurement core: Jacobson-style EWMA of
smoothed RTT and RTT variance (RFC 6298 constants, ``alpha=1/8``,
``beta=1/4``) with the retransmission-ambiguity rule due to Karn applied
by the *caller* (the reliability layer only feeds samples from frames
that were transmitted exactly once and never hedged, so an ack can always
be attributed to one transmission).  Samples are kept at two
granularities:

* per ``(peer, rail)`` — rails can have wildly different media (MX vs
  Quadrics) and fault exposure; the hedging decision ("has the original
  rail blown past its own tail?") needs the per-rail view;
* per peer (every eligible sample, any rail) — the retransmit timeout,
  session deadlines, and grant pacing act on the peer's channel,
  which spans rails; mixing rails inflates the variance term, which only
  makes the derived timeout more conservative, never trigger-happy.

The derived retransmit timeout is ``RTO_HEADROOM * (srtt + 4 * rttvar)``
clamped into ``[RTO_FLOOR_US, ceiling]``; until a peer has accumulated
:data:`RTO_MIN_SAMPLES` measurements it is the ceiling (RFC 6298's
"conservative until measured" stance, hardened: trusting the very first
sample is how a pre-congestion 20us RTT turns into a 116us RTO right as
a megabyte burst builds millisecond switch queues — the estimator then
starves, because every spurious retransmit is Karn-ambiguous, and the
healthy rail gets quarantined.  In virtual time a large early RTO costs
nothing but simulated microseconds).  The hedge
delay is a p99-ish tail estimate ``srtt + HEDGE_DEVS * rttvar``, not
floored (it must fire *before* the RTO to be useful), and is only
offered once a rail has :data:`HEDGE_MIN_SAMPLES` samples — hedging on a
cold estimate would just double-send everything.

Pure bookkeeping: no simulator access, no wall clock, no randomness —
the module is trivially deterministic and the Hypothesis suite in
``tests/test_rttstat.py`` pins the convergence envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RttEstimator", "RttState", "ALPHA", "BETA", "RTO_DEVS",
           "RTO_HEADROOM", "RTO_FLOOR_US", "HEDGE_DEVS", "HEDGE_MIN_SAMPLES",
           "RTO_MIN_SAMPLES"]

#: EWMA gains (RFC 6298): srtt tracks slowly, rttvar tracks faster.
ALPHA = 1.0 / 8.0
BETA = 1.0 / 4.0
#: Deviation multiplier in the RTO formula (``srtt + 4 * rttvar``).
RTO_DEVS = 4.0
#: Multiplier on the Jacobson RTO that absorbs fabric queueing the sample
#: stream has not seen yet (a freshly-congested switch port delays
#: *future* frames, not the ones that produced the current estimate).
RTO_HEADROOM = 2.0
#: Lower clamp of the derived RTO: no retry clock runs tighter than this.
RTO_FLOOR_US = 50.0
#: Deviation multiplier for the hedge (tail) delay — deliberately tighter
#: than the RTO: a hedge is cheap (duplicate suppression absorbs it), a
#: retransmit pollutes the loss accounting.
HEDGE_DEVS = 3.0
#: Samples a rail must accumulate before hedging is offered on it.
HEDGE_MIN_SAMPLES = 8
#: Samples a peer must accumulate before the measured RTO (and the other
#: adaptive deadlines derived from it) is trusted over the ceiling.
RTO_MIN_SAMPLES = 8


@dataclass(slots=True)
class RttState:
    """One EWMA track: smoothed RTT, variance, and the sample count."""

    srtt_us: float
    rttvar_us: float
    samples: int

    def update(self, rtt_us: float) -> None:
        if self.samples == 0:
            # RFC 6298 initialization: first measurement seeds both terms.
            self.srtt_us = rtt_us
            self.rttvar_us = rtt_us / 2.0
        else:
            self.rttvar_us += BETA * (abs(self.srtt_us - rtt_us)
                                      - self.rttvar_us)
            self.srtt_us += ALPHA * (rtt_us - self.srtt_us)
        self.samples += 1


class RttEstimator:
    """Measured path timing for one engine: per-peer and per-rail tracks.

    Every derived timeout lands in ``[RTO_FLOOR_US, ceiling_us]``; the
    ceiling is the one bound a caller sets (the conservative RTO while a
    peer is cold), the floor and :data:`RTO_HEADROOM` are constants of the
    algorithm.
    """

    __slots__ = ("ceiling_us", "_peers", "_rails")

    def __init__(self, ceiling_us: float) -> None:
        if not ceiling_us >= RTO_FLOOR_US:
            raise ValueError("RTO ceiling must be >= floor")
        self.ceiling_us = ceiling_us
        self._peers: dict[int, RttState] = {}
        self._rails: dict[tuple[int, int], RttState] = {}

    # -- sampling ----------------------------------------------------------
    def sample(self, peer: int, rail: int, rtt_us: float) -> None:
        """Feed one eligible ack measurement (caller enforces Karn's rule:
        never a retransmitted or hedged frame)."""
        if rtt_us < 0:
            raise ValueError(f"negative RTT sample {rtt_us}")
        peer_state = self._peers.get(peer)
        if peer_state is None:
            peer_state = self._peers[peer] = RttState(0.0, 0.0, 0)
        peer_state.update(rtt_us)
        key = (peer, rail)
        rail_state = self._rails.get(key)
        if rail_state is None:
            rail_state = self._rails[key] = RttState(0.0, 0.0, 0)
        rail_state.update(rtt_us)

    # -- derived timeouts --------------------------------------------------
    def _clamp(self, value_us: float) -> float:
        return min(self.ceiling_us, max(RTO_FLOOR_US, value_us))

    def warm(self, peer: int) -> bool:
        """True once the peer's estimate is trustworthy — the gate every
        adaptive consumer (RTO, session deadlines, grant pacing) shares."""
        st = self._peers.get(peer)
        return st is not None and st.samples >= RTO_MIN_SAMPLES

    def rto_us(self, peer: int) -> float:
        """Retransmit timeout for the peer's channel (any rail).

        ``RTO_HEADROOM * (srtt + 4 * rttvar)`` clamped into
        ``[RTO_FLOOR_US, ceiling_us]``; the ceiling until the peer is
        :meth:`warm` — a couple of pre-congestion samples must not arm a
        hair-trigger retry clock.
        """
        st = self._peers.get(peer)
        if st is None or st.samples < RTO_MIN_SAMPLES:
            return self.ceiling_us
        return self._clamp(
            RTO_HEADROOM * (st.srtt_us + RTO_DEVS * st.rttvar_us))

    def global_rto_us(self) -> float:
        """Most conservative per-peer RTO (peer-agnostic derivations such
        as the half-open probe window use it); the ceiling while cold."""
        rtos = [self.rto_us(peer) for peer, st in self._peers.items()
                if st.samples]
        return max(rtos) if rtos else self.ceiling_us

    def hedge_delay_us(self, peer: int, rail: int) -> float | None:
        """Tail threshold after which a hedge on another rail is worthwhile;
        ``None`` while the rail's estimate is too cold to trust.

        Deliberately *not* floored like the RTO: the floor exists to stop
        a trigger-happy retransmit clock, but a hedge is not a retransmit
        — it must beat the RTO to be useful, so a warm fast rail hedges at
        its measured tail (``srtt + 3 * rttvar``), capped at the ceiling.
        """
        st = self._rails.get((peer, rail))
        if st is None or st.samples < HEDGE_MIN_SAMPLES:
            return None
        return min(self.ceiling_us, st.srtt_us + HEDGE_DEVS * st.rttvar_us)

    # -- introspection -----------------------------------------------------
    def srtt_us(self, peer: int) -> float | None:
        st = self._peers.get(peer)
        return st.srtt_us if st is not None and st.samples else None

    def rttvar_us(self, peer: int) -> float | None:
        st = self._peers.get(peer)
        return st.rttvar_us if st is not None and st.samples else None

    def samples(self, peer: int) -> int:
        st = self._peers.get(peer)
        return st.samples if st is not None else 0

    def snapshot(self) -> dict[int, dict[str, float | int]]:
        """Per-peer estimate dump for ``repro report`` (stable key order)."""
        out: dict[int, dict[str, float | int]] = {}
        for peer in sorted(self._peers):
            st = self._peers[peer]
            if not st.samples:
                continue
            out[peer] = {
                "srtt_us": st.srtt_us,
                "rttvar_us": st.rttvar_us,
                "rto_us": self.rto_us(peer),
                "samples": st.samples,
            }
        return out

    def forget_peer(self, peer: int) -> None:
        """Drop a peer's history (teardown / epoch change): the next
        incarnation's path may be nothing like the old one's."""
        self._peers.pop(peer, None)
        for key in [k for k in self._rails if k[0] == peer]:
            del self._rails[key]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RttEstimator peers={len(self._peers)} "
                f"clamp=[{RTO_FLOOR_US:g},{self.ceiling_us:g}]us>")
