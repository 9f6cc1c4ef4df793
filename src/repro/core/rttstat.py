"""Per-peer round-trip-time estimation: the one retransmit clock.

With ``reliability="ack"`` the retransmit timeout is measured, never
configured.  A hand-set constant forces the operator to budget for path
conditions the transport can simply measure — the documented fat-tree
failure mode: switch ports forward cut-through, but several flows
converging on one egress port queue behind each other (incast port
contention), and a constant RTO sized for an idle path spuriously
quarantines healthy rails when they do.  Once warm, the same estimate
also paces flow-control grants.

:class:`RttEstimator` is the measurement core: Jacobson-style EWMA of
smoothed RTT and RTT variance (RFC 6298 constants, ``alpha=1/8``,
``beta=1/4``) with the retransmission-ambiguity rule due to Karn applied
by the *caller* (the reliability layer only feeds samples from frames
that were transmitted exactly once, so an ack can always be attributed
to one transmission).  There is one track per peer, fed by every
eligible sample on any rail: the retransmit timeout and grant pacing act
on the peer's channel, which spans rails; mixing rails (MX and Quadrics
are wildly different media) inflates the variance term, which only makes
the derived timeout more conservative, never trigger-happy.

The derived retransmit timeout is ``RTO_HEADROOM * (srtt + 4 * rttvar)``
clamped into ``[RTO_FLOOR_US, RTO_CEILING_US]``.  Until a peer has
accumulated :data:`RTO_MIN_SAMPLES` measurements it is the *cold* RTO:
twice the longest silence a healthy peer can cause on this engine's rails
(:attr:`~repro.core.engine.NmadEngine.silence_us`: the largest frame's
wire time on the slowest rail plus the longest route's latency), in the
same clamp.  That is RFC 6298 §2.1's "seed with a constant", with the
constant derived from the rails instead of hand-tuned: no ack of a frame
in flight can be later than that unless the path is congested or broken.
The first samples are still not trusted on their own: trusting one
would turn a pre-congestion 20us RTT into a 116us RTO right as a
megabyte burst builds port queues, and the estimator would then starve
(every spurious retransmit is Karn-ambiguous) while the healthy rail gets
quarantined.  Each retry doubles a channel's RTO, never past
:data:`RTO_CEILING_US` (RFC 6298 §5.5 caps the backoff the same way).

Pure bookkeeping: no simulator access, no wall clock, no randomness —
the module is trivially deterministic and the Hypothesis suite in
``tests/test_rttstat.py`` pins the convergence envelope.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RttEstimator", "RttState", "ALPHA", "BETA", "RTO_DEVS",
           "RTO_HEADROOM", "RTO_FLOOR_US", "RTO_CEILING_US",
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
#: Upper clamp of every derived timeout, the cold RTO and the backed-off
#: retransmit timeout included.
RTO_CEILING_US = 10_000.0
#: Samples a peer must accumulate before the measured RTO (and the grant
#: pacing derived from it) is trusted over the cold RTO.
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
    """Measured path timing for one engine: one track per peer.

    Every derived timeout lands in ``[RTO_FLOOR_US, RTO_CEILING_US]``.
    ``silence_us`` is the one input from outside: the longest silence a
    healthy peer can cause, which sets the cold RTO (twice it, clamped).
    """

    __slots__ = ("cold_us", "_peers")

    def __init__(self, silence_us: float) -> None:
        if not 0.0 <= silence_us < float("inf"):
            raise ValueError(f"silence bound must be finite and >= 0, "
                             f"got {silence_us}")
        self.cold_us = self._clamp(2.0 * silence_us)
        self._peers: dict[int, RttState] = {}

    # -- sampling ----------------------------------------------------------
    def sample(self, peer: int, rtt_us: float) -> None:
        """Feed one eligible ack measurement (caller enforces Karn's rule:
        never a retransmitted frame)."""
        if rtt_us < 0:
            raise ValueError(f"negative RTT sample {rtt_us}")
        st = self._peers.get(peer)
        if st is None:
            st = self._peers[peer] = RttState(0.0, 0.0, 0)
        st.update(rtt_us)

    # -- derived timeouts --------------------------------------------------
    @staticmethod
    def _clamp(value_us: float) -> float:
        return min(RTO_CEILING_US, max(RTO_FLOOR_US, value_us))

    def warm(self, peer: int) -> bool:
        """True once the peer's estimate is trustworthy — the gate both
        consumers (RTO, grant pacing) share."""
        st = self._peers.get(peer)
        return st is not None and st.samples >= RTO_MIN_SAMPLES

    def rto_us(self, peer: int) -> float:
        """Retransmit timeout for the peer's channel (any rail).

        ``RTO_HEADROOM * (srtt + 4 * rttvar)`` clamped into
        ``[RTO_FLOOR_US, RTO_CEILING_US]``; :attr:`cold_us` until the peer
        is :meth:`warm` — a couple of pre-congestion samples must not arm
        a hair-trigger retry clock.
        """
        st = self._peers.get(peer)
        if st is None or st.samples < RTO_MIN_SAMPLES:
            return self.cold_us
        return self._clamp(
            RTO_HEADROOM * (st.srtt_us + RTO_DEVS * st.rttvar_us))

    def global_rto_us(self) -> float:
        """Most conservative per-peer RTO (peer-agnostic derivations such
        as the half-open probe window use it); the cold RTO while no peer
        has a sample."""
        rtos = [self.rto_us(peer) for peer, st in self._peers.items()
                if st.samples]
        return max(rtos) if rtos else self.cold_us

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RttEstimator peers={len(self._peers)} "
                f"cold={self.cold_us:g}us "
                f"clamp=[{RTO_FLOOR_US:g},{RTO_CEILING_US:g}]us>")
