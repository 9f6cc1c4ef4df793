"""The RTT estimator: Jacobson EWMA math, clamps, and the hedge quantile.

Pure-bookkeeping unit tests plus Hypothesis properties pinning the
behaviour the adaptive timing layer depends on: the derived RTO always
lands inside ``[floor, ceiling]``, converges to the Jacobson formula
under a stable sample stream, and the hedge delay stays a *tail*
estimate — offered only on warm rails and never inflated to the RTO
floor (it must fire before the RTO to be useful).
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rttstat import (
    ALPHA,
    BETA,
    HEDGE_DEVS,
    HEDGE_MIN_SAMPLES,
    RTO_DEVS,
    RTO_FLOOR_US as FLOOR,
    RTO_HEADROOM as HEADROOM,
    RTO_MIN_SAMPLES,
    RttEstimator,
    RttState,
)
from repro.netsim.stats import RTT_SNAPSHOT_KEYS

CEILING = 10_000.0


def make():
    return RttEstimator(ceiling_us=CEILING)


class TestRttState:
    def test_first_sample_seeds_srtt_and_half_variance(self):
        st_ = RttState(0.0, 0.0, 0)
        st_.update(100.0)
        assert st_.srtt_us == 100.0
        assert st_.rttvar_us == 50.0
        assert st_.samples == 1

    def test_second_sample_applies_ewma_constants(self):
        st_ = RttState(0.0, 0.0, 0)
        st_.update(100.0)
        st_.update(140.0)
        # rttvar' = rttvar + BETA*(|srtt - r| - rttvar), then
        # srtt'   = srtt + ALPHA*(r - srtt)  (RFC 6298 ordering).
        assert st_.rttvar_us == pytest.approx(50.0 + BETA * (40.0 - 50.0))
        assert st_.srtt_us == pytest.approx(100.0 + ALPHA * 40.0)
        assert st_.samples == 2

    def test_constant_stream_collapses_variance(self):
        st_ = RttState(0.0, 0.0, 0)
        for _ in range(200):
            st_.update(80.0)
        assert st_.srtt_us == pytest.approx(80.0)
        assert st_.rttvar_us == pytest.approx(0.0, abs=1e-6)


class TestRttEstimator:
    def test_cold_rto_is_ceiling(self):
        est = make()
        assert est.rto_us(peer=1) == CEILING
        assert est.global_rto_us() == CEILING
        assert est.srtt_us(1) is None
        assert est.rttvar_us(1) is None
        assert est.samples(1) == 0

    def test_rto_trusted_only_once_warm(self):
        # A couple of pre-congestion samples must not arm a hair-trigger
        # retry clock: the RTO stays at the ceiling until RTO_MIN_SAMPLES
        # measurements are in, even though srtt/rttvar are already live.
        est = make()
        for i in range(RTO_MIN_SAMPLES - 1):
            est.sample(1, 0, 100.0)
            assert not est.warm(1)
            assert est.rto_us(1) == CEILING
            assert est.samples(1) == i + 1
            assert est.srtt_us(1) == pytest.approx(100.0)
        est.sample(1, 0, 100.0)
        assert est.warm(1)
        assert est.rto_us(1) < CEILING

    def test_rto_formula_and_clamps(self):
        est = make()
        for _ in range(RTO_MIN_SAMPLES):
            est.sample(1, 0, 100.0)  # constant stream: srtt -> 100
        st_ = est._peers[1]
        expected = HEADROOM * (st_.srtt_us + RTO_DEVS * st_.rttvar_us)
        assert est.rto_us(1) == pytest.approx(expected)
        # A tiny stable RTT clamps up to the floor...
        for _ in range(200):
            est.sample(2, 0, 1.0)
        assert est.rto_us(2) == FLOOR
        # ...and a huge one clamps down to the ceiling.
        for _ in range(RTO_MIN_SAMPLES):
            est.sample(3, 0, 1e9)
        assert est.rto_us(3) == CEILING

    def test_global_rto_is_most_conservative_peer(self):
        est = make()
        for _ in range(50):
            est.sample(1, 0, 10.0)
            est.sample(2, 0, 500.0)
        assert est.global_rto_us() == est.rto_us(2)
        assert est.global_rto_us() > est.rto_us(1)

    def test_validation(self):
        with pytest.raises(ValueError):
            RttEstimator(ceiling_us=FLOOR / 2)
        with pytest.raises(ValueError):
            RttEstimator(ceiling_us=float("nan"))
        with pytest.raises(ValueError):
            make().sample(1, 0, -1.0)

    def test_hedge_needs_warm_rail(self):
        est = make()
        for _ in range(HEDGE_MIN_SAMPLES - 1):
            est.sample(1, 0, 100.0)
        assert est.hedge_delay_us(1, 0) is None  # one short of warm
        assert est.hedge_delay_us(1, 1) is None  # other rail still cold
        est.sample(1, 0, 100.0)
        assert est.hedge_delay_us(1, 0) is not None

    def test_hedge_is_per_rail_and_not_floored(self):
        # The whole point of the hedge: a warm, fast, *stable* rail hedges
        # at its measured tail (srtt + 3*rttvar), which may sit well below
        # the RTO floor — flooring it would make the hedge fire after the
        # retransmit clock it exists to pre-empt.
        est = make()
        for _ in range(50):
            est.sample(1, 0, 2.0)
        delay = est.hedge_delay_us(1, 0)
        assert delay is not None
        assert delay < FLOOR
        assert delay < est.rto_us(1)
        assert delay == pytest.approx(
            est._rails[(1, 0)].srtt_us
            + HEDGE_DEVS * est._rails[(1, 0)].rttvar_us)
        # But never above the ceiling.
        for _ in range(50):
            est.sample(2, 0, 1e8)
        assert est.hedge_delay_us(2, 0) == CEILING

    def test_snapshot_matches_report_registry(self):
        est = make()
        est.sample(1, 0, 100.0)
        est.sample(3, 1, 50.0)
        snap = est.snapshot()
        assert list(snap) == [1, 3]  # sorted, cold peers omitted
        for entry in snap.values():
            assert set(entry) == set(RTT_SNAPSHOT_KEYS)
        assert snap[1]["rto_us"] == est.rto_us(1)

    def test_forget_peer_drops_both_granularities(self):
        est = make()
        for _ in range(HEDGE_MIN_SAMPLES):
            est.sample(1, 0, 100.0)
            est.sample(2, 0, 100.0)
        est.forget_peer(1)
        assert est.samples(1) == 0
        assert est.rto_us(1) == CEILING
        assert est.hedge_delay_us(1, 0) is None
        # Peer 2 untouched.
        assert est.samples(2) == HEDGE_MIN_SAMPLES
        assert est.hedge_delay_us(2, 0) is not None


# -- properties ----------------------------------------------------------------

rtts = st.floats(min_value=0.0, max_value=1e6,
                 allow_nan=False, allow_infinity=False)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(rtts, min_size=1, max_size=60))
    def test_rto_always_inside_clamp_bounds(self, samples):
        est = make()
        for r in samples:
            est.sample(1, 0, r)
            assert FLOOR <= est.rto_us(1) <= CEILING
            assert FLOOR <= est.global_rto_us() <= CEILING

    @settings(max_examples=100, deadline=None)
    @given(base=st.floats(min_value=10.0, max_value=5_000.0),
           jitter=st.floats(min_value=0.0, max_value=50.0),
           seedling=st.randoms(use_true_random=False))
    def test_converged_rto_is_clamped_jacobson(self, base, jitter, seedling):
        # Under a stable jittered stream the estimator settles, and the
        # exposed RTO is exactly clamp(headroom * (srtt + 4*rttvar)).
        est = make()
        for _ in range(300):
            est.sample(1, 0, base + seedling.uniform(0.0, jitter))
        srtt, rttvar = est.srtt_us(1), est.rttvar_us(1)
        assert srtt is not None and rttvar is not None
        assert base <= srtt <= base + jitter + 1e-9
        expected = min(CEILING,
                       max(FLOOR, HEADROOM * (srtt + RTO_DEVS * rttvar)))
        assert est.rto_us(1) == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(rtts, min_size=1, max_size=40))
    def test_internal_state_stays_finite_and_consistent(self, samples):
        est = make()
        for i, r in enumerate(samples, start=1):
            est.sample(1, 0, r)
            assert est.samples(1) == i
            srtt, rttvar = est.srtt_us(1), est.rttvar_us(1)
            assert math.isfinite(srtt) and math.isfinite(rttvar)
            assert srtt >= 0.0 and rttvar >= 0.0
            lo, hi = min(samples[:i]), max(samples[:i])
            assert lo - 1e-6 <= srtt <= hi + 1e-6  # EWMA stays in hull
