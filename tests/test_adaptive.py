"""The measured timing end to end: RTO, Karn's rule, per-request
deadlines, tail hedging, and the fat-tree and drift drills.

Covers the timing through the engine (not just the estimator — see
``tests/test_rttstat.py`` for that):

* ``reliability="ack"`` samples acked frames, warms per peer, and holds
  the cold RTO derived from the rails until warm;
* Karn's rule in the ack machinery — retransmitted frames never feed
  the estimator;
* ``deadline_us`` on ``isend``/``irecv`` fails the request with
  :class:`DeadlineExceededError`, retracting an unsent send just like
  ``cancel()``;
* ``rel_hedge="tail"`` re-sends tail-latent frames on the second-best
  rail instead of letting the retransmit clock fire;
* the fat-tree two-rail failover drill (a three-sender incast, so the
  fabric has real port contention) fails over with *no* hand-tuned
  timeout and keeps the healthy rail;
* under the chaos ``rtt-drift`` schedule the measured RTO retransmits
  only against real losses.
"""

import pytest

from repro.chaos import ChaosSpec, audit_run, generate_schedule, run_schedule
from repro.core import EngineParams, NmadEngine, VirtualData
from repro.core import reliability
from repro.core.rttstat import RTO_CEILING_US, RTO_FLOOR_US, RTO_MIN_SAMPLES
from repro.errors import DeadlineExceededError, MpiError, SimulationError
from repro.madmpi import Communicator, MadMpi, Vector
from repro.netsim import MX_MYRI10G, QUADRICS_QM500, Cluster, FaultPlan
from repro.sim import Simulator

ACK = dict(reliability="ack", rel_ack_delay_us=10.0)
#: Deadlines a request must refuse before it has any side effect.
BAD_DEADLINES = [-5.0, 0.0, float("nan"), float("inf")]


def make_pair(params, rails=(MX_MYRI10G,), strategy="aggregation",
              topology="mesh"):
    sim = Simulator()
    cluster = Cluster(sim, rails=rails, topology=topology)
    engines = [NmadEngine(cluster.node(i), strategy=strategy, params=params)
               for i in range(2)]
    return sim, cluster, engines


def link_between(cluster, src, dst, rail=0):
    for link in cluster.links:
        if (link.src.node_id == src and link.dst.node_id == dst
                and link.src.rail == rail):
            return link
    raise AssertionError(f"no link node{src}->node{dst} rail{rail}")


class TestAutoMode:
    def test_auto_samples_and_warms(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        n = 20
        reqs = [e1.irecv(src=0, tag=t, nbytes=64) for t in range(n)]

        def app():
            for t in range(n):
                e0.isend(1, bytes([t]) * 64, tag=t)
                yield sim.timeout(20.0)

        sim.run_process(app())
        sim.run()
        assert all(r.complete and not r.failed for r in reqs)
        assert e0.stats.rtt_samples == n
        assert e0.rtt is not None and e0.rtt.warm(1)
        snap = e0.rtt.snapshot()
        assert list(snap) == [1]
        # The measured RTO left the cold value and sits in the clamp band.
        assert RTO_FLOOR_US <= snap[1]["rto_us"] < e0.rtt.cold_us
        assert e0.quiesced() and e1.quiesced()

    def test_cold_rto_is_twice_the_silence_bound(self):
        # Cold, the RTO is derived from the rails: twice the wire time of
        # a rendezvous chunk with all its headers plus one link latency
        # (a mesh route is one wire) -- not a constant, and not the
        # ceiling.
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        hdr = e0.params.hdr
        chunk = (e0.params.rdv_chunk_bytes + hdr.global_header
                 + hdr.rdv_data_header + hdr.rel_header + hdr.checksum
                 + hdr.credit_header + hdr.session_header)
        silence = (chunk / MX_MYRI10G.bandwidth_mbps
                   + MX_MYRI10G.latency_us)
        assert e0.silence_us == pytest.approx(silence)
        assert e0.rtt.rto_us(1) == pytest.approx(2 * silence)
        assert e0.rtt.global_rto_us() == e0.rtt.rto_us(1)
        assert RTO_FLOOR_US < 2 * silence < RTO_CEILING_US

    def test_cold_rto_counts_every_hop_of_the_longest_route(self):
        # Host 0 of a fat-tree reaches the other pods over six wires.
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK),
                                           topology="fat-tree")
        _, _, (m0, _) = make_pair(EngineParams(**ACK))
        assert e0.silence_us == pytest.approx(
            m0.silence_us + 5 * MX_MYRI10G.latency_us)
        assert e0.rtt.cold_us == pytest.approx(2 * e0.silence_us)

    def test_auto_requires_ack_mode(self):
        # "auto" is the only retransmit timeout there is, and only the ack
        # machinery measures it: without reliability="ack" the engine
        # builds no estimator, and a number is refused.
        _, _, (paper, _) = make_pair(EngineParams())
        assert paper.rtt is None and paper.reliability is None
        _, _, (acked, _) = make_pair(EngineParams(reliability="ack"))
        assert acked.rtt is not None
        assert EngineParams(reliability="ack",
                            rel_timeout_us="auto").rel_timeout_us == "auto"
        for value in (100.0, "bogus"):
            with pytest.raises(ValueError):
                EngineParams(reliability="ack", rel_timeout_us=value)

    def test_hedge_requires_auto(self):
        # The hedge delay is a quantile of the measured RTT, which only
        # ack mode measures.
        with pytest.raises(ValueError):
            EngineParams(rel_hedge="tail")
        assert EngineParams(reliability="ack",
                            rel_hedge="tail").rel_hedge == "tail"


class TestKarnsRule:
    def test_retransmitted_frame_never_feeds_the_estimator(self):
        # First frame dropped: its ack (after retransmission) is ambiguous
        # and must not produce a sample; the next clean message must.
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        link_between(cluster, 0, 1).fault_plan = FaultPlan(drop_nth=(1,))
        r0 = e1.irecv(src=0, tag=0, nbytes=32)
        e0.isend(1, b"x" * 32, tag=0)
        sim.run()
        assert r0.complete and not r0.failed
        assert e0.stats.retransmits >= 1
        assert e0.stats.rtt_samples == 0  # Karn: ambiguous ack, no sample

        r1 = e1.irecv(src=0, tag=1, nbytes=32)
        e0.isend(1, b"y" * 32, tag=1)
        sim.run()
        assert r1.complete and not r1.failed
        assert e0.stats.rtt_samples == 1  # clean exchange samples again


class TestDeadlines:
    def test_recv_deadline_expires_without_sender(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        req = e1.irecv(src=0, tag=0, nbytes=64, deadline_us=100.0)

        def app():
            try:
                yield req.done
            except DeadlineExceededError as exc:
                return str(exc)

        msg = sim.run_process(app())
        assert "deadline" in msg
        assert req.failed
        assert e1.stats.deadlines_expired == 1
        assert sim.now == pytest.approx(100.0)
        assert e0.quiesced() and e1.quiesced()

    def test_send_deadline_retracts_an_unsent_frame(self):
        # Occupy the NIC so the victim stays in the window past its
        # deadline; the expiry must retract it exactly like cancel() — the
        # receiver never sees it and later traffic still flows.
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        r0 = e1.irecv(src=0, tag=0)
        r2 = e1.irecv(src=0, tag=2)

        def app():
            e0.isend(1, VirtualData(20_000), tag=0)  # occupies the NIC
            yield sim.timeout(0.5)
            victim = e0.isend(1, b"too late", tag=1, deadline_us=1.0)
            after = e0.isend(1, b"after", tag=2)
            try:
                yield victim.done
            except DeadlineExceededError:
                pass
            assert victim.failed
            yield sim.all_of([r0.done, r2.done])

        sim.run_process(app())
        sim.run()
        assert e0.stats.deadlines_expired == 1
        assert r0.complete and r2.complete
        assert r2.data.tobytes() == b"after"
        assert e0.quiesced() and e1.quiesced()

    def test_met_deadline_is_invisible(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        req = e1.irecv(src=0, tag=0, nbytes=64, deadline_us=50_000.0)
        sreq = e0.isend(1, b"z" * 64, tag=0, deadline_us=50_000.0)
        sim.run()
        assert req.complete and not req.failed
        assert sreq.complete and not sreq.failed
        assert e0.stats.deadlines_expired == 0
        assert e1.stats.deadlines_expired == 0
        assert sim.peek() == float("inf")  # expired timers left nothing

    def test_deadline_validation(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        with pytest.raises(MpiError):
            e1.irecv(src=0, tag=0, nbytes=8, deadline_us=0.0)
        with pytest.raises(MpiError):
            e0.isend(1, b"x", tag=0, deadline_us=-5.0)

    @pytest.mark.parametrize("deadline", BAD_DEADLINES)
    def test_rejected_send_deadline_sends_nothing(self, deadline):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        rreq = e1.irecv(src=0, tag=1)
        with pytest.raises(MpiError, match="deadline_us"):
            e0.isend(1, b"hello", tag=1, deadline_us=deadline)
        assert e0.window.empty and e0.quiesced()
        sim.run()
        assert not rreq.complete
        assert e0.stats.phys_packets == 0

    @pytest.mark.parametrize("deadline", BAD_DEADLINES)
    def test_rejected_recv_deadline_posts_nothing(self, deadline):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        posted = e1.matcher.n_posted
        with pytest.raises(MpiError, match="deadline_us"):
            e1.irecv(src=0, tag=2, deadline_us=deadline)
        assert e1.matcher.n_posted == posted

    @pytest.mark.parametrize("deadline", BAD_DEADLINES)
    def test_rejected_deadline_sends_no_datatype_block(self, deadline):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        world = Communicator([0, 1])
        m0, _ = MadMpi(e0, world), MadMpi(e1, world)
        dtype = Vector(3, 2, 4)
        with pytest.raises(MpiError, match="deadline_us"):
            m0.isend(VirtualData(dtype.extent), dest=1, datatype=dtype,
                     deadline_us=deadline)
        sim.run()
        assert e0.stats.phys_packets == 0


class TestTailHedging:
    def test_hedge_beats_the_retransmit_clock_on_a_drifting_rail(self):
        # Warm both rails with clean traffic, then slow rail 0 by 60x:
        # the tail of every striped message sits on the slow rail, and the
        # hedge re-sends it on the healthy one *before* the RTO can fire —
        # zero retransmits, duplicate suppression absorbing the copies
        # that lose the race.
        params = EngineParams(**ACK, rel_hedge="tail")
        sim, cluster, (e0, e1) = make_pair(
            params, rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail")
        n_warm, n_tail = 30, 20
        payloads = {t: bytes([t % 251]) * 256 for t in range(n_warm + n_tail)}
        reqs = {t: e1.irecv(src=0, tag=t, nbytes=256) for t in payloads}

        def app():
            for t in range(n_warm):
                e0.isend(1, payloads[t], tag=t)
                yield sim.timeout(20.0)
            link_between(cluster, 0, 1, rail=0).fault_plan = FaultPlan(
                slow_link=(60.0, sim.now, sim.now + 100_000.0))
            for t in range(n_warm, n_warm + n_tail):
                e0.isend(1, payloads[t], tag=t)
                yield sim.timeout(30.0)

        sim.run_process(app())
        sim.run()
        for t, req in reqs.items():
            assert req.complete and not req.failed
            assert req.data.tobytes() == payloads[t]
        assert e0.stats.hedges_sent > 0
        assert e0.stats.hedges_won > 0
        assert e0.stats.hedges_won <= e0.stats.hedges_sent
        assert e0.stats.retransmits == 0  # the hedge pre-empted the RTO
        assert e1.stats.duplicates_suppressed >= e0.stats.hedges_won
        assert cluster.conservation_ok(allow_faults=True)
        assert e0.quiesced() and e1.quiesced()

    def test_hedge_never_fires_on_a_single_rail(self):
        params = EngineParams(**ACK, rel_hedge="tail")
        sim, cluster, (e0, e1) = make_pair(params)
        reqs = [e1.irecv(src=0, tag=t, nbytes=64)
                for t in range(2 * RTO_MIN_SAMPLES)]

        def app():
            for t in range(2 * RTO_MIN_SAMPLES):
                e0.isend(1, bytes([t]) * 64, tag=t)
                yield sim.timeout(20.0)

        sim.run_process(app())
        sim.run()
        assert all(r.complete and not r.failed for r in reqs)
        assert e0.stats.hedges_sent == 0  # no second rail to hedge on


    @pytest.mark.parametrize("teardown", [None, "reset_peer", "halt"])
    def test_armed_hedge_sends_nothing_after_a_teardown(self, teardown):
        # A hedge is a one-shot entry nobody cancels: once the peer is torn
        # down or the engine halts, its frame is gone from the send buffer
        # and the entry must find that out on its own.
        params = EngineParams(**ACK, rel_hedge="tail")
        sim, cluster, (e0, e1) = make_pair(
            params, rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail")
        n_warm = 30
        for t in range(n_warm + 1):
            e1.irecv(src=0, tag=t, nbytes=256)

        def hedge_armed():
            ch = e0.reliability._channels[1]
            return any(p.sent_at is not None for p in ch.unacked.values())

        def app():
            for t in range(n_warm):
                e0.isend(1, bytes(256), tag=t)
                yield sim.timeout(20.0)
            link_between(cluster, 0, 1, rail=0).fault_plan = FaultPlan(
                slow_link=(60.0, sim.now, sim.now + 100_000.0))
            e0.isend(1, bytes(256), tag=n_warm)
            while not hedge_armed():
                yield sim.timeout(0.25)
            assert e0.stats.hedges_sent == 0  # armed, not yet fired
            if teardown == "reset_peer":
                e0.reliability.reset_peer(1, SimulationError("torn down"))
            elif teardown == "halt":
                e0.halt()

        sim.run_process(app())
        assert e0.stats.hedges_sent == (1 if teardown is None else 0)


class TestFatTreeFailover:
    """The fat-tree two-rail failover drill without a hand-tuned timeout.

    An incast: ranks 0, 2 and 3 each send 1 MiB to rank 1 over the same
    MX + QM500 ``multirail`` fat-tree, and rail 1's cores die at 100us.
    The three flows queue at rank 1's last-hop edge port, so a healthy
    frame can wait there far longer than one round trip.  Two straight
    losses quarantine a rail (the constant is three), so the drill fits
    in a few milliseconds.
    """

    SENDERS = (0, 2, 3)

    @pytest.fixture(autouse=True)
    def _two_strikes(self, monkeypatch):
        monkeypatch.setattr(reliability, "QUARANTINE_THRESHOLD", 2)

    @classmethod
    def _run(cls):
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=4,
                          rails=(MX_MYRI10G, QUADRICS_QM500),
                          topology="fat-tree")
        engines = [NmadEngine(cluster.node(i), strategy="multirail",
                              params=params) for i in range(4)]
        for s in cluster.switches:
            if s.tier == "core" and s.rail == 1:
                cluster.schedule_switch_fault(
                    s.switch_id, FaultPlan(switch_down_at=100.0))
        payload = bytes(range(256)) * 4096  # 1 MiB
        senders = [engines[rank] for rank in cls.SENDERS]
        reqs = [engines[1].irecv(src=rank, tag=0) for rank in cls.SENDERS]
        sreqs = [e.isend(1, payload, tag=0) for e in senders]
        return sim, cluster, senders, payload, reqs, sreqs

    def test_auto_mode_fails_over_with_no_hand_tuned_timeout(self):
        # A constant timeout would have to be hand-sized to this fabric's
        # incast port contention (200us fires at healthy queued frames and
        # quarantines the live rail on every sender).  The measured RTO
        # replaces it: the cold RTO (twice a QM500 chunk's wire time plus
        # six hops) rides out the queueing ramp, rail 1's black-holed
        # frames are the only retransmits, and every sender keeps the
        # healthy rail.
        sim, cluster, senders, payload, reqs, sreqs = self._run()

        def app():
            for req in reqs:
                yield req.done
            # The rails as the transfers finish; much later the half-open
            # probe readmits rail 1, with nothing left to carry.
            return [(e.transfer.rail_ok(0), e.transfer.rail_ok(1))
                    for e in senders]

        rails = sim.run_process(app())
        for req, sreq, e, (ok0, ok1) in zip(reqs, sreqs, senders, rails):
            assert req.data.tobytes() == payload
            assert sreq.complete and not sreq.failed
            assert e.stats.failovers >= 1
            assert e.stats.rails_quarantined == 1
            assert e.stats.retransmits == 2       # the two real losses
            assert ok0                            # healthy rail kept
            assert not ok1                        # dead rail quarantined
        assert cluster.conservation_ok(allow_faults=True)


class TestDriftComparison:
    """The drift drill: the measured RTO rides out a slowing path."""

    @pytest.mark.parametrize("seed", [7, 42])
    def test_adaptive_retransmits_strictly_less_under_drift(self, seed):
        # A constant 100us RTO retransmits at the healthy frames the drift
        # ramp slows down (seed 42: five retransmits against four wire
        # drops).  The measured one tracks the ramp: it retransmits
        # strictly less than the wire lost, and everything is delivered.
        spec = ChaosSpec.quick(rtt_drift=True)
        world = run_schedule(seed, spec, generate_schedule(seed, spec))
        assert audit_run(world) == []
        assert all(st.delivered() for st in world.tags.values())
        drops = sum(link.frames_dropped for link in world.cluster.links)
        assert world.total("rtt_samples") > 0
        assert world.total("retransmits") < drops
