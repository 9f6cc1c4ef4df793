"""The adaptive timing layer end to end: measured RTO, Karn's rule,
per-request deadlines, tail hedging, and the static-vs-adaptive drills.

Covers the PR's tentpole through the engine (not just the estimator —
see ``tests/test_rttstat.py`` for that):

* ``rel_timeout_us="auto"`` samples acked frames, warms per peer, and
  stays ceiling-conservative until warm;
* Karn's rule in the ack machinery — retransmitted frames never feed
  the estimator;
* ``deadline_us`` on ``isend``/``irecv`` fails the request with
  :class:`DeadlineExceededError`, retracting an unsent send just like
  ``cancel()``;
* ``rel_hedge="tail"`` re-sends tail-latent frames on the second-best
  rail instead of letting the retransmit clock fire;
* the fat-tree two-rail failover drill passes in auto mode with *no*
  hand-tuned timeout, while the static default spuriously quarantines
  the healthy rail under the very same schedule;
* under the chaos ``rtt-drift`` schedule the adaptive engine
  retransmits strictly less than its static twin (the acceptance
  comparison, asserted on a byte-identical fault list).
"""

import pytest

from repro.chaos import ChaosSpec, generate_schedule, run_chaos, run_schedule
from repro.core import EngineParams, NmadEngine, VirtualData
from repro.core.rttstat import RTO_FLOOR_US, RTO_MIN_SAMPLES
from repro.errors import DeadlineExceededError, MpiError, SimulationError
from repro.madmpi import Communicator, MadMpi, Vector
from repro.netsim import MX_MYRI10G, QUADRICS_QM500, Cluster, FaultPlan
from repro.sim import Simulator

AUTO = dict(reliability="ack", rel_timeout_us="auto", rel_ack_delay_us=10.0)
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
        sim, cluster, (e0, e1) = make_pair(EngineParams(**AUTO))
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
        # The measured RTO left the ceiling and sits in the clamp band.
        assert (RTO_FLOOR_US <= snap[1]["rto_us"]
                < e0.params.rel_rto_ceiling_us)
        assert e0.quiesced() and e1.quiesced()

    def test_cold_rto_is_the_ceiling_not_the_static_default(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**AUTO))
        assert e0.rtt is not None
        assert e0.reliability._rto_base_us(1) == e0.params.rel_rto_ceiling_us

    def test_auto_requires_ack_mode(self):
        with pytest.raises(ValueError):
            EngineParams(rel_timeout_us="auto")
        with pytest.raises(ValueError):
            EngineParams(reliability="ack", rel_timeout_us="bogus")
        with pytest.raises(ValueError):
            EngineParams(reliability="ack", rel_timeout_us="auto",
                         rel_rto_ceiling_us=RTO_FLOOR_US / 2)

    def test_hedge_requires_auto(self):
        with pytest.raises(ValueError):
            EngineParams(reliability="ack", rel_timeout_us=100.0,
                         rel_hedge="tail")

    def test_static_mode_has_no_estimator(self):
        sim, cluster, (e0, e1) = make_pair(
            EngineParams(reliability="ack", rel_timeout_us=100.0))
        assert e0.rtt is None
        assert e0.stats.rtt_samples == 0


class TestKarnsRule:
    def test_retransmitted_frame_never_feeds_the_estimator(self):
        # First frame dropped: its ack (after retransmission) is ambiguous
        # and must not produce a sample; the next clean message must.
        params = EngineParams(**AUTO, rel_rto_ceiling_us=500.0)
        sim, cluster, (e0, e1) = make_pair(params)
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
        sim, cluster, (e0, e1) = make_pair(EngineParams(**AUTO))
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
        sim, cluster, (e0, e1) = make_pair(EngineParams(**AUTO))
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
        params = EngineParams(**AUTO, rel_hedge="tail")
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
        params = EngineParams(**AUTO, rel_hedge="tail")
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
        params = EngineParams(**AUTO, rel_hedge="tail")
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
    """Satellite 1: the PR 9 failover drill without the hand-tuned 2ms."""

    @staticmethod
    def _run(rel_timeout_us):
        params = EngineParams(reliability="ack",
                              rel_timeout_us=rel_timeout_us,
                              rel_ack_delay_us=10.0,
                              rel_quarantine_threshold=2,
                              rel_probe_after_us=float("inf"))
        sim, cluster, (e0, e1) = make_pair(
            params, rails=(MX_MYRI10G, QUADRICS_QM500),
            strategy="multirail", topology="fat-tree")
        rail1_cores = [s for s in cluster.switches
                       if s.tier == "core" and s.rail == 1]
        cluster.fail_domain([s.switch_id for s in rail1_cores], at_us=100.0)
        payload = bytes(range(256)) * 4096  # 1 MiB

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, payload, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req, sreq

        return sim, cluster, e0, payload, app

    def test_auto_mode_fails_over_with_no_hand_tuned_timeout(self):
        # PR 9 needed rel_timeout_us=2_000.0 here — a constant hand-sized
        # to this fabric's port queues.  The measured RTO replaces it: the
        # cold ceiling rides out the queueing ramp, rail 1's black-holed
        # frames are the only retransmits, and the healthy rail survives.
        sim, cluster, e0, payload, app = self._run("auto")
        req, sreq = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert not sreq.failed
        assert e0.stats.failovers >= 1
        assert e0.stats.rails_quarantined == 1
        assert e0.transfer.rail_ok(0)          # healthy rail kept
        assert not e0.transfer.rail_ok(1)      # dead rail quarantined
        assert cluster.conservation_ok(allow_faults=True)

    def test_static_default_spuriously_quarantines_the_healthy_rail(self):
        # The companion drill: the *same* schedule under the static
        # default (200us) — the retry clock cannot see the multi-hop port
        # queues, fires at healthy in-flight frames, quarantines rail 0
        # (the live one!), and the transfer strands on the dead rail.
        sim, cluster, e0, payload, app = self._run(200.0)
        with pytest.raises(SimulationError):
            sim.run_process(app())
        assert not e0.transfer.rail_ok(0)      # healthy rail condemned
        assert e0.transfer.rail_ok(1)          # dead rail trusted
        assert e0.stats.retransmits > 2           # spurious, not the 2 real


class TestDriftComparison:
    """The acceptance drill: adaptive strictly beats static under drift."""

    def test_schedules_are_identical_across_the_adaptive_flag(self):
        static = ChaosSpec.quick(rtt_drift=True)
        adaptive = ChaosSpec.quick(rtt_drift=True, adaptive=True)
        for seed in range(10):
            assert (generate_schedule(seed, static)
                    == generate_schedule(seed, adaptive))

    @pytest.mark.parametrize("seed", [7, 42])
    def test_adaptive_retransmits_strictly_less_under_drift(self, seed):
        static = ChaosSpec.quick(rtt_drift=True)
        adaptive = ChaosSpec.quick(rtt_drift=True, adaptive=True)
        schedule = generate_schedule(seed, static)
        assert schedule == generate_schedule(seed, adaptive)

        w_static = run_schedule(seed, static, schedule)
        w_adaptive = run_schedule(seed, adaptive, schedule)
        r_static = run_chaos(seed, static)
        r_adaptive = run_chaos(seed, adaptive)
        assert r_static.ok, [f.detail for f in r_static.findings]
        assert r_adaptive.ok, [f.detail for f in r_adaptive.findings]

        # Both twins deliver everything; the static one pays for it with
        # spurious retransmits the measured RTO provably avoids.
        assert w_static.total("retransmits") > 0
        assert (w_adaptive.total("retransmits")
                < w_static.total("retransmits"))
