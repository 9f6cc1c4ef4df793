"""Failure detection, session epochs and crash/restart recovery.

Covers the opt-in ``sessions="epoch"`` subsystem end to end — the
hello/welcome handshake, the virtual-time heartbeat failure detector, the
atomic per-peer teardown (reliability windows, credit ledgers, rendezvous
transfers, matcher state and their timers), stale-epoch fencing across a
crash/restart, and the ULFM-style revoke/shrink surface — plus the
guarantee the default mode stays inert (every new counter zero, engines
never halted, no session frames on the wire).
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineParams, NmadEngine, VirtualData
from repro.errors import CommRevokedError, PeerDeadError, SimulationError
from repro.madmpi import Communicator, MadMpi
from repro.netsim import MX_MYRI10G, Cluster, FaultPlan
from repro.netsim.frames import Frame, FrameKind
from repro.sim import Simulator


def make_pair(params, n_nodes=2):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=(MX_MYRI10G,))
    engines = [NmadEngine(cluster.node(i), params=params)
               for i in range(n_nodes)]
    return sim, cluster, engines


#: Paper-faithful reliability + sessions, with a detection window small
#: enough that tests stay fast but large enough that live traffic (acks,
#: pongs) always refreshes liveness well inside hb_timeout_us.
EPOCH = dict(sessions="epoch", reliability="ack",
             rel_timeout_us=100.0, rel_ack_delay_us=10.0,
             hb_interval_us=50.0, hb_timeout_us=200.0)

SESSION_COUNTERS = ("peers_suspected", "peers_dead", "epochs_started",
                    "stale_frames_fenced", "heartbeats_sent")

#: Worst-case detection latency: a full silence timeout plus up to two
#: monitor ticks of scheduling quantization.
def detection_bound(params):
    return params.hb_timeout_us + 2 * params.hb_interval_us + 25.0


class TestDefaultsStayPaperFaithful:
    def test_off_mode_runs_with_all_counters_zero(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        for i in range(20):
            e0.isend(1, VirtualData(1024), tag=i)

        def rx():
            for i in range(20):
                yield from e1.recv(src=0, tag=i)

        sim.run_process(rx())
        sim.run()
        assert cluster.conservation_ok()
        for engine in (e0, e1):
            assert engine.sessions is None
            assert engine.halted is False
            for counter in SESSION_COUNTERS:
                assert getattr(engine.stats, counter) == 0

    def test_off_mode_node_crash_does_not_halt_the_engine(self):
        # Without the opt-in, no crash hook is installed: the engine keeps
        # the paper's everyone-lives model (and its exact event stream).
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        sim.schedule(10.0, cluster.node(1).crash)
        sim.run()
        assert e1.halted is False
        assert e1.stats.peers_dead == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EngineParams(sessions="lease")
        with pytest.raises(ValueError):
            EngineParams(sessions="epoch", hb_interval_us=0.0)
        with pytest.raises(ValueError):
            # Timeout below two monitor ticks: no probe could round-trip.
            EngineParams(sessions="epoch",
                         hb_interval_us=50.0, hb_timeout_us=90.0)
        EngineParams(sessions="epoch",
                     hb_interval_us=50.0, hb_timeout_us=100.0)

    def test_session_header_is_accounted_on_stamp(self):
        # The fencing guarantee is not free: every stamped frame carries
        # the session header on the wire (exactly once — idempotent).
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        frame = Frame(src_node=0, dst_node=1, kind=FrameKind.DATA,
                      wire_size=100)
        e0.sessions.stamp(frame)
        assert frame.session == (0, -1)  # receiver incarnation unknown
        assert frame.wire_size == 100 + params.hdr.session_header
        e0.sessions.stamp(frame)
        assert frame.wire_size == 100 + params.hdr.session_header


class TestHandshake:
    def test_first_contact_runs_hello_welcome(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        payload = bytes(range(256)) * 8

        def app():
            e0.isend(1, payload, tag=3)
            req = yield from e1.recv(src=0, tag=3)
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == payload
        # One epoch opened on each side; nothing fenced, nobody suspected.
        assert e0.stats.epochs_started == 1
        assert e1.stats.epochs_started == 1
        assert e0.stats.stale_frames_fenced == 0
        assert e0.stats.peers_suspected == 0
        assert e0.sessions.quiesced and e1.sessions.quiesced
        assert cluster.conservation_ok()

    def test_sends_deferred_behind_handshake_flush_in_order(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        n = 10
        reqs = [e1.irecv(src=0) for _ in range(n)]  # wildcard tag
        for i in range(n):
            e0.isend(1, VirtualData(1024), tag=i)
        # Everything above queued at t=0: the data sits in deferred_tx
        # until the welcome lands, then flushes in submission order.
        sim.run(until=2_000.0)
        assert [r.actual_tag for r in reqs] == list(range(n))
        assert e0.sessions.n_deferred_tx == 0
        assert e0.sessions.quiesced
        assert cluster.conservation_ok()


class TestFailureDetection:
    def test_sender_detects_crashed_receiver_within_timeout(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        crash_at = 2.0
        cluster.schedule_node_fault(1, FaultPlan(node_crash_at=crash_at))
        outcome = {}

        def driver():
            reqs = [e0.isend(1, VirtualData(2048), tag=i) for i in range(20)]
            while 1 not in e0.dead_peers and sim.now < 5_000.0:
                yield sim.timeout(5.0)
            outcome["detected_at"] = sim.now
            outcome["reqs"] = reqs

        sim.spawn(driver())
        sim.run(until=6_000.0)
        assert e0.dead_peers == {1}
        detected = outcome["detected_at"] - crash_at
        assert detected <= detection_bound(params)
        assert e0.stats.peers_suspected >= 1
        assert e0.stats.peers_dead == 1
        # Crash mid-eager: every in-flight request fails loudly, none hang.
        failed = [r for r in outcome["reqs"] if r.failed]
        assert failed, "no request observed the peer's death"
        for req in outcome["reqs"]:
            assert req.complete
            if req.failed:
                assert isinstance(req.error, PeerDeadError)
        # The teardown left no reliability state or timers behind.
        assert e0.reliability.n_unacked == 0
        assert not e0.reliability.has_outstanding(1)
        assert e0.quiesced()
        assert cluster.conservation_ok(allow_faults=True)

    def test_new_requests_toward_a_dead_peer_raise_immediately(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        cluster.schedule_node_fault(1, FaultPlan(node_crash_at=2.0))

        def driver():
            e0.isend(1, VirtualData(4096), tag=0)
            while 1 not in e0.dead_peers and sim.now < 5_000.0:
                yield sim.timeout(5.0)

        sim.spawn(driver())
        sim.run(until=6_000.0)
        with pytest.raises(PeerDeadError):
            e0.isend(1, VirtualData(64), tag=1)
        with pytest.raises(PeerDeadError):
            e0.irecv(src=1)

    def test_posted_receive_fails_when_the_sender_dies(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        crash_at = 20.0
        cluster.schedule_node_fault(0, FaultPlan(node_crash_at=crash_at))
        # A pure receiver: the sourced post alone arms the detector (it
        # runs the handshake so the peer's silence is distinguishable).
        req = e1.irecv(src=0, tag=0)
        sim.run(until=2_000.0)
        assert req.failed
        assert isinstance(req.error, PeerDeadError)
        assert 0 in e1.dead_peers
        assert e1.stats.peers_dead == 1

    def test_crash_mid_rendezvous_aborts_the_transfer(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        crash_at = 60.0
        cluster.schedule_node_fault(1, FaultPlan(node_crash_at=crash_at))
        # 256 KB >> the 32 KB threshold: rendezvous, ~200us on the wire,
        # so the crash lands mid-transfer with the grant outstanding.
        rreq = e1.irecv(src=0, tag=0, nbytes=256 * 1024)
        sreq = e0.isend(1, VirtualData(256 * 1024), tag=0)
        sim.run(until=3_000.0)
        assert sreq.failed
        assert isinstance(sreq.error, PeerDeadError)
        assert not e0.rendezvous.involves_peer(1)
        assert e0.quiesced()
        assert cluster.conservation_ok(allow_faults=True)
        assert not rreq.complete or rreq.failed  # the dead side just stops

    def test_crashed_engine_goes_silent(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        e1.irecv(src=0, tag=0)  # gives e1 a monitored interest in node 0
        sim.schedule(100.0, cluster.node(1).crash)
        sim.run(until=120.0)
        assert e1.halted is True
        assert e1.sessions.n_monitors_armed == 0
        hb, acks = e1.stats.heartbeats_sent, e1.stats.acks_sent
        sim.run(until=3_000.0)
        # Fail-stop: a dead process sends nothing into its successor's
        # world — no heartbeat, ack or retransmit timer survives halt().
        assert e1.stats.heartbeats_sent == hb
        assert e1.stats.acks_sent == acks

    def test_post_on_a_halted_engine_starts_no_ticking_monitor(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        e1.irecv(src=0, tag=0)
        sim.schedule(100.0, cluster.node(1).crash)
        sim.run(until=120.0)
        hb, frames = e1.stats.heartbeats_sent, e1.stats.phys_packets
        e1.irecv(src=0, tag=1)  # the application has not noticed yet
        sim.run(until=120.0 + 2 * params.hb_interval_us)
        # The post may wake the monitor once; it must not keep ticking.
        ticks = sim.events_processed
        sim.run(until=3_000.0)
        assert sim.events_processed == ticks
        assert e1.stats.heartbeats_sent == hb
        assert e1.stats.phys_packets == frames


class TestSilenceClock:
    """A detector can only accuse a peer it has *listened to* for
    ``hb_timeout_us``: the silence clock restarts when a dormant monitor
    wakes, so a pause between two conversations is not evidence of death.
    All at the default heartbeat knobs (500/50)."""

    @staticmethod
    def assert_nobody_accused(engines):
        for engine in engines:
            assert engine.stats.peers_dead == 0
            assert engine.stats.peers_suspected == 0
            assert engine.dead_peers == set()

    def test_receiver_idle_past_the_timeout_then_awaits_a_late_sender(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(sessions="epoch"))
        out = {}

        def app():
            e0.isend(1, VirtualData(1024), tag=0)
            yield from e1.recv(src=0, tag=0)
            yield sim.timeout(10_000.0)  # both sides idle: monitors dormant
            out["rx"] = e1.irecv(src=0, tag=1)
            yield sim.timeout(200.0)     # four monitor ticks with no frame
            out["tx"] = e0.isend(1, VirtualData(1024), tag=1)

        sim.spawn(app())
        sim.run()
        assert out["rx"].complete and not out["rx"].failed
        assert out["tx"].complete and not out["tx"].failed
        self.assert_nobody_accused((e0, e1))
        assert e0.quiesced() and e1.quiesced()

    def test_quiet_rank_returns_while_its_peer_serves_somebody_else(self):
        params = EngineParams(sessions="epoch", reliability="ack",
                              flow_control="credit")
        sim, cluster, (e0, e1, e2) = make_pair(params, n_nodes=3)
        out = {}

        def pingpong():  # keeps node 0 busy with node 2 throughout
            for i in range(40):
                e0.isend(2, VirtualData(512), tag=i)
                yield from e2.recv(src=0, tag=i)
                e2.isend(0, VirtualData(512), tag=i)
                yield from e0.recv(src=2, tag=i)
                yield sim.timeout(20.0)

        def quiet():
            e1.isend(0, VirtualData(512), tag=100)
            yield from e0.recv(src=1, tag=100)
            yield sim.timeout(1_000.0)
            # 30 KB eager: wire time plus the ack delay outlasts the first
            # monitor tick, which used to read 1 ms of "silence".
            out["tx"] = e1.isend(0, VirtualData(30_000), tag=101)
            out["rx"] = e1.irecv(src=0, tag=102)
            yield from e0.recv(src=1, tag=101)
            yield sim.timeout(100.0)
            e0.isend(1, VirtualData(512), tag=102)

        procs = [sim.spawn(pingpong()), sim.spawn(quiet())]
        sim.run()
        assert all(p.triggered and p.ok for p in procs)
        assert out["tx"].complete and not out["tx"].failed
        assert out["rx"].complete and not out["rx"].failed
        self.assert_nobody_accused((e0, e1, e2))

    def test_phased_all_to_all_re_meets_after_more_than_the_timeout(self):
        # Rank r talks to r+p in phase p, so a pair re-meets only after a
        # full round (7 x 250us > hb_timeout_us); receives are posted at
        # the phase start and the seeded sender jitter regularly exceeds
        # one monitor tick.
        n, rounds, phase_us = 8, 2, 250.0
        params = EngineParams(sessions="epoch", reliability="ack",
                              flow_control="credit")
        sim, cluster, engines = make_pair(params, n_nodes=n)
        rng = random.Random(19)
        jitter = {(rank, step): rng.uniform(0.0, 150.0)
                  for rank in range(n) for step in range(rounds * (n - 1))}
        recvs = []

        def rank_proc(rank):
            eng = engines[rank]
            for step in range(rounds * (n - 1)):
                shift = step % (n - 1) + 1
                recvs.extend(eng.irecv(src=(rank - shift) % n, tag=step)
                             for _ in range(3))
                yield sim.timeout(jitter[rank, step])
                for _ in range(3):
                    eng.isend((rank + shift) % n, VirtualData(2048), tag=step)
                yield sim.timeout(phase_us - jitter[rank, step])

        procs = [sim.spawn(rank_proc(r)) for r in range(n)]
        sim.run()
        assert sim.now >= 1_500.0
        assert all(p.triggered and p.ok for p in procs)
        assert len(recvs) == n * rounds * (n - 1) * 3
        assert all(r.complete and not r.failed for r in recvs)
        self.assert_nobody_accused(engines)
        assert all(e.quiesced() for e in engines)
        assert cluster.conservation_ok()


class TestTeardownTimerHygiene:
    def test_nack_resend_timer_is_cancelled_on_peer_death(self):
        # Regression for the ghost-resend bug: a NACK-backoff timer armed
        # before the peer died must not re-submit the old-epoch segment
        # after the teardown.  Unless FlowControlLayer.reset_peer cancels
        # the ledger's resend timers this fails: nack_resends grows after
        # the death and the stale wrap re-enters the window.
        params = EngineParams(sessions="epoch", reliability="ack",
                              rel_timeout_us=100.0, rel_ack_delay_us=5.0,
                              hb_interval_us=25.0, hb_timeout_us=50.0,
                              flow_control="credit",
                              max_unexpected_bytes=3072,
                              nack_delay_us=3_000.0)
        sim, cluster, (e0, e1) = make_pair(params)
        outcome = {}

        def driver():
            e0.irecv(src=1, tag=99)  # sustained interest: death is declared
            for i in range(4):       # 4 KB against a 3 KB budget: 1 NACK
                e0.isend(1, VirtualData(1024), tag=i)
            while not e0.flowcontrol.pending_resends and sim.now < 1_000.0:
                yield sim.timeout(2.0)
            outcome["nacked_at"] = sim.now
            cluster.node(1).crash()
            while 1 not in e0.dead_peers and sim.now < 1_000.0:
                yield sim.timeout(5.0)
            outcome["resends_at_death"] = e0.stats.nack_resends

        sim.spawn(driver())
        sim.run(until=10_000.0)  # far past the 3ms resend backoff
        assert "nacked_at" in outcome, "overflow never produced a NACK"
        assert 1 in e0.dead_peers
        assert e0.stats.nack_resends == outcome["resends_at_death"] == 0
        assert e0.flowcontrol.pending_resends == 0
        assert e0.quiesced()
        assert cluster.conservation_ok(allow_faults=True)

    def test_credit_grant_timer_is_cancelled_on_peer_death(self):
        # The mirror image on the receiver side: a delayed credit grant
        # scheduled toward a peer that then dies must never fire.  Unless
        # reset_peer cancels the ledger's grant timer, credits_granted
        # grows at t = grant_delay and the frame goes to a corpse.
        params = EngineParams(sessions="epoch", reliability="ack",
                              rel_timeout_us=100.0, rel_ack_delay_us=5.0,
                              hb_interval_us=25.0, hb_timeout_us=50.0,
                              flow_control="credit",
                              credit_grant_delay_us=2_000.0)
        sim, cluster, (e0, e1) = make_pair(params)
        outcome = {}

        def driver():
            got = e0.irecv(src=1, tag=0, nbytes=2048)
            pending = e0.irecv(src=1, tag=1)  # keeps the monitor armed
            e1.isend(0, VirtualData(2048), tag=0)
            while not got.complete and sim.now < 1_000.0:
                yield sim.timeout(5.0)
            # The match released credit: a grant is now waiting out its
            # 2ms delay.  Kill the peer long before it fires.
            assert "[grant pending]" in e0.flowcontrol.describe_peer(1)
            cluster.node(1).crash()
            while 1 not in e0.dead_peers and sim.now < 1_000.0:
                yield sim.timeout(5.0)
            outcome["granted_at_death"] = e0.stats.credits_granted
            outcome["pending_req"] = pending

        sim.spawn(driver())
        sim.run(until=8_000.0)
        assert 1 in e0.dead_peers
        assert e0.stats.credits_granted == outcome["granted_at_death"]
        assert "[grant pending]" not in e0.flowcontrol.describe_peer(1)
        assert e0.flowcontrol.quiesced
        assert outcome["pending_req"].failed
        assert isinstance(outcome["pending_req"].error, PeerDeadError)
        assert e0.quiesced()

    def test_credit_blocked_sender_fails_over_cleanly_on_death(self):
        # Crash with credit outstanding: the blocked backlog fails, the
        # ledger zeroes, the window gate lifts — nothing leaks.
        params = EngineParams(sessions="epoch", reliability="ack",
                              rel_timeout_us=100.0, rel_ack_delay_us=10.0,
                              hb_interval_us=50.0, hb_timeout_us=200.0,
                              flow_control="credit",
                              credit_bytes=64 * 1024, credit_wraps=256)
        sim, cluster, (e0, e1) = make_pair(params)
        cluster.schedule_node_fault(1, FaultPlan(node_crash_at=30.0))
        # 160 KB against a 64 KB budget; the receiver never posts, never
        # releases: the sender wedges on credit, then the peer dies.
        reqs = [e0.isend(1, VirtualData(4096), tag=i) for i in range(40)]
        sim.run(until=3_000.0)
        assert 1 in e0.dead_peers
        assert e0.stats.credit_stalls >= 1
        failed = [r for r in reqs if r.failed]
        assert failed, "the credit-blocked backlog never failed"
        for req in reqs:
            assert req.complete
            if req.failed:
                assert isinstance(req.error, PeerDeadError)
        assert e0.window.backlog(1) == 0
        assert e0.quiesced()
        assert cluster.conservation_ok(allow_faults=True)


class TestQuiesce:
    def test_quiesce_drains_a_healthy_engine(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)

        def app():
            for i in range(5):
                e0.isend(1, VirtualData(2048), tag=i)
            for i in range(5):
                yield from e1.recv(src=0, tag=i)
            yield from e0.quiesce(poll_us=5.0)
            return sim.now

        sim.run_process(app())
        assert e0.quiesced() and e1.quiesced()

    def test_quiesce_times_out_while_a_handshake_hangs(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        cluster.schedule_node_fault(1, FaultPlan(node_crash_at=0.5))

        def app():
            e0.isend(1, VirtualData(4096), tag=0)
            with pytest.raises(SimulationError):
                yield from e0.quiesce(poll_us=10.0, timeout_us=100.0)

        sim.spawn(app())
        sim.run(until=3_000.0)
        # After the detector fires, the deferred frame fails and the
        # engine does reach quiescence.
        assert 1 in e0.dead_peers
        assert e0.quiesced()


class TestCrashRestartRecovery:
    def test_restart_fences_stale_frames_and_redelivers_byte_exact(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        node1 = cluster.node(1)
        payload = bytes(range(256)) * 64  # 16 KB, eager
        outcome = {}
        # Crash after the handshake (~4.6us) but before the first data
        # frame lands (~20us); restart *before* the sender's detector
        # fires, so its retransmits (stamped with the old view of the
        # receiver) land on the new incarnation and must be fenced.
        cluster.schedule_node_fault(
            1, FaultPlan(node_crash_at=10.0, node_restart_at=50.0))

        def revive():
            e1b = NmadEngine(node1, params=params)
            outcome["e1b"] = e1b

        def post_recv():
            # Deliberately later than the sender's first retransmit
            # (~rto after tx): the fresh engine sees stale frames first.
            e1b = outcome["e1b"]
            outcome["rx"] = e1b.irecv(src=0, tag=7, nbytes=len(payload))

        sim.schedule(52.0, revive)
        sim.schedule(300.0, post_recv)

        def sender():
            req = e0.isend(1, payload, tag=7)
            while not req.complete and sim.now < 2_000.0:
                yield sim.timeout(10.0)
            outcome["first_error"] = req.error
            req2 = None
            while req2 is None and sim.now < 3_000.0:
                if 1 not in e0.dead_peers:
                    req2 = e0.isend(1, payload, tag=7)
                else:
                    yield sim.timeout(20.0)
            outcome["req2"] = req2
            while req2 is not None and not req2.complete \
                    and sim.now < 4_000.0:
                yield sim.timeout(10.0)

        sim.spawn(sender())
        sim.run(until=4_500.0)

        e1b = outcome["e1b"]
        assert e1b.sessions.incarnation == 1
        # The first life's frames were fenced, not delivered.
        assert e1b.stats.stale_frames_fenced >= 1
        # The sender saw the failure loudly...
        assert isinstance(outcome["first_error"], PeerDeadError)
        assert e0.stats.peers_dead == 1
        # ...was revived by the new incarnation's hello...
        assert e0.stats.epochs_started >= 2
        assert 1 not in e0.dead_peers
        # ...and the re-send delivered byte-exactly to the new epoch.
        rx = outcome["rx"]
        assert rx.complete and not rx.failed
        assert rx.data.tobytes() == payload
        req2 = outcome["req2"]
        assert req2 is not None and req2.complete and not req2.failed
        # No epoch leaked state into the next: both engines fully drain.
        assert e0.reliability.n_unacked == 0
        assert e0.quiesced() and e1b.quiesced()
        assert cluster.conservation_ok(allow_faults=True)

    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(crash_at=st.integers(1, 300), restart_gap=st.integers(60, 400),
           n_msgs=st.integers(1, 5))
    def test_no_double_delivery_under_random_crash_schedules(
            self, crash_at, restart_gap, n_msgs):
        """Across a random crash/restart of the receiver, no receiver
        incarnation ever completes a tag it was not re-sent, and every
        delivery is byte-exact — old-epoch frames never ghost into the
        new epoch."""
        params = EngineParams(**EPOCH)
        sim, cluster, engines = make_pair(params)
        e0, _e1 = engines
        node1 = cluster.node(1)
        restart_at = float(crash_at + restart_gap)
        end = restart_at + 2_500.0
        cluster.schedule_node_fault(1, FaultPlan(
            node_crash_at=float(crash_at), node_restart_at=restart_at))
        payloads = {t: bytes([t + 1]) * (512 + 97 * t) for t in range(n_msgs)}

        rx0 = [engines[1].irecv(src=0, tag=t, nbytes=len(payloads[t]))
               for t in range(n_msgs)]
        outcome = {"resent": set(), "rx1": []}

        def revive():
            e1b = NmadEngine(node1, params=params)
            outcome["e1b"] = e1b
            outcome["rx1"] = [
                e1b.irecv(src=0, tag=t, nbytes=len(payloads[t]))
                for t in range(n_msgs)
            ]

        sim.schedule(restart_at + 1.0, revive)

        def sender():
            reqs = outcome["reqs"] = {
                t: e0.isend(1, payloads[t], tag=t) for t in range(n_msgs)}
            while sim.now < end - 400.0:
                for t in list(reqs):
                    if reqs[t].failed and t not in outcome["resent"]:
                        try:
                            reqs[t] = e0.isend(1, payloads[t], tag=t)
                            outcome["resent"].add(t)
                        except PeerDeadError:
                            pass  # not revived yet; retry next round
                yield sim.timeout(25.0)

        sim.spawn(sender())
        sim.run(until=end)

        for recvs in (rx0, outcome["rx1"]):
            for t, req in enumerate(recvs):
                if req.complete and not req.failed:
                    assert req.data.tobytes() == payloads[t]
        delivered_old = {t for t, req in enumerate(rx0)
                         if req.complete and not req.failed}
        delivered_new = {t for t, req in enumerate(outcome["rx1"])
                         if req.complete and not req.failed}
        # The fence property, part 1: a tag delivered in *both*
        # incarnations must have been explicitly sent twice — an old-epoch
        # duplicate never ghosts into the new epoch on its own.
        assert delivered_old & delivered_new <= outcome["resent"]
        # Part 2: anything the new incarnation completed was either a
        # deliberate re-send or a first send the sender still considers
        # cleanly delivered (e.g. flushed from behind the handshake) —
        # never a frame whose request failed without a re-send.
        reqs = outcome["reqs"]
        for t in delivered_new:
            assert t in outcome["resent"] or (
                reqs[t].complete and not reqs[t].failed)
        assert cluster.conservation_ok(allow_faults=True)


class TestUlfmSurface:
    def make_trio(self):
        params = EngineParams(**EPOCH)
        sim, cluster, engines = make_pair(params, n_nodes=3)
        world = Communicator([0, 1, 2])
        mpis = [MadMpi(engines[i], world) for i in range(3)]
        return sim, cluster, engines, world, mpis

    def test_peer_death_surfaces_then_revoke_and_shrink(self):
        sim, cluster, engines, world, (m0, m1, m2) = self.make_trio()
        cluster.schedule_node_fault(2, FaultPlan(node_crash_at=2.0))
        outcome = {}

        def app():
            req = m0.isend(b"x" * 4096, dest=2, tag=1)
            while not req.complete and sim.now < 3_000.0:
                yield sim.timeout(10.0)
            # PeerDeadError flows through the MPI request surface.
            assert req.failed
            assert isinstance(req.error, PeerDeadError)
            # ULFM step 1: revoke fences the whole communicator locally.
            world.revoke()
            with pytest.raises(CommRevokedError):
                m0.isend(b"y", dest=1)
            with pytest.raises(CommRevokedError):
                m1.irecv(source=0)
            # ULFM step 2: shrink to the survivors and carry on.
            shrunk = world.shrink(engines[0].dead_peers)
            assert tuple(shrunk.ranks_to_nodes) == (0, 1)
            rreq = m1.irecv(source=0, tag=0, comm=shrunk)
            m0.isend(b"fresh start", dest=1, tag=0, comm=shrunk)
            while not rreq.complete and sim.now < 4_000.0:
                yield sim.timeout(10.0)
            outcome["rreq"] = rreq

        sim.spawn(app())
        sim.run(until=4_500.0)
        rreq = outcome["rreq"]
        assert rreq.complete and not rreq.failed
        assert rreq.data.tobytes() == b"fresh start"
        assert engines[0].dead_peers == {2}

    def test_shrink_refuses_an_empty_communicator(self):
        world = Communicator([0, 1])
        from repro.errors import MpiError
        with pytest.raises(MpiError):
            world.shrink([0, 1])
