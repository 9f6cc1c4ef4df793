"""Chaos engine: fault-model expansion, partition tolerance, the
invariant-auditing harness.

Three layers under test, mirroring the subsystem's structure:

* the new link fault modes (duplicate, reorder, jitter, partition
  windows) and their conservation accounting;
* suspect-parking in the session layer — a transient partition healed
  before ``hb_timeout_us`` must cause *zero* teardowns, with outbound
  traffic parked during suspicion and flushed in order on recovery;
* the seeded chaos harness itself — bit-deterministic schedules and
  reports, an auditor that catches deliberately broken engines, and a
  shrinker that minimizes failing schedules.
"""

import dataclasses
import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    HARDENED,
    ChaosFault,
    ChaosSpec,
    audit_run,
    generate_schedule,
    run_chaos,
    run_schedule,
    shrink_schedule,
)
from repro.chaos.schedule import (
    HEALABLE_SHARE, MIN_FAULTS, MSG_MIN_BYTES, _healable, _lost_run,
)
from repro.core import EngineParams, NmadEngine, SendRequest
from repro.core.flowcontrol import FlowControlLayer
from repro.core.sessions import SessionLayer
from repro.core.strategies import AggregationStrategy
from repro.errors import NetworkError, ReproError
from repro.netsim import MX_MYRI10G, Cluster, FaultPlan
from repro.netsim.link import Link
from repro.sim import Simulator


def make_pair(params, n_nodes=2):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=(MX_MYRI10G,))
    engines = [NmadEngine(cluster.node(i), params=params)
               for i in range(n_nodes)]
    return sim, cluster, engines


def link_between(cluster, src, dst):
    return next(l for l in cluster.links
                if l.src.node_id == src and l.dst.node_id == dst)


#: Reliability + sessions with fast clocks (the test-suite idiom).
EPOCH = dict(sessions="epoch", reliability="ack", rel_ack_delay_us=10.0,
             hb_interval_us=50.0, hb_timeout_us=200.0)


# -- new link fault modes ------------------------------------------------------

class TestDuplicateFault:
    def test_duplicate_is_delivered_twice_and_suppressed_once(self):
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        sim, cluster, (e0, e1) = make_pair(params)
        link_between(cluster, 0, 1).fault_plan = FaultPlan(dup_nth=[1])
        req = e1.irecv(src=0, tag=0, nbytes=64)
        e0.isend(1, bytes(range(64)), tag=0)
        sim.run()
        assert req.complete and not req.failed
        assert req.data.tobytes() == bytes(range(64))
        link = link_between(cluster, 0, 1)
        assert link.frames_duplicated == 1
        assert link.bytes_duplicated > 0
        # The wire delivered one extra frame; the reliability window ate it.
        assert e1.stats.duplicates_suppressed >= 1
        assert cluster.conservation_ok(allow_faults=True)
        summary = cluster.fault_summary()
        assert summary["frames_duplicated"] == 1

    def test_conservation_arithmetic_includes_duplicates(self):
        # sent + duplicated == delivered + dropped, per link.
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        sim, cluster, (e0, e1) = make_pair(params)
        link_between(cluster, 0, 1).fault_plan = FaultPlan(
            dup_nth=[1], drop_nth=[3])
        reqs = [e1.irecv(src=0, tag=t, nbytes=32) for t in range(4)]
        for t in range(4):
            e0.isend(1, bytes([t]) * 32, tag=t)
        sim.run()
        assert all(r.complete and not r.failed for r in reqs)
        link = link_between(cluster, 0, 1)
        assert (link.frames_sent + link.frames_duplicated
                == link.frames_delivered + link.frames_dropped)
        assert cluster.conservation_ok(allow_faults=True)


class TestReorderFault:
    def test_reorder_lets_successors_overtake(self):
        # Off-mode engine, raw wire observation via the trace: the held
        # frame is delivered after its successor despite FIFO links.
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        link_between(cluster, 0, 1).fault_plan = FaultPlan(
            reorder=[(1, 40.0)])
        r0 = e1.irecv(src=0, tag=0, nbytes=16)
        r1 = e1.irecv(src=0, tag=1, nbytes=16)

        def app():
            e0.isend(1, b"a" * 16, tag=0)
            yield sim.timeout(5.0)
            e0.isend(1, b"b" * 16, tag=1)
            yield sim.timeout(100.0)

        sim.run_process(app())
        sim.run()
        # In-order matching still holds: the matcher parks the overtaker
        # until the held frame lands, then completes both in seq order.
        assert r0.complete and r1.complete
        assert link_between(cluster, 0, 1).frames_reordered == 1
        assert cluster.conservation_ok(allow_faults=True)
        assert cluster.fault_summary()["frames_reordered"] == 1

    def test_reorder_under_ack_mode_is_absorbed(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**EPOCH))
        link_between(cluster, 0, 1).fault_plan = FaultPlan(
            reorder=[(2, 60.0)])
        payloads = {t: bytes([t + 1]) * 128 for t in range(4)}
        reqs = [e1.irecv(src=0, tag=t, nbytes=128) for t in range(4)]

        def app():
            for t in range(4):
                e0.isend(1, payloads[t], tag=t)
                yield sim.timeout(10.0)

        sim.run_process(app())
        sim.run()
        for t, req in enumerate(reqs):
            assert req.complete and not req.failed
            assert req.data.tobytes() == payloads[t]
        assert e0.stats.peers_dead == 0 and e1.stats.peers_dead == 0


class TestJitterFault:
    def test_jitter_spreads_but_never_reorders(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        link_between(cluster, 0, 1).fault_plan = FaultPlan(
            jitter=(8.0, 42))
        reqs = [e1.irecv(src=0, tag=t, nbytes=32) for t in range(6)]

        def app():
            for t in range(6):
                e0.isend(1, bytes([t]) * 32, tag=t)
                yield sim.timeout(3.0)

        sim.run_process(app())
        sim.run()
        assert all(r.complete and not r.failed for r in reqs)
        link = link_between(cluster, 0, 1)
        assert link.frames_jittered > 0
        assert link.frames_reordered == 0
        # FIFO preserved: no frame parked on a sequence gap.
        assert e1.matcher.n_parked == 0
        assert cluster.conservation_ok(allow_faults=True)

    def test_jitter_is_seed_deterministic(self):
        def run_once():
            sim, cluster, (e0, e1) = make_pair(EngineParams())
            link_between(cluster, 0, 1).fault_plan = FaultPlan(
                jitter=(8.0, 1234))
            reqs = [e1.irecv(src=0, tag=t, nbytes=32) for t in range(5)]

            def app():
                for t in range(5):
                    e0.isend(1, bytes([t]) * 32, tag=t)
                    yield sim.timeout(3.0)

            sim.run_process(app())
            sim.run()
            assert all(r.complete for r in reqs)
            return sim.now

        assert run_once() == run_once()

    def test_jitter_validation(self):
        with pytest.raises(NetworkError):
            FaultPlan(jitter=(0.0, 1))
        with pytest.raises(NetworkError):
            FaultPlan(reorder=[(1, 10.0), (1, 20.0)])
        with pytest.raises(NetworkError):
            FaultPlan(reorder=[(0, 10.0)])
        with pytest.raises(NetworkError):
            FaultPlan(dup_nth=[0])
        with pytest.raises(NetworkError):
            FaultPlan(partitions=[(50.0, 50.0)])


class TestPartitionWindows:
    def test_cluster_partition_installs_on_cross_links(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        installed = cluster.partition([[0], [1, 2]], 10.0, 50.0)
        # 0<->1 and 0<->2, both directions.
        assert installed == 4
        # 1<->2 links stay untouched.
        assert link_between(cluster, 1, 2).fault_plan is None

    def test_one_way_partition_installs_half(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,))
        installed = cluster.partition([[0], [1]], 10.0, 50.0, one_way=True)
        assert installed == 1
        assert link_between(cluster, 0, 1).fault_plan is not None
        assert link_between(cluster, 1, 0).fault_plan is None

    def test_partition_validation(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,))
        with pytest.raises(NetworkError):
            cluster.partition([[0, 1]], 0.0, 10.0)
        with pytest.raises(NetworkError):
            cluster.partition([[0], [0, 1]], 0.0, 10.0)
        with pytest.raises(NetworkError):
            cluster.partition([[0], [7]], 0.0, 10.0)
        # The window is checked where FaultPlan checks its own, with the
        # same messages, and a refused window installs no plan at all.
        with pytest.raises(NetworkError,
                           match=r"empty partition window \[10.0, 10.0\)"):
            cluster.partition([[0], [1]], 10.0, 10.0)
        with pytest.raises(NetworkError, match="negative partition from_us"):
            cluster.partition([[0], [1]], -1.0, 10.0)
        assert all(link.fault_plan is None for link in cluster.links)

    def test_partition_drops_are_counted_separately(self):
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        cluster.partition([[0], [1]], 20.0, 150.0)
        req = e1.irecv(src=0, tag=0, nbytes=64)

        def app():
            yield sim.timeout(30.0)  # inside the window
            e0.isend(1, b"x" * 64, tag=0)

        sim.run_process(app())
        sim.run()
        # Retransmission heals the loss once the window closes.
        assert req.complete and not req.failed
        summary = cluster.fault_summary()
        assert summary["frames_partition_dropped"] > 0
        assert summary["links_partitioned"] == 2
        assert cluster.conservation_ok(allow_faults=True)


# -- partition tolerance: suspect != dead --------------------------------------

class TestSuspectParking:
    def test_heal_before_timeout_zero_teardowns_parked_flushed(self):
        """The acceptance scenario: a transient partition healed before
        ``hb_timeout_us`` causes zero teardowns; traffic sent during
        suspicion is parked and delivered in order, byte-exact."""
        params = EngineParams(**EPOCH)
        sim, cluster, (e0, e1) = make_pair(params)
        # Symmetric partition starting right after establishment (the
        # silence clock runs from the last real contact, ~t=6): long
        # enough past the suspicion threshold (hb_timeout/2 = 100us of
        # silence -> suspect at the t=150 monitor tick) but healed well
        # before the death threshold (200us of silence), so it must heal.
        cluster.partition([[0], [1]], 30.0, 130.0)

        payloads = {t: bytes([0x40 + t]) * (96 + 32 * t) for t in range(3)}
        reqs = {t: e1.irecv(src=0, tag=t, nbytes=len(payloads[t]))
                for t in range(3)}
        order: list[int] = []
        for t, req in reqs.items():
            req.done.add_callback(lambda _e, t=t: order.append(t))

        def app():
            e0.isend(1, payloads[0], tag=0)     # establishes the session
            yield sim.timeout(45.0)
            e0.isend(1, payloads[1], tag=1)     # into the partition: the
            yield sim.timeout(106.0)            # unacked frame keeps the
            e0.isend(1, payloads[2], tag=2)     # monitor armed -> parks

        sim.run_process(app())
        sim.run()

        for t, req in reqs.items():
            assert req.complete and not req.failed
            assert req.data.tobytes() == payloads[t]
        assert order == [0, 1, 2]
        # The partition was noticed ... and survived without a teardown.
        assert e0.stats.peers_suspected >= 1
        assert e0.stats.peers_recovered == 1
        assert e0.stats.frames_parked >= 1
        for engine in (e0, e1):
            assert engine.stats.peers_dead == 0
            assert engine.halted is False
        assert not e0.sessions.is_suspect(1)
        assert e0.sessions.suspect_peers() == []
        assert cluster.conservation_ok(allow_faults=True)
        assert sim.peek() == float("inf")  # no timers left behind

    def test_stale_suspect_cleared_when_monitor_goes_dormant(self):
        """Regression: a peer suspected while traffic was outstanding used
        to stay suspected forever once the reliability layer gave up and
        the monitor went dormant — parking every later send towards a
        perfectly healthy peer."""
        # 64 KiB chunks make the cold RTO about 108us (the default 512 KiB
        # chunk makes it 842us, past the death threshold below).
        params = EngineParams(sessions="epoch", reliability="ack",
                              rel_ack_delay_us=10.0,
                              rel_retry_budget=2, rdv_chunk_bytes=64 * 1024,
                              hb_interval_us=50.0, hb_timeout_us=1000.0)
        sim, cluster, (e0, e1) = make_pair(params)

        # Establish the session with a clean exchange first.
        r0 = e1.irecv(src=0, tag=0, nbytes=8)
        e0.isend(1, b"hello!!!", tag=0)
        sim.run(until=50.0)
        assert r0.complete

        # Then a long symmetric partition: the send below is lost, its
        # retransmit budget (2 retries, the RTO doubling each time) is
        # exhausted 7 cold RTOs after it leaves, around t=815 — *after*
        # suspicion (~570) but *before* the death threshold (1070) — so
        # the monitor goes dormant while the peer is suspect.
        assert 570.0 < 60.0 + 7 * e0.rtt.cold_us < 1070.0
        cluster.partition([[0], [1]], 60.0, 2000.0)
        doomed = e0.isend(1, b"x" * 64, tag=1)
        sim.run(until=1500.0)

        assert doomed.failed  # the transport gave up, visibly
        assert e0.stats.peers_suspected == 1
        assert e0.stats.peers_dead == 0
        # The fix under test: dormancy clears the stale suspicion.
        assert not e0.sessions.is_suspect(1)
        assert e0.sessions.suspect_peers() == []


# -- the seeded schedule generator ---------------------------------------------

class TestScheduleGenerator:
    def test_same_seed_same_schedule(self):
        spec = ChaosSpec()
        assert generate_schedule(7, spec) == generate_schedule(7, spec)
        assert generate_schedule(7, spec) != generate_schedule(8, spec)

    def test_no_crashes_unless_opted_in(self):
        spec = ChaosSpec()
        for seed in range(50):
            assert all(f.kind != "crash"
                       for f in generate_schedule(seed, spec))

    def test_partitions_are_healable_by_construction(self):
        spec = ChaosSpec()
        for seed in range(50):
            for fault in generate_schedule(seed, spec):
                if fault.kind == "partition":
                    width = fault.until_us - fault.from_us
                    assert width < 0.75 * HARDENED.hb_timeout_us

    @pytest.mark.parametrize("topology", ["mesh", "fat-tree"])
    def test_adjacent_partitions_are_healable_together(self, topology):
        # Two windows less than a heartbeat round apart are one silence to
        # the detector: their union obeys the single-window bound.  Seeds
        # 783 and 5908 broke it on the fat-tree spec.
        spec = ChaosSpec.quick(topology=topology)
        gap = 2.0 * HARDENED.hb_interval_us
        for seed in [*range(400), 783, 5908]:
            windows = sorted(
                (f.from_us, f.until_us) for f in generate_schedule(seed, spec)
                if f.kind in ("partition", "rack_partition"))
            for (lo1, hi1), (lo2, hi2) in zip(windows, windows[1:]):
                if lo2 < hi1 + gap:
                    assert (max(hi1, hi2) - lo1
                            <= 0.7 * HARDENED.hb_timeout_us + 1e-3), seed

    @pytest.mark.parametrize("topology", ["mesh", "fat-tree"])
    def test_lost_frames_shorten_the_partitions_next_to_them(self, topology):
        # A run of lost frames may bracket a window, each one stretching
        # the silence by up to a heartbeat round, so the window leaves room
        # for the run plus two rounds.  Quick seeds 53 and 153 broke it.
        spec = ChaosSpec.quick(topology=topology)
        hb, timeout = HARDENED.hb_interval_us, HARDENED.hb_timeout_us
        for seed in [*range(400), 53, 153]:
            faults = generate_schedule(seed, spec)
            bound = min(HEALABLE_SHARE * timeout,
                        timeout - (_lost_run(faults) + 2) * hb)
            for f in faults:
                if f.kind in ("partition", "rack_partition"):
                    assert f.until_us - f.from_us <= bound + 1e-3, seed

    def test_a_lone_lost_frame_leaves_the_schedule_alone(self):
        hb, timeout = HARDENED.hb_interval_us, HARDENED.hb_timeout_us
        window = ChaosFault(kind="partition", groups=((0,), (1,)),
                            from_us=100.0, until_us=519.0)
        lone = [window, ChaosFault(kind="drop", src=0, dst=1, nth=3),
                ChaosFault(kind="corrupt", src=0, dst=1, nth=5),
                ChaosFault(kind="burst", src=1, dst=0, nth=4, length=1)]
        assert _lost_run(lone) == 1
        assert _healable(lone) is lone
        # A burst of three and the drop right after it: four arrivals in
        # a row, so the window shrinks to leave six heartbeat rounds.
        run = [window, ChaosFault(kind="burst", src=0, dst=1, nth=3, length=3),
               ChaosFault(kind="drop", src=0, dst=1, nth=6)]
        assert _lost_run(run) == 4
        healed = _healable(run)
        assert healed[1:] == run[1:]
        assert (healed[0].from_us, healed[0].until_us) == (
            100.0, 100.0 + timeout - 6 * hb)

    def test_fault_bounds_respected(self):
        spec = ChaosSpec(max_faults=4)
        for seed in range(30):
            faults = generate_schedule(seed, spec)
            assert 2 <= len(faults) <= 4

    def test_spec_validation(self):
        with pytest.raises(TypeError):
            ChaosSpec(n_nodes=1)
        with pytest.raises(TypeError):
            ChaosSpec(min_faults=5, max_faults=2)
        with pytest.raises(TypeError):
            ChaosSpec(msg_min_bytes=100, msg_max_bytes=50)
        with pytest.raises(ReproError):
            run_schedule(0, ChaosSpec(),
                         [ChaosFault(kind="crash", src=1,
                                     from_us=10.0, until_us=500.0)])

    def test_rtt_drift_prepends_a_drift_drill(self):
        plain = ChaosSpec.quick()
        drift = ChaosSpec.quick(rtt_drift=True)
        for seed in range(20):
            base = generate_schedule(seed, plain)
            drifted = generate_schedule(seed, drift)
            # Three prepended faults: a slow-link ramp on the workload
            # path plus a jitter window per direction — composed from
            # existing fault kinds, drawn *after* the base schedule so
            # the rng prefix (and thus the base faults) is untouched.
            assert drifted[3:] == base
            ramp, j01, j10 = drifted[:3]
            assert ramp.kind == "slow" and (ramp.src, ramp.dst) == (0, 1)
            assert 48.0 <= ramp.factor <= 80.0
            assert ramp.until_us > ramp.from_us > 0.0
            for jit, pair in ((j01, (0, 1)), (j10, (1, 0))):
                assert jit.kind == "jitter"
                assert (jit.src, jit.dst) == pair
                assert jit.max_us > 0.0

    def test_rto_ceiling_validation(self):
        # Neither the spec nor the engine takes a ceiling or a constant
        # timeout: HARDENED runs the measured RTO, whose cold value comes
        # from the rails.
        with pytest.raises(TypeError):
            ChaosSpec(rel_rto_ceiling_us=0.0)
        with pytest.raises(TypeError):
            dataclasses.replace(HARDENED, rel_rto_ceiling_us=2_000.0)
        with pytest.raises(ValueError):
            dataclasses.replace(HARDENED, rel_timeout_us=100.0)
        assert HARDENED.rel_timeout_us == "auto"

    def test_spec_bounds_follow_the_harness_constants(self):
        assert ChaosSpec(max_faults=MIN_FAULTS).max_faults == MIN_FAULTS
        assert (ChaosSpec(msg_max_bytes=MSG_MIN_BYTES).msg_max_bytes
                == MSG_MIN_BYTES)
        with pytest.raises(ReproError):
            ChaosSpec(max_faults=MIN_FAULTS - 1)
        with pytest.raises(ReproError):
            ChaosSpec(msg_max_bytes=MSG_MIN_BYTES - 1)

    @pytest.mark.parametrize("quick, digest", [
        (None, "402ee124067d5458"),
        ({}, "9c9bd86c7bc58013"),
        ({"crashes": True}, "465b373c001eef96"),
        ({"topology": "fat-tree", "switch_kills": 2}, "de0492267c335627"),
        ({"rtt_drift": True}, "db6002bec0985799"),
    ], ids=["default", "quick", "crashes", "fat-tree", "rtt-drift"])
    def test_schedule_stream_is_pinned(self, quick, digest):
        # The first 500 seeds of each sweep profile expand to exactly the
        # schedules they always did: a reported seed replays anywhere.
        spec = ChaosSpec() if quick is None else ChaosSpec.quick(**quick)
        blob = json.dumps([[f.to_jsonable()
                            for f in generate_schedule(seed, spec)]
                           for seed in range(500)], sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest()[:16] == digest

    def test_fault_jsonable_omits_defaults(self):
        fault = ChaosFault(kind="drop", src=0, dst=1, nth=3)
        assert fault.to_jsonable() == {
            "kind": "drop", "src": 0, "dst": 1, "nth": 3}
        part = ChaosFault(kind="partition", groups=((0,), (1,)),
                          from_us=1.0, until_us=2.0)
        assert part.to_jsonable()["groups"] == [[0], [1]]


# -- the harness: determinism, auditing, shrinking -----------------------------

class TestChaosHarness:
    def test_quick_seeds_are_clean(self):
        for seed in range(3):
            report = run_chaos(seed, ChaosSpec.quick())
            assert report.ok, [f.detail for f in report.findings]
            assert report.delivered == report.n_messages
            assert report.drained

    @pytest.mark.parametrize("seed, spec", [
        # A 331us partition, well inside hb_timeout_us (600us): a session
        # deadline that tightened to four warm RTOs (about 200us) declared
        # the healthy peer dead.
        (9, ChaosSpec()),
        # A spine killed: twelve retransmits backed one channel's RTO off
        # to 64 cold RTOs (55ms), so its last frame was due after the
        # settle window and the send stuck.  The backoff now stops at
        # RTO_CEILING_US.
        (17, ChaosSpec.quick(topology="fat-tree", switch_kills=1)),
        # Node 0's last ack before a 419us partition and its three
        # heartbeat replies after it are lost; seven frames in a row
        # around a 375us one.  Drawn as they were, each silence outlasted
        # hb_timeout_us and killed a healthy peer.
        (53, ChaosSpec.quick()),
        (153, ChaosSpec.quick()),
    ], ids=["full-9", "fat-tree-17", "quick-53", "quick-153"])
    def test_a_healable_schedule_kills_no_peer_and_strands_no_send(
            self, seed, spec):
        report = run_chaos(seed, spec)
        assert report.ok, [f.detail for f in report.findings]
        assert report.delivered == report.n_messages
        assert all(stats["peers_dead"] == 0
                   for stats in report.stats.values())

    def test_report_is_bit_deterministic(self):
        first = json.dumps(run_chaos(2, ChaosSpec.quick()).to_jsonable(),
                           sort_keys=True)
        second = json.dumps(run_chaos(2, ChaosSpec.quick()).to_jsonable(),
                            sort_keys=True)
        assert first == second

    def test_crash_schedule_recovers_and_redelivers(self):
        spec = ChaosSpec.quick(crashes=True)
        crashy = [seed for seed in range(12)
                  if any(f.kind == "crash"
                         for f in generate_schedule(seed, spec))]
        assert crashy, "no crash seed in range — widen the search"
        report = run_chaos(crashy[0], spec)
        assert report.ok, [f.detail for f in report.findings]
        assert report.delivered == report.n_messages

    def test_auditor_catches_leaked_credit(self, monkeypatch):
        # Deliberately broken engine: flow control never releases credit.
        monkeypatch.setattr(FlowControlLayer, "release",
                            lambda self, *a, **k: None)
        spec = ChaosSpec.quick()
        world = run_schedule(3, spec, generate_schedule(3, spec))
        codes = {f.code for f in audit_run(world)}
        assert "credit-leak" in codes

    def test_auditor_catches_a_timer_that_never_stops(self, monkeypatch):
        # Deliberately broken failure detector: it never loses interest in
        # a peer, so heartbeats tick forever on a fleet with nothing left
        # to do — the queue stays live while every engine is quiesced.
        monkeypatch.setattr(SessionLayer, "_needs_monitor",
                            lambda self, peer: True)
        spec = ChaosSpec.quick()
        world = run_schedule(3, spec, generate_schedule(3, spec))
        codes = {f.code for f in audit_run(world)}
        assert "live-timers" in codes
        assert "not-quiesced" not in codes

    def test_auditor_catches_work_held_after_settle(self, monkeypatch):
        # Deliberately broken optimizer: it never elects a packet, so the
        # sender's window keeps its backlog (and its failure detector
        # keeps probing) long after the settle window.
        monkeypatch.setattr(AggregationStrategy, "select",
                            lambda self, ctx: None)
        spec = ChaosSpec.quick()
        world = run_schedule(3, spec, generate_schedule(3, spec))
        codes = {f.code for f in audit_run(world)}
        assert "not-quiesced" in codes
        assert "live-timers" not in codes

    def test_auditor_catches_unaccounted_delivery(self, monkeypatch):
        # Deliberately broken wire: every frame lands twice but the link
        # only accounts one — byte conservation must flag it.
        original = Link._deliver

        def double(self, frame):
            original(self, frame)
            self.frames_delivered += 1
            self.bytes_delivered += frame.wire_size

        monkeypatch.setattr(Link, "_deliver", double)
        spec = ChaosSpec.quick()
        world = run_schedule(0, spec, [])
        codes = {f.code for f in audit_run(world)}
        assert "conservation" in codes

    def test_shrinker_minimizes_to_empty_when_bug_is_in_engine(
            self, monkeypatch):
        # With the engine itself broken, no fault is needed to fail: the
        # greedy shrinker must strip the schedule to nothing.
        monkeypatch.setattr(FlowControlLayer, "release",
                            lambda self, *a, **k: None)
        spec = ChaosSpec.quick()
        result = shrink_schedule(3, spec, generate_schedule(3, spec))
        assert result.failed
        assert "credit-leak" in result.codes
        assert result.minimized == []
        snippet = result.snippet()
        compile(snippet, "<repro>", "exec")  # the snippet is valid Python
        assert "run_schedule" in snippet and "audit_run" in snippet

    def test_shrinker_reports_clean_schedule_as_unshrinkable(self):
        spec = ChaosSpec.quick()
        result = shrink_schedule(1, spec)
        assert not result.failed
        assert result.codes == ()
        assert result.runs == 1

    def test_drift_drill_is_clean_in_both_modes(self):
        # The CI sweep's drift drill passes the full audit on both chaos
        # fabrics, under the spurious-retransmit budget the rto-thrash
        # invariant enforces.
        for topology in ("mesh", "fat-tree"):
            report = run_chaos(42, ChaosSpec.quick(rtt_drift=True,
                                                   topology=topology))
            assert report.ok, [f.detail for f in report.findings]
            assert report.delivered == report.n_messages

    def test_auditor_catches_rto_thrash(self):
        # A thrashing engine retransmits far beyond its loss evidence;
        # the audit must pin it on every run.
        spec = ChaosSpec.quick(rtt_drift=True)
        world = run_schedule(42, spec, generate_schedule(42, spec))
        assert "rto-thrash" not in {f.code for f in audit_run(world)}
        sender = world.nodes[0][-1]
        sender.stats.retransmits += 10_000  # simulate a thrashing clock
        assert "rto-thrash" in {f.code for f in audit_run(world)}


def _flip_a_payload_byte(world):
    st = world.tags[min(world.tags)]
    st.payload = bytes([st.payload[0] ^ 0xFF]) + st.payload[1:]


def _repeat_a_completed_receive(world):
    st = world.tags[min(world.tags)]
    st.recvs.append(st.completions()[0])


def _forget_every_receive_of_a_tag(world):
    world.tags[min(world.tags)].recvs.clear()


def _leave_a_send_pending(world):
    tag = min(world.tags)
    sender = world.nodes[0][-1]
    world.tags[tag].sends.append(
        (sender, SendRequest(world.sim, dest=1, flow=0, tag=tag)))


def _declare_a_peer_dead(world):
    world.nodes[0][-1].stats.peers_dead += 1


def _shrink_the_receivers_release_ledger(world):
    # The sender then holds more released credit than the receiver ever
    # released (raising the sender's copy would also trip credit-leak).
    world.nodes[1][-1].flowcontrol._peers[0].released_bytes_total -= 1


def _recover_an_unsuspected_peer(world):
    stats = world.nodes[0][-1].stats
    stats.peers_recovered = stats.peers_suspected + 1


@pytest.mark.parametrize("code, mutate", [
    ("payload-mismatch", _flip_a_payload_byte),
    ("double-delivery", _repeat_a_completed_receive),
    ("undelivered", _forget_every_receive_of_a_tag),
    ("stuck-send", _leave_a_send_pending),
    ("unexpected-teardown", _declare_a_peer_dead),
    ("credit-ledger", _shrink_the_receivers_release_ledger),
    ("stats-ledger", _recover_an_unsuspected_peer),
])
def test_each_finding_code_fires_on_its_own_mutation(code, mutate):
    """A clean run plus one post-run mutation reads as exactly one code:
    each invariant that a healthy sweep never trips is shown red once."""
    spec = ChaosSpec.quick()
    world = run_schedule(42, spec, generate_schedule(42, spec))
    assert audit_run(world) == []
    mutate(world)
    assert [f.code for f in audit_run(world)] == [code]


# -- property: byte-exact exactly-once under random fault composition ----------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reorder_dup_partition_exactly_once(data):
    """Under any composition of reorder, duplicate and healable-partition
    faults, the hardened stack delivers every message exactly once and
    byte-exact, with zero teardowns."""
    spec = ChaosSpec(n_messages=6, msg_max_bytes=1024, deadline_us=20_000.0)
    faults = []
    for _ in range(data.draw(st.integers(0, 3), label="n_link_faults")):
        src, dst = data.draw(st.sampled_from([(0, 1), (1, 0)]), label="dir")
        kind = data.draw(st.sampled_from(["reorder", "dup"]), label="kind")
        nth = data.draw(st.integers(1, 12), label="nth")
        if kind == "dup":
            faults.append(ChaosFault(kind="dup", src=src, dst=dst, nth=nth))
        else:
            delay = data.draw(st.floats(5.0, 120.0), label="delay")
            faults.append(ChaosFault(kind="reorder", src=src, dst=dst,
                                     nth=nth, delay_us=delay))
    if data.draw(st.booleans(), label="partition?"):
        start = data.draw(st.floats(0.0, 400.0), label="start")
        width = data.draw(
            st.floats(0.2, 0.6), label="width") * HARDENED.hb_timeout_us
        faults.append(ChaosFault(kind="partition", groups=((0,), (1,)),
                                 from_us=start, until_us=start + width,
                                 one_way=data.draw(st.booleans(),
                                                   label="one_way")))

    world = run_schedule(0, spec, faults)
    findings = audit_run(world)
    assert not findings, [f.detail for f in findings]
    assert world.total("peers_dead") == 0
    for tag_state in world.tags.values():
        completions = tag_state.completions()
        assert len(completions) == 1
        assert completions[0][1].data.tobytes() == tag_state.payload
