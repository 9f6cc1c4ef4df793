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

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (
    ChaosFault,
    ChaosSpec,
    audit_run,
    generate_schedule,
    run_chaos,
    run_schedule,
    shrink_schedule,
)
from repro.core import EngineParams, NmadEngine
from repro.core.flowcontrol import FlowControlLayer
from repro.core.sessions import SessionLayer
from repro.core.strategies import AggregationStrategy
from repro.errors import NetworkError, ReproError
from repro.netsim import MX_MYRI10G, Cluster, FaultPlan
from repro.netsim.link import Link
from repro.netsim.stats import render_fault_summary
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
EPOCH = dict(sessions="epoch", reliability="ack",
             rel_timeout_us=100.0, rel_ack_delay_us=10.0,
             hb_interval_us=50.0, hb_timeout_us=200.0)


# -- new link fault modes ------------------------------------------------------

class TestDuplicateFault:
    def test_duplicate_is_delivered_twice_and_suppressed_once(self):
        params = EngineParams(reliability="ack", rel_timeout_us=100.0,
                              rel_ack_delay_us=10.0)
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
        assert "duplicated" in render_fault_summary(cluster)

    def test_conservation_arithmetic_includes_duplicates(self):
        # sent + duplicated == delivered + dropped, per link.
        params = EngineParams(reliability="ack", rel_timeout_us=100.0,
                              rel_ack_delay_us=10.0)
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
        assert "reordered" in render_fault_summary(cluster)

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
        assert "partition-dropped" in render_fault_summary(cluster)


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
        params = EngineParams(sessions="epoch", reliability="ack",
                              rel_timeout_us=100.0, rel_ack_delay_us=10.0,
                              rel_retry_budget=2,
                              hb_interval_us=50.0, hb_timeout_us=1000.0)
        sim, cluster, (e0, e1) = make_pair(params)

        # Establish the session with a clean exchange first.
        r0 = e1.irecv(src=0, tag=0, nbytes=8)
        e0.isend(1, b"hello!!!", tag=0)
        sim.run(until=50.0)
        assert r0.complete

        # Then a long symmetric partition: the send below is lost, its
        # retransmit budget (2 retries) is exhausted around t=770 —
        # *after* suspicion (~570) but *before* the death threshold
        # (1070) — so the monitor goes dormant while the peer is suspect.
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
                    assert width < 0.75 * spec.hb_timeout_us

    @pytest.mark.parametrize("topology", ["mesh", "fat-tree"])
    def test_adjacent_partitions_are_healable_together(self, topology):
        # Two windows less than a heartbeat round apart are one silence to
        # the detector: their union obeys the single-window bound.  Seeds
        # 783 and 5908 broke it on the fat-tree spec.
        spec = ChaosSpec.quick(topology=topology)
        gap = 2.0 * spec.hb_interval_us
        for seed in [*range(400), 783, 5908]:
            windows = sorted(
                (f.from_us, f.until_us) for f in generate_schedule(seed, spec)
                if f.kind in ("partition", "rack_partition"))
            for (lo1, hi1), (lo2, hi2) in zip(windows, windows[1:]):
                if lo2 < hi1 + gap:
                    assert (max(hi1, hi2) - lo1
                            <= 0.7 * spec.hb_timeout_us + 1e-3), seed

    def test_fault_bounds_respected(self):
        spec = ChaosSpec(min_faults=1, max_faults=4)
        for seed in range(30):
            faults = generate_schedule(seed, spec)
            assert 1 <= len(faults) <= 4

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            ChaosSpec(n_nodes=1)
        with pytest.raises(ReproError):
            ChaosSpec(min_faults=5, max_faults=2)
        with pytest.raises(ReproError):
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

    def test_adaptive_flag_never_reaches_the_generator(self):
        # The basis of the static-vs-adaptive comparison: two specs
        # differing only in `adaptive` expand to identical fault lists.
        for seed in range(20):
            assert (generate_schedule(seed, ChaosSpec.quick(rtt_drift=True))
                    == generate_schedule(
                        seed, ChaosSpec.quick(rtt_drift=True, adaptive=True)))

    def test_rto_ceiling_validation(self):
        with pytest.raises(ReproError):
            ChaosSpec(rel_rto_ceiling_us=0.0)

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
        # The CI sweep's drift drill: both twins of the comparison pass
        # the full audit (the adaptive one under the spurious-retransmit
        # budget the rto-thrash invariant enforces).
        for adaptive in (False, True):
            spec = ChaosSpec.quick(rtt_drift=True, adaptive=adaptive)
            report = run_chaos(42, spec)
            assert report.ok, [f.detail for f in report.findings]
            assert report.delivered == report.n_messages

    def test_auditor_catches_rto_thrash(self):
        # A thrashing adaptive engine retransmits far beyond its loss
        # evidence; the audit must pin it — and must hold the *adaptive*
        # run only (a static run under drift blows the bound by design).
        spec = ChaosSpec.quick(rtt_drift=True, adaptive=True)
        world = run_schedule(42, spec, generate_schedule(42, spec))
        assert "rto-thrash" not in {f.code for f in audit_run(world)}
        sender = world.nodes[0][-1]
        sender.stats.retransmits += 10_000  # simulate a thrashing clock
        assert "rto-thrash" in {f.code for f in audit_run(world)}

        static = ChaosSpec.quick(rtt_drift=True)
        world = run_schedule(42, static, generate_schedule(42, static))
        sender = world.nodes[0][-1]
        sender.stats.retransmits += 10_000
        assert "rto-thrash" not in {f.code for f in audit_run(world)}


# -- property: byte-exact exactly-once under random fault composition ----------

@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_reorder_dup_partition_exactly_once(data):
    """Under any composition of reorder, duplicate and healable-partition
    faults, the hardened stack delivers every message exactly once and
    byte-exact, with zero teardowns."""
    spec = ChaosSpec(n_messages=6, msg_max_bytes=1024,
                     min_faults=0, max_faults=0,
                     deadline_us=20_000.0, settle_us=4_000.0)
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
            st.floats(0.2, 0.6), label="width") * spec.hb_timeout_us
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
