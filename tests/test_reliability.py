"""The opt-in reliability layer: ack/retransmit, dedup, failover, failure.

Default mode stays ``"off"`` (the paper's engine, no retransmission — see
``tests/test_fault_injection.py`` for the loud-failure contract).  These
tests cover the ``"ack"`` mode: losses recover transparently, duplicates
never reach the application, a dead rail fails over mid-transfer, and an
undeliverable frame fails only its own request.
"""

import gc

import pytest

from repro.core import EngineParams, NmadEngine
from repro.core import reliability
from repro.core.reliability import ReliabilityLayer
from repro.core.rttstat import RTO_CEILING_US
from repro.errors import SimulationError, TransportError
from repro.netsim import MX_MYRI10G, QUADRICS_QM500, Cluster, FaultPlan
from repro.sim import Simulator, Tracer

ACK = dict(reliability="ack", rel_ack_delay_us=10.0)


def link_between(cluster, src, dst, rail=0):
    for link in cluster.links:
        if (link.src.node_id == src and link.dst.node_id == dst
                and link.src.rail == rail):
            return link
    raise AssertionError(f"no link node{src}->node{dst} rail{rail}")


def arrivals(link):
    """The kind of every frame entering ``link``, in arrival order (the
    1-based ``drop_nth`` index of an arrival is its position here + 1)."""
    kinds = []
    transmit = link.transmit

    def logging_transmit(frame):
        kinds.append(frame.kind)
        transmit(frame)

    link.transmit = logging_transmit
    return kinds


def make_pair(params, rails=(MX_MYRI10G,), strategy="aggregation"):
    sim = Simulator()
    cluster = Cluster(sim, rails=rails)
    engines = [NmadEngine(cluster.node(i), strategy=strategy, params=params)
               for i in range(2)]
    return sim, cluster, engines


class TestEagerRecovery:
    def test_dropped_eager_frame_is_retransmitted(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        link = link_between(cluster, 0, 1)
        link.fault_plan = FaultPlan(drop_nth=(1,))

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, b"persistent", tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req, sreq

        req, sreq = sim.run_process(app())
        assert req.data.tobytes() == b"persistent"
        assert not sreq.failed
        assert e0.stats.retransmits >= 1
        assert link.frames_dropped == 1
        # Retransmitted bytes are accounted: strict conservation sees the
        # loss, fault-aware conservation balances.
        assert not cluster.conservation_ok()
        assert cluster.conservation_ok(allow_faults=True)
        assert e0.quiesced() and e1.quiesced()

    def test_corrupted_frame_discarded_by_checksum_and_recovered(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        link = link_between(cluster, 0, 1)
        link.fault_plan = FaultPlan(corrupt_nth=(1,))

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, b"checksummed", tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"checksummed"
        assert e1.stats.corrupt_discards == 1
        assert e0.stats.retransmits >= 1
        assert link.frames_corrupted == 1
        # Corrupted bytes did travel the wire: even strict conservation
        # balances (nothing was dropped).
        assert cluster.conservation_ok(allow_faults=True)

    def test_acceptance_pingpong_with_data_and_ack_loss(self):
        # The PR's acceptance scenario: one dropped data frame and one
        # dropped ack frame; the exchange still completes byte-identical.
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        link = link_between(cluster, 0, 1)
        link.fault_plan = FaultPlan(drop_nth=(1, 3))
        kinds = arrivals(link)

        def app():
            rp = e1.irecv(src=0, tag=0)
            s0 = e0.isend(1, b"ping", tag=0)
            yield rp.done
            rq = e0.irecv(src=1, tag=1)
            s1 = e1.isend(0, b"pong", tag=1)
            yield rq.done
            for sreq in (s0, s1):
                if not sreq.complete:
                    yield sreq.done
            return rp, rq

        rp, rq = sim.run_process(app())
        assert rp.data.tobytes() == b"ping"
        assert rq.data.tobytes() == b"pong"
        # The drops hit the ping data frame and the standalone pong ack.
        assert (kinds[0], kinds[2]) == ("data", "rel_ack")
        assert e0.stats.retransmits >= 1          # the lost ping
        assert e1.stats.retransmits >= 1          # pong re-sent after ack loss
        assert e0.stats.duplicates_suppressed >= 1  # the replayed pong
        assert cluster.conservation_ok(allow_faults=True)
        assert e0.quiesced() and e1.quiesced()

    def test_duplicate_never_reaches_the_application(self):
        # Losing only the ack means the payload is delivered twice on the
        # wire; the matcher must see it exactly once.
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        link = link_between(cluster, 1, 0)
        link.fault_plan = FaultPlan(drop_nth=(1,))
        kinds = arrivals(link)

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, b"once", tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"once"
        assert kinds[0] == "rel_ack"  # the dropped arrival was the ack
        assert e1.stats.duplicates_suppressed >= 1
        assert e1.matcher.delivered == 1
        assert e0.quiesced() and e1.quiesced()


class TestFailover:
    def test_link_down_mid_rendezvous_completes_on_survivor(self):
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        sim, cluster, (e0, e1) = make_pair(
            params, rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail")
        link_between(cluster, 0, 1, rail=1).fault_plan = \
            FaultPlan(down_at_us=100.0)
        payload = bytes(range(256)) * 8192  # 2 MiB

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, payload, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req, sreq

        req, sreq = sim.run_process(app())
        assert req.data.tobytes() == payload     # reassembled byte-exact
        assert not sreq.failed
        assert e0.stats.failovers >= 1
        assert e0.stats.rails_quarantined == 1
        # The quarantine is no longer forever: the half-open prober lifted
        # it after the backoff window (the transfer outlives the probe), and
        # no traffic has re-tried the dead rail since — one more timeout on
        # it would re-quarantine instantly.
        assert e0.stats.rails_reprobed == 1
        assert e0.transfer.rail_ok(0)
        assert cluster.conservation_ok(allow_faults=True)
        assert e0.quiesced() and e1.quiesced()

    def test_healed_rail_carries_traffic_again_after_reprobe(self):
        # The bugfix regression: a quarantined rail used to stay dead
        # forever.  Kill rail 1 mid-transfer so it gets quarantined, heal
        # the link, let the half-open probe lift the quarantine, then prove
        # a second transfer actually delivers frames over that rail again.
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        sim, cluster, (e0, e1) = make_pair(
            params, rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail")
        rail1 = link_between(cluster, 0, 1, rail=1)
        rail1.fault_plan = FaultPlan(down_at_us=100.0)
        payload = bytes(range(256)) * 8192  # 2 MiB

        def app():
            r1 = e1.irecv(src=0, tag=0)
            s1 = e0.isend(1, payload, tag=0)
            yield r1.done
            if not s1.complete:
                yield s1.done
            assert e0.stats.rails_quarantined == 1  # the fault bit rail 1
            rail1.fault_plan = None                 # the brownout heals
            while not e0.transfer.rail_ok(1):  # probe fires post-heal
                yield sim.timeout(200.0)
            sent = cluster.nodes[0].nic(1).frames_sent
            delivered = rail1.frames_delivered
            r2 = e1.irecv(src=0, tag=1)
            s2 = e0.isend(1, payload, tag=1)
            yield r2.done
            if not s2.complete:
                yield s2.done
            return r1, r2, sent, delivered

        r1, r2, sent, delivered = sim.run_process(app())
        assert r1.data.tobytes() == payload
        assert r2.data.tobytes() == payload
        assert e0.stats.rails_quarantined == 1
        assert e0.stats.rails_reprobed == 1
        # The healed rail is not just nominally ok — the second transfer's
        # frames were sent on it and actually arrived.
        assert cluster.nodes[0].nic(1).frames_sent > sent
        assert rail1.frames_delivered > delivered
        assert e0.transfer.rail_ok(0) and e0.transfer.rail_ok(1)
        assert cluster.conservation_ok(allow_faults=True)

    def test_quarantine_takes_the_rails_granted_bulk_with_it(
            self, monkeypatch):
        # Under ``aggregation`` the rendezvous grant pins the bulk to the
        # rail that will carry it; when that rail is quarantined the bulk
        # must re-home to the survivor (TransferLayer.quarantine), not sit
        # granted on the dead rail until the half-open probe lifts the
        # quarantine and sends it into the dead link again.  (``multirail``
        # does not show the gap: it has nothing pinned to re-home.)  Two
        # straight losses quarantine, so the chunk timings stay small.
        monkeypatch.setattr(reliability, "QUARANTINE_THRESHOLD", 2)
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        sim, cluster, (e0, e1) = make_pair(
            params, rails=(MX_MYRI10G, QUADRICS_QM500), strategy="aggregation")
        link_between(cluster, 0, 1, rail=0).fault_plan = \
            FaultPlan(down_at_us=100.0)
        payload = bytes(range(256)) * 8192  # 2 MiB
        nic0 = cluster.nodes[0].nic(0)
        post_send = nic0.post_send
        quarantines_at_post = []

        def recording_post_send(frame, cpu_gap_us=0.0):
            quarantines_at_post.append(e0.stats.rails_quarantined)
            return post_send(frame, cpu_gap_us)

        nic0.post_send = recording_post_send

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, payload, tag=0)
            yield req.done
            done = (sim.now, e0.stats.rails_reprobed)
            if not sreq.complete:
                yield sreq.done
            return req, sreq, done

        req, sreq, (recv_done_us, reprobes_by_then) = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert not sreq.failed
        assert e0.stats.rails_quarantined >= 1
        # Nothing was posted on rail 0 once it was quarantined, and the
        # message did not wait for the probe to lift the quarantine.  The
        # timings follow the cold RTO (twice a QM500 chunk's wire time):
        # the second chunk on rail 0 leaves the NIC at 877.4us, and its
        # loss, one cold RTO later, quarantines the rail at 2031.9us --
        # after rail 0 took its fifth and last frame at 1313.1us.
        assert e0.rtt.cold_us == pytest.approx(1154.44, abs=0.01)
        assert quarantines_at_post == [0, 0, 0, 0, 0]
        assert reprobes_by_then == 0
        assert e0.stats.failovers == 4
        assert recv_done_us == pytest.approx(3966.55, abs=0.01)

    def test_reprobe_fires_probe_after_rtos_base_timeouts_later(self):
        # No knob and no "never" value: a quarantined rail is re-probed
        # PROBE_AFTER_RTOS base retransmit timeouts after its quarantine --
        # the measured (here still cold) one.
        tracer = Tracer(enabled=True)
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G, QUADRICS_QM500))
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        e0, e1 = (NmadEngine(cluster.node(i), strategy="multirail",
                             params=params, tracer=tracer)
                  for i in range(2))
        link_between(cluster, 0, 1, rail=1).fault_plan = \
            FaultPlan(down_at_us=100.0)
        payload = bytes(range(256)) * 8192  # 2 MiB
        req = e1.irecv(src=0, tag=0)
        e0.isend(1, payload, tag=0)
        sim.run()
        assert req.data.tobytes() == payload
        quarantine, = (r for r in tracer.records if r.kind == "quarantine")
        reprobe, = (r for r in tracer.records if r.kind == "reprobe")
        assert reprobe.time - quarantine.time == pytest.approx(
            reliability.PROBE_AFTER_RTOS * e0.rtt.cold_us)
        assert e0.stats.rails_quarantined == 1
        assert e0.stats.rails_reprobed == 1

    def test_congestion_aware_election_prefers_shorter_queue(self):
        # Unit-level: with both rails healthy, the election leaves a sticky
        # preference alone on equal scores but moves to the strictly less
        # congested rail once the preferred NIC has a deeper tx queue.
        params = EngineParams(**ACK)
        sim, cluster, (e0, e1) = make_pair(
            params, rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail")
        rel = e0.transfer
        assert rel.choose_rail(1, prefer=0) == 0  # idle tie: sticky
        assert rel.choose_rail(1, prefer=1) == 1
        # Pile frames onto rail 0's NIC; rail 1 becomes strictly better.
        # The link drops them so they never reach node1's engine demux —
        # this test is about the *sender-side* queue-depth score only.
        from repro.netsim.frames import Frame
        link_between(cluster, 0, 1, rail=0).fault_plan = \
            FaultPlan(drop_nth=tuple(range(1, 5)))
        nic0 = cluster.nodes[0].nic(0)
        for _ in range(4):
            nic0.post_send(Frame(src_node=0, dst_node=1, kind="data",
                                 wire_size=4096))
        assert not nic0.idle
        assert rel.choose_rail(1, prefer=0) == 1
        sim.run()  # drain the backlog
        assert rel.choose_rail(1, prefer=0) == 0

    def test_probe_delay_validation(self):
        # The probe delay is derived, not configured: the retired knob is
        # refused, and with it its "0 = derive" and "inf = never" values.
        for value in (-1.0, 0.0, float("inf"), 1_000.0):
            with pytest.raises(TypeError):
                EngineParams(rel_probe_after_us=value)
        assert 0 < reliability.PROBE_AFTER_RTOS < float("inf")

    def test_quarantine_skipped_without_surviving_rail(self):
        # A single-rail engine never self-quarantines: it keeps retrying on
        # the only rail it has until the budget decides.
        params = EngineParams(reliability="ack", rel_retry_budget=3)
        sim, cluster, (e0, e1) = make_pair(params)
        link_between(cluster, 0, 1).fault_plan = FaultPlan(down_at_us=0.0)

        def app():
            e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, b"stuck", tag=0)
            yield sim.timeout(5_000.0)
            return sreq

        sreq = sim.run_process(app())
        assert e0.stats.rails_quarantined == 0
        assert e0.transfer.rail_ok(0)
        assert sreq.failed and isinstance(sreq.error, TransportError)


class TestRetryExhaustion:
    def test_budget_exhaustion_fails_only_affected_request(self):
        params = EngineParams(reliability="ack", rel_retry_budget=2,
                              rel_ack_delay_us=5.0)
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        link_between(cluster, 0, 1).fault_plan = FaultPlan(down_at_us=0.0)
        e0, e1, e2 = [NmadEngine(cluster.node(i), params=params)
                      for i in range(3)]

        def app():
            r_lost = e1.irecv(src=0, tag=0)
            r_ok = e1.irecv(src=2, tag=0)
            s_bad = e0.isend(1, b"doomed", tag=0)
            s_ok = e2.isend(1, b"fine", tag=0)
            yield r_ok.done
            yield sim.timeout(2_000.0)  # let the budget run out
            return r_lost, r_ok, s_bad, s_ok

        r_lost, r_ok, s_bad, s_ok = sim.run_process(app())
        assert s_bad.failed
        assert isinstance(s_bad.error, TransportError)
        assert e0.stats.transport_failures == 1
        # Everything not routed over the dead link is untouched.
        assert r_ok.complete and r_ok.data.tobytes() == b"fine"
        assert s_ok.complete and not s_ok.failed
        assert not r_lost.complete

    def test_exhausted_rendezvous_fails_the_big_send(self):
        params = EngineParams(reliability="ack", rel_retry_budget=2)
        sim, cluster, (e0, e1) = make_pair(params)
        link_between(cluster, 0, 1).fault_plan = FaultPlan(down_at_us=0.0)

        def app():
            e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, bytes(300_000), tag=0)
            yield sim.timeout(5_000.0)
            return sreq

        sreq = sim.run_process(app())
        # The announcement itself never got through: the send fails.
        assert sreq.failed and isinstance(sreq.error, TransportError)
        assert e0.rendezvous.n_pending == 0


class TestDeadlockDiagnosis:
    def test_off_mode_deadlock_names_paper_mode(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        link_between(cluster, 0, 1).fault_plan = FaultPlan(drop_nth=(1,))

        held = []

        def app():
            req = e1.irecv(src=0, tag=0)
            held.extend([req, e0.isend(1, b"x", tag=0)])
            yield req.done

        with pytest.raises(SimulationError, match="no retransmission") as exc:
            sim.run_process(app())
        assert str(exc.value) == (
            "process 'app' never finished (deadlock: queue drained while "
            "the process was still waiting) | node1: reliability='off' — no "
            "retransmission (paper mode); a lost or corrupted frame stalls "
            "its stream forever")
        # The stuck requests still name themselves (label rendered lazily).
        assert repr(held[0].done) == "<RecvRequest 'recv:0/0/0' pending>"
        assert repr(held[1].done) == "<SendRequest 'send:1/0/0' ok>"

    def test_exhausted_budget_named_in_deadlock(self):
        params = EngineParams(reliability="ack", rel_retry_budget=1)
        sim, cluster, (e0, e1) = make_pair(params)
        link_between(cluster, 0, 1).fault_plan = FaultPlan(down_at_us=0.0)

        def app():
            req = e1.irecv(src=0, tag=0)
            e0.isend(1, b"x", tag=0)
            yield req.done

        with pytest.raises(SimulationError, match="retry budget exhausted"):
            sim.run_process(app())


class TestRetryTimer:
    def test_acked_out_channel_disarms_its_retry_timer(self, monkeypatch):
        # A clean run never expires a retry clock.  Once the last ack
        # empties the channel the timer is cancelled, so its stale queue
        # entry is voided by the Timer and never reaches _on_timer.
        entered = []
        on_timer = ReliabilityLayer._on_timer

        def counting_on_timer(self, peer):
            entered.append(peer)
            on_timer(self, peer)

        monkeypatch.setattr(ReliabilityLayer, "_on_timer", counting_on_timer)
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        channels = []

        def app():
            for i in range(3):
                req = e1.irecv(src=0, tag=i)
                sreq = e0.isend(1, b"tick" * 8, tag=i)
                yield req.done
                if not sreq.complete:
                    yield sreq.done
                ch = e0.reliability._channels[1]
                assert not ch.unacked
                assert not ch.retry_timer.armed
                channels.append(ch)

        sim.run_process(app())
        sim.run()
        assert len(channels) == 3 and e0.stats.retransmits == 0
        assert not channels[-1].retry_timer.armed
        assert entered == []
        assert e0.quiesced() and e1.quiesced()


    def test_a_channel_that_keeps_losing_never_arms_past_the_ceiling(self):
        # RFC 6298 §5.5 caps the doubling: a frame retried into a dead
        # link waits 1, 2, 4 and 8 cold RTOs, then RTO_CEILING_US each
        # time -- never 16 or 64 cold RTOs (13ms, 54ms), a retry later than
        # any settle window waits.
        tracer = Tracer(enabled=True)
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        params = EngineParams(**ACK)
        e0, e1 = (NmadEngine(cluster.node(i), params=params, tracer=tracer)
                  for i in range(2))
        link_between(cluster, 0, 1).fault_plan = FaultPlan(down_at_us=0.0)
        sreq = e0.isend(1, b"lost" * 16, tag=0)
        sim.run()
        assert sreq.failed and isinstance(sreq.error, TransportError)
        tries = [r.time for r in tracer.records
                 if r.source == "node0.reliability"
                 and r.kind in ("retransmit", "give_up")]
        assert len(tries) == params.rel_retry_budget + 1
        gaps = [later - earlier for earlier, later in zip(tries, tries[1:])]
        cold = e0.rtt.cold_us
        assert 16 * cold > RTO_CEILING_US
        assert gaps == pytest.approx(
            [2 * cold, 4 * cold, 8 * cold] + [RTO_CEILING_US] * 5, abs=1.0)


class TestTeardownLeavesNoCycle:
    def test_frames_queued_on_a_crashed_card_leave_nothing_for_the_collector(
            self):
        # Frames lost queued on a crashed card keep their send-completion
        # cookies.  A cookie that held its _Pending (which holds the frame)
        # would be a cycle, and so would a channel whose timers held the
        # channel: once the peer is torn down, reference counting alone
        # must free the lot.
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK),
                                           strategy="fifo")
        rreq = e1.irecv(src=0, tag=99)
        sreq = e0.isend(1, b"warm", tag=99)   # per-peer state exists now
        sim.run()
        assert rreq.ok and sreq.ok
        del rreq, sreq
        nic = cluster.node(0).nic()
        link_between(cluster, 0, 1).fault_plan = FaultPlan(
            drop_nth=tuple(range(1, 64)))
        gc.collect()
        gc.disable()
        try:
            sends = [e0.isend(1, b"x" * 8000, tag=t) for t in range(8)]
            sim.run(until=sim.now + 100.0)
            assert nic.idle and e0.reliability.n_unacked == 8
            # A 24 us first transmission goes on the card just before the
            # first retry clock expires, so the retransmits queue behind
            # it: the card dies holding both kinds, on the wire and queued.
            unacked = e0.reliability._channels[1].unacked.values()
            sim.run(until=min(p.deadline for p in unacked) - 5.0)
            sends.append(e0.isend(1, b"y" * 30_000, tag=8))
            sim.run(until=sim.now + 16.0)
            assert nic.queued == e0.stats.retransmits == 2
            nic.crash()
            e0.reliability.reset_peer(1, TransportError("peer torn down"))
            sim.run()
            assert all(isinstance(s.error, TransportError) for s in sends)
            del sends
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestOffModeUnchanged:
    def test_off_mode_adds_no_wire_overhead_or_counters(self):
        # The default engine must be byte-for-byte the paper's: no
        # reliability headers, no acks, identical frame count.
        results = {}
        for mode in ("off", "ack"):
            sim, cluster, (e0, e1) = make_pair(
                EngineParams(reliability=mode))

            def app():
                req = e1.irecv(src=0, tag=0)
                sreq = e0.isend(1, b"payload!", tag=0)
                yield req.done
                if not sreq.complete:
                    yield sreq.done

            sim.run_process(app())
            results[mode] = (cluster.links[0].bytes_sent,
                             e0.stats.acks_sent + e1.stats.acks_sent)
        off_bytes, off_acks = results["off"]
        ack_bytes, ack_acks = results["ack"]
        assert off_acks == 0
        assert ack_acks >= 1
        hdr = EngineParams().hdr
        assert ack_bytes >= off_bytes + hdr.rel_header + hdr.checksum

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EngineParams(reliability="maybe")
        with pytest.raises(ValueError):
            EngineParams(rel_timeout_us=0.0)
        with pytest.raises(ValueError):
            EngineParams(rel_retry_budget=0)
