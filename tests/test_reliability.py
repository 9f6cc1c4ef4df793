"""The opt-in reliability layer: ack/retransmit, dedup, failover, failure.

Default mode stays ``"off"`` (the paper's engine, no retransmission — see
``tests/test_fault_injection.py`` for the loud-failure contract).  These
tests cover the ``"ack"`` mode: losses recover transparently, duplicates
never reach the application, a dead rail fails over mid-transfer, and an
undeliverable frame fails only its own request.
"""

import pytest

from repro.core import EngineParams, NmadEngine
from repro.errors import SimulationError, TransportError
from repro.netsim import MX_MYRI10G, QUADRICS_QM500, Cluster, FaultPlan
from repro.sim import Simulator

ACK = dict(reliability="ack", rel_timeout_us=100.0, rel_ack_delay_us=10.0)


def link_between(cluster, src, dst, rail=0):
    for link in cluster.links:
        if (link.src.node_id == src and link.dst.node_id == dst
                and link.src.rail == rail):
            return link
    raise AssertionError(f"no link node{src}->node{dst} rail{rail}")


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
        link_between(cluster, 0, 1).fault_plan = FaultPlan(
            drop_nth=(1,),                        # the ping data frame
            drop_kind_nth=(("rel_ack", 1),),      # the standalone pong ack
        )

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
        assert e0.stats.retransmits >= 1          # the lost ping
        assert e1.stats.retransmits >= 1          # pong re-sent after ack loss
        assert e0.stats.duplicates_suppressed >= 1  # the replayed pong
        assert cluster.conservation_ok(allow_faults=True)
        assert e0.quiesced() and e1.quiesced()

    def test_duplicate_never_reaches_the_application(self):
        # Losing only the ack means the payload is delivered twice on the
        # wire; the matcher must see it exactly once.
        sim, cluster, (e0, e1) = make_pair(EngineParams(**ACK))
        link_between(cluster, 1, 0).fault_plan = FaultPlan(
            drop_kind_nth=(("rel_ack", 1),))

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, b"once", tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"once"
        assert e1.stats.duplicates_suppressed >= 1
        assert e1.matcher.delivered == 1
        assert e0.quiesced() and e1.quiesced()


class TestFailover:
    def test_link_down_mid_rendezvous_completes_on_survivor(self):
        params = EngineParams(reliability="ack", rel_timeout_us=100.0,
                              rel_ack_delay_us=10.0,
                              rel_quarantine_threshold=2)
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
        params = EngineParams(reliability="ack", rel_timeout_us=100.0,
                              rel_ack_delay_us=10.0,
                              rel_quarantine_threshold=2,
                              rel_probe_after_us=1_000.0)
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

    def test_reprobe_disabled_with_infinite_delay(self):
        params = EngineParams(reliability="ack", rel_timeout_us=100.0,
                              rel_ack_delay_us=10.0,
                              rel_quarantine_threshold=2,
                              rel_probe_after_us=float("inf"))
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
            yield sim.timeout(500_000.0)  # far beyond any probe backoff
            return req

        req = sim.run_process(app())
        assert req.complete
        assert e0.stats.rails_quarantined == 1
        assert e0.stats.rails_reprobed == 0   # probing opted out
        assert not e0.transfer.rail_ok(1)  # quarantine is permanent

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
        with pytest.raises(ValueError):
            EngineParams(rel_probe_after_us=-1.0)
        # inf (disabled) and 0 (auto-derive) are both legal.
        EngineParams(rel_probe_after_us=float("inf"))
        EngineParams(rel_probe_after_us=0.0)

    def test_quarantine_skipped_without_surviving_rail(self):
        # A single-rail engine never self-quarantines: it keeps retrying on
        # the only rail it has until the budget decides.
        params = EngineParams(reliability="ack", rel_timeout_us=50.0,
                              rel_quarantine_threshold=1, rel_retry_budget=3)
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
        params = EngineParams(reliability="ack", rel_timeout_us=50.0,
                              rel_retry_budget=2, rel_ack_delay_us=5.0)
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
        params = EngineParams(reliability="ack", rel_timeout_us=50.0,
                              rel_retry_budget=2)
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
        params = EngineParams(reliability="ack", rel_timeout_us=50.0,
                              rel_retry_budget=1)
        sim, cluster, (e0, e1) = make_pair(params)
        link_between(cluster, 0, 1).fault_plan = FaultPlan(down_at_us=0.0)

        def app():
            req = e1.irecv(src=0, tag=0)
            e0.isend(1, b"x", tag=0)
            yield req.done

        with pytest.raises(SimulationError, match="retry budget exhausted"):
            sim.run_process(app())


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
            EngineParams(rel_backoff=0.5)
        with pytest.raises(ValueError):
            EngineParams(rel_retry_budget=0)
        with pytest.raises(ValueError):
            EngineParams(rel_quarantine_threshold=0)
