"""Failure injection: losses must surface loudly, never silently corrupt.

NewMadeleine targets reliable system-area networks and performs no
retransmission — so the correct behaviour under an injected frame drop is a
*visible* failure: conservation checks fail, requests stay incomplete
(deadlock detection fires), and later traffic on the same stream parks on
the sequence gap.  Corrupted-but-complete results would be a bug.
"""

import pytest

from repro.core import EngineParams, NmadEngine, VirtualData
from repro.errors import NetworkError, SimulationError
from repro.netsim import Cluster, FaultPlan, MX_MYRI10G
from repro.netsim.stats import render_fault_summary
from repro.sim import Simulator, Tracer


def make_pair_with_drops(drop_frame_ids=(), drop_nth=()):
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G,))
    plan = FaultPlan(drop_nth=drop_nth, drop_frame_ids=drop_frame_ids)
    # Install the plan on node0 -> node1 links only.
    for link in cluster.links:
        if link.src.node_id == 0:
            link.fault_plan = plan
    e0 = NmadEngine(cluster.node(0))
    e1 = NmadEngine(cluster.node(1))
    return sim, cluster, e0, e1


class TestDropVisibility:
    def test_dropped_eager_frame_deadlocks_not_corrupts(self):
        sim, cluster, e0, e1 = make_pair_with_drops(drop_nth=(1,))

        def app():
            req = e1.irecv(src=0, tag=0)
            e0.isend(1, b"doomed", tag=0)
            yield req.done

        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(app())
        assert not cluster.conservation_ok()
        assert cluster.links[0].frames_dropped == 1

    def test_later_traffic_parks_behind_the_gap(self):
        sim, cluster, e0, e1 = make_pair_with_drops(drop_nth=(1,))

        def app():
            r0 = e1.irecv(src=0, tag=0)
            r1 = e1.irecv(src=0, tag=1)
            e0.isend(1, b"lost", tag=0)
            yield sim.timeout(5.0)     # let the loss happen
            e0.isend(1, b"after", tag=1)
            yield sim.timeout(50.0)
            return r0.complete, r1.complete

        r0_done, r1_done = sim.run_process(app())
        assert not r0_done
        # Sequence parking holds the later message: in-order delivery is
        # never violated, even at the price of stalling.
        assert not r1_done
        assert e1.matcher.n_parked == 1

    def test_dropped_rdv_ack_stalls_sender_visibly(self):
        # Drop the 1st frame from node1 (the ACK direction).
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        for link in cluster.links:
            if link.src.node_id == 1:
                link.fault_plan = FaultPlan(drop_nth=(1,))
        e0 = NmadEngine(cluster.node(0))
        e1 = NmadEngine(cluster.node(1))

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, VirtualData(100_000), tag=0)
            yield sim.timeout(200.0)
            return sreq.complete, req.complete

        s_done, r_done = sim.run_process(app())
        assert not s_done and not r_done
        assert e0.rendezvous.n_pending == 1   # grant never arrived
        assert not e0.quiesced()

    def test_unaffected_streams_continue(self):
        # A loss on one flow must not block an independent source stream.
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        for link in cluster.links:
            if link.src.node_id == 0 and link.dst.node_id == 1:
                link.fault_plan = FaultPlan(drop_nth=(1,))
        engines = [NmadEngine(cluster.node(i)) for i in range(3)]

        def app():
            lost = engines[1].irecv(src=0, tag=0)
            ok = engines[1].irecv(src=2, tag=0)
            engines[0].isend(1, b"lost", tag=0)
            engines[2].isend(1, b"fine", tag=0)
            yield ok.done
            return lost.complete, ok.data.tobytes()

        lost_done, ok_data = sim.run_process(app())
        assert not lost_done
        assert ok_data == b"fine"

    def test_no_injector_means_no_drops(self):
        sim, cluster, e0, e1 = make_pair_with_drops()

        def app():
            req = e1.irecv(src=0)
            e0.isend(1, b"safe")
            yield req.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"safe"
        assert cluster.conservation_ok()


class TestCorruptDiscard:
    @pytest.mark.parametrize("layers", [
        {},
        {"reliability": "ack"},
        {"reliability": "ack", "sessions": "epoch"},
    ], ids=["off", "ack", "ack+epoch"])
    def test_corrupt_nth_is_counted_once_in_every_layer_subset(self, layers):
        # The checksum discard happens once, at the engine's receive entry
        # (which exists in paper mode too), whichever layers follow it.
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        for link in cluster.links:
            if link.src.node_id == 0:
                link.fault_plan = FaultPlan(corrupt_nth=(1,))
        params = EngineParams(**layers)
        e0 = NmadEngine(cluster.node(0), params=params)
        e1 = NmadEngine(cluster.node(1), params=params)

        def app():
            req = e1.irecv(src=0, tag=0)
            e0.isend(1, b"checksummed", tag=0)
            yield req.done
            return req

        if layers:
            assert sim.run_process(app()).data.tobytes() == b"checksummed"
        else:
            with pytest.raises(SimulationError, match="deadlock"):
                sim.run_process(app())  # paper mode: the loss is loud
        assert e1.stats.corrupt_discards == 1
        assert e0.stats.corrupt_discards == 0
        assert cluster.links[0].frames_corrupted == 1


def run_ping(slow_link=None):
    """One eager message node0 -> node1; returns (elapsed_us, cluster)."""
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G,))
    if slow_link is not None:
        for link in cluster.links:
            if link.src.node_id == 0:
                link.fault_plan = FaultPlan(slow_link=slow_link)
    e0 = NmadEngine(cluster.node(0))
    e1 = NmadEngine(cluster.node(1))

    def app():
        req = e1.irecv(src=0, tag=0)
        e0.isend(1, b"x" * 1024, tag=0)
        yield req.done

    sim.run_process(app())
    return sim.now, cluster


class TestSlowLink:
    def test_degraded_link_stretches_delivery(self):
        base, _ = run_ping()
        slow, cluster = run_ping(slow_link=(8.0, 0.0, None))
        assert slow > base
        s = cluster.fault_summary()
        assert s["frames_slowed"] > 0
        assert s["links_slowed"] == 1
        assert "slowed on 1 link(s)" in render_fault_summary(cluster)
        # Nothing was lost: degradation is not corruption.
        assert cluster.conservation_ok()

    def test_window_bounds_are_half_open(self):
        plan = FaultPlan(slow_link=(4.0, 10.0, 20.0))
        assert plan.latency_factor(9.999) == 1.0
        assert plan.latency_factor(10.0) == 4.0
        assert plan.latency_factor(19.999) == 4.0
        assert plan.latency_factor(20.0) == 1.0
        forever = FaultPlan(slow_link=(2.5, 5.0, None))
        assert forever.latency_factor(4.0) == 1.0
        assert forever.latency_factor(1e9) == 2.5

    def test_outside_the_window_the_link_runs_clean(self):
        base, _ = run_ping()
        # The slow window closed long before the run starts sending.
        same, cluster = run_ping(slow_link=(50.0, 0.0, 1e-9))
        assert same == base
        assert cluster.fault_summary()["frames_slowed"] == 0
        assert "slowed" not in render_fault_summary(cluster)

    def test_no_overtake_when_the_slow_window_ends_midflight(self):
        # Frame A enters the wire inside a x100 window; frame B enters
        # just after the window closes and would — at clean latency —
        # land before A.  The link's FIFO floor must hold A's order.
        sim = Simulator()
        tracer = Tracer(enabled=True,
                        filter=lambda r: r.kind == "wire_exit")
        cluster = Cluster(sim, rails=(MX_MYRI10G,), tracer=tracer)
        link = next(l for l in cluster.links if l.src.node_id == 0)
        until = link.latency_us * 0.5
        link.fault_plan = FaultPlan(slow_link=(100.0, 0.0, until))
        e0 = NmadEngine(cluster.node(0))
        e1 = NmadEngine(cluster.node(1))

        def app():
            r0 = e1.irecv(src=0, tag=0)
            r1 = e1.irecv(src=0, tag=1)
            e0.isend(1, b"slowed", tag=0)
            yield sim.timeout(until + 0.001)  # window closed, A in flight
            e0.isend(1, b"follower", tag=1)
            yield r0.done
            yield r1.done
            return r0.data.tobytes(), r1.data.tobytes()

        first, second = sim.run_process(app())
        assert (first, second) == (b"slowed", b"follower")
        exits = [r for r in tracer.records if r.source == link.name]
        assert len(exits) >= 2
        # Delivery times are monotonic in transmission order.
        times = [r.time for r in exits]
        assert times == sorted(times)
        # The follower was clamped behind the slowed frame, not ahead.
        assert times[1] >= times[0]

    def test_bad_slow_link_parameters_are_rejected(self):
        with pytest.raises(NetworkError, match="factor"):
            FaultPlan(slow_link=(0.5, 0.0, None))
        with pytest.raises(NetworkError, match="from_us"):
            FaultPlan(slow_link=(2.0, -1.0, None))
        with pytest.raises(NetworkError, match="empty"):
            FaultPlan(slow_link=(2.0, 10.0, 10.0))
