"""Unit tests for the NIC/link/node/topology substrate."""

import pytest

from repro.errors import NetworkError
from repro.netsim import (
    Cluster,
    Frame,
    FrameKind,
    MX_MYRI10G,
    QUADRICS_QM500,
    TCP_GIGE,
    NicProfile,
)
from repro.sim import Simulator, Tracer


@pytest.fixture()
def sim():
    return Simulator()


def make_cluster(sim, rails=(MX_MYRI10G,), n_nodes=2, tracer=None):
    return Cluster(sim, n_nodes=n_nodes, rails=rails, tracer=tracer)


def frame(src=0, dst=1, size=1000, payload=None, kind=FrameKind.DATA):
    return Frame(src_node=src, dst_node=dst, kind=kind,
                 wire_size=size, payload=payload, payload_size=size)


class TestFrame:
    def test_header_size(self):
        f = Frame(src_node=0, dst_node=1, kind="data", wire_size=120,
                  payload_size=100)
        assert f.header_size == 20

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Frame(src_node=0, dst_node=1, kind="d", wire_size=-1)
        with pytest.raises(ValueError):
            Frame(src_node=0, dst_node=1, kind="d", wire_size=10, payload_size=-1)

    def test_payload_cannot_exceed_wire(self):
        with pytest.raises(ValueError):
            Frame(src_node=0, dst_node=1, kind="d", wire_size=10, payload_size=11)

    def test_frame_ids_unique(self):
        ids = {frame().frame_id for _ in range(100)}
        assert len(ids) == 100


class TestDelivery:
    def test_frame_arrives_with_payload(self, sim):
        cluster = make_cluster(sim)
        got = []
        cluster.node(1).nic().set_receive_handler(lambda f: got.append(f))
        f = frame(payload={"hello": "world"})
        cluster.node(0).nic().post_send(f)
        sim.run()
        assert len(got) == 1
        assert got[0].payload == {"hello": "world"}
        assert cluster.conservation_ok()

    def test_arrival_time_includes_all_components(self, sim):
        p = MX_MYRI10G
        cluster = make_cluster(sim, rails=(p,))
        times = []
        cluster.node(1).nic().set_receive_handler(lambda f: times.append(sim.now))
        size = 10_000
        cluster.node(0).nic().post_send(frame(size=size))
        sim.run()
        expected = (
            p.send_overhead_us + size / p.bandwidth_mbps + p.latency_us
            + p.recv_overhead_us
        )
        assert times[0] == pytest.approx(expected)

    def test_cpu_gap_delays_transmission(self, sim):
        cluster = make_cluster(sim)
        times = []
        cluster.node(1).nic().set_receive_handler(lambda f: times.append(sim.now))
        cluster.node(0).nic().post_send(frame(size=100), cpu_gap_us=5.0)
        sim.run()
        base = make_time_without_gap = None
        # Re-run a fresh sim without the gap to compare.
        sim2 = Simulator()
        cluster2 = make_cluster(sim2)
        times2 = []
        cluster2.node(1).nic().set_receive_handler(lambda f: times2.append(sim2.now))
        cluster2.node(0).nic().post_send(frame(size=100))
        sim2.run()
        assert times[0] == pytest.approx(times2[0] + 5.0)

    def test_in_order_delivery(self, sim):
        cluster = make_cluster(sim)
        got = []
        cluster.node(1).nic().set_receive_handler(lambda f: got.append(f.payload))
        nic0 = cluster.node(0).nic()
        for i in range(10):
            nic0.post_send(frame(size=100 + i, payload=i))
        sim.run()
        assert got == list(range(10))

    def test_bidirectional_links(self, sim):
        cluster = make_cluster(sim)
        got0, got1 = [], []
        cluster.node(0).nic().set_receive_handler(lambda f: got0.append(f.payload))
        cluster.node(1).nic().set_receive_handler(lambda f: got1.append(f.payload))
        cluster.node(0).nic().post_send(frame(0, 1, payload="a"))
        cluster.node(1).nic().post_send(frame(1, 0, payload="b"))
        sim.run()
        assert got0 == ["b"] and got1 == ["a"]

    def test_full_duplex_rx_does_not_block_tx(self, sim):
        # Node 0 streams to node 1 while node 1 streams to node 0; total
        # time must be ~one direction's time, not the sum.
        cluster = make_cluster(sim)
        n = 20
        for src, dst in ((0, 1), (1, 0)):
            nic = cluster.node(src).nic()
            for _ in range(n):
                nic.post_send(frame(src, dst, size=10_000))
        cluster.node(0).nic().set_receive_handler(lambda f: None)
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        end = sim.run()
        p = MX_MYRI10G
        one_way_serialization = n * 10_000 / p.bandwidth_mbps
        assert end < 1.5 * one_way_serialization + 20.0

    def test_no_handler_raises(self, sim):
        cluster = make_cluster(sim)
        cluster.node(0).nic().post_send(frame())
        with pytest.raises(NetworkError, match="no receive handler"):
            sim.run()

    def test_wrong_src_node_rejected(self, sim):
        cluster = make_cluster(sim)
        with pytest.raises(NetworkError, match="src node"):
            cluster.node(0).nic().post_send(frame(src=1, dst=0))

    def test_unconnected_destination_rejected(self, sim):
        cluster = make_cluster(sim)
        with pytest.raises(NetworkError, match="no link"):
            cluster.node(0).nic().post_send(frame(dst=7))

    def test_negative_cpu_gap_rejected(self, sim):
        cluster = make_cluster(sim)
        with pytest.raises(NetworkError):
            cluster.node(0).nic().post_send(frame(), cpu_gap_us=-1.0)


class TestBusyIdle:
    def test_nic_busy_during_tx(self, sim):
        cluster = make_cluster(sim)
        nic = cluster.node(0).nic()
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        assert nic.idle
        nic.post_send(frame(size=100_000))
        assert not nic.idle
        sim.run()
        assert nic.idle

    def test_idle_callback_fires_after_each_drain(self, sim):
        cluster = make_cluster(sim)
        nic = cluster.node(0).nic()
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        idles = []
        nic.add_idle_callback(lambda n: idles.append(sim.now))
        nic.post_send(frame(size=1000))
        sim.run()
        assert len(idles) == 1
        nic.post_send(frame(size=1000))
        sim.run()
        assert len(idles) == 2

    def test_idle_callback_skipped_if_requeued_meanwhile(self, sim):
        # A send posted at the exact drain instant must suppress the stale
        # idle notification (the callback checks nic.idle).
        cluster = make_cluster(sim)
        nic = cluster.node(0).nic()
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        calls = []
        nic.add_idle_callback(lambda n: calls.append(n.idle))
        done = nic.post_send(frame(size=1000))
        done.add_callback(lambda e: nic.post_send(frame(size=1000)))
        sim.run()
        # Two drains happened; callbacks only ever observed a truly idle NIC.
        assert all(calls)

    def test_unwanted_idle_edge_schedules_nothing(self):
        # With nobody registered a transmission is four kernel entries (tx
        # finish, tx-done, link delivery, receive handler).  A registrant
        # whose predicate says no adds none; one without a predicate — or
        # whose predicate says yes — adds exactly the queued idle hop.
        def entries(register):
            s = Simulator()
            cluster = make_cluster(s)
            nic = cluster.node(0).nic()
            cluster.node(1).nic().set_receive_handler(lambda f: None)
            calls = []
            register(nic, calls)
            nic.post_send(frame(size=1000))
            s.run()
            return s.events_processed, len(calls)

        bare, _ = entries(lambda nic, calls: None)
        assert entries(lambda nic, calls: nic.add_idle_callback(
            calls.append, wanted=lambda: False)) == (bare, 0)
        assert entries(lambda nic, calls: nic.add_idle_callback(
            calls.append, wanted=lambda: True)) == (bare + 1, 1)
        assert entries(lambda nic, calls: nic.add_idle_callback(
            calls.append)) == (bare + 1, 1)

    def test_idle_predicate_is_asked_at_the_edge_itself(self, sim):
        # Not at registration and not when the hop is dispatched: the
        # answer may change from one drain to the next.
        cluster = make_cluster(sim)
        nic = cluster.node(0).nic()
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        want = [False]
        asked, idles = [], []
        nic.add_idle_callback(
            lambda n: idles.append(sim.now),
            wanted=lambda: asked.append(sim.now) or want[0])
        nic.post_send(frame(size=1000))
        sim.run()
        assert len(asked) == 1 and idles == []
        want[0] = True
        nic.post_send(frame(size=1000))
        sim.run()
        assert len(asked) == 2 and idles == [asked[1]]

    def test_an_edge_one_registrant_wants_reaches_all_of_them(self, sim):
        cluster = make_cluster(sim)
        nic = cluster.node(0).nic()
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        calls = []
        nic.add_idle_callback(lambda n: calls.append("a"),
                              wanted=lambda: False)
        nic.add_idle_callback(lambda n: calls.append("b"))
        nic.post_send(frame(size=1000))
        sim.run()
        assert calls == ["a", "b"]

    def test_crash_forgets_the_idle_predicate_with_the_callback(self, sim):
        cluster = make_cluster(sim)
        nic = cluster.node(0).nic()
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        asked = []
        nic.add_idle_callback(lambda n: asked.append("old fn"),
                              wanted=lambda: asked.append("old") or True)
        nic.crash()
        nic.restart()
        idles = []
        nic.add_idle_callback(lambda n: idles.append(sim.now))
        nic.post_send(frame(size=1000))
        sim.run()
        # The dead incarnation's predicate is neither consulted nor allowed
        # to veto the new registrant's edge.
        assert asked == [] and len(idles) == 1

    def test_pipelined_burst_uses_gap_not_full_overhead(self, sim):
        # A queued burst must be faster than the same frames sent one at a
        # time with a full injection overhead each (MPICH's efficient
        # pipelining from paper 5.2).
        p = MX_MYRI10G.with_overrides(pipeline_gap_us=0.1, send_overhead_us=2.0)
        sim1 = Simulator()
        c1 = make_cluster(sim1, rails=(p,))
        c1.node(1).nic().set_receive_handler(lambda f: None)
        n = 10
        for _ in range(n):
            c1.node(0).nic().post_send(
                Frame(src_node=0, dst_node=1, kind="data", wire_size=64,
                      payload_size=64))
        t_burst = sim1.run()
        per_frame_solo = p.send_overhead_us + 64 / p.bandwidth_mbps
        t_solo = n * per_frame_solo
        assert t_burst < t_solo

    def test_busy_time_accounting(self, sim):
        cluster = make_cluster(sim)
        nic = cluster.node(0).nic()
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        nic.post_send(frame(size=125_000))  # 100us at 1250MB/s
        sim.run()
        assert nic.busy_time == pytest.approx(
            MX_MYRI10G.send_overhead_us + 125_000 / MX_MYRI10G.bandwidth_mbps
        )

    def test_stats_counters(self, sim):
        cluster = make_cluster(sim)
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        nic0 = cluster.node(0).nic()
        for _ in range(3):
            nic0.post_send(frame(size=500))
        sim.run()
        assert nic0.frames_sent == 3
        assert nic0.bytes_sent == 1500
        assert cluster.node(1).nic().frames_received == 3
        assert cluster.node(1).nic().bytes_received == 1500


class TestTopology:
    def test_multi_rail_cluster(self, sim):
        cluster = make_cluster(sim, rails=(MX_MYRI10G, QUADRICS_QM500))
        assert len(cluster.node(0).nics) == 2
        assert cluster.node(0).nic(1).profile is QUADRICS_QM500
        assert cluster.rail_index("elan") == 1
        assert cluster.rail_index("mx_myri10g") == 0

    def test_rail_index_unknown(self, sim):
        cluster = make_cluster(sim)
        with pytest.raises(NetworkError):
            cluster.rail_index("infiniband")

    def test_three_node_full_mesh(self, sim):
        cluster = make_cluster(sim, n_nodes=3)
        got = []
        for node in cluster.nodes:
            node.nic().set_receive_handler(
                lambda f, nid=node.node_id: got.append((f.src_node, nid)))
        cluster.node(0).nic().post_send(frame(0, 2))
        cluster.node(2).nic().post_send(frame(2, 1))
        sim.run()
        assert sorted(got) == [(0, 2), (2, 1)]

    def test_rails_are_independent(self, sim):
        cluster = make_cluster(sim, rails=(MX_MYRI10G, TCP_GIGE))
        arrivals = {}
        for rail in (0, 1):
            cluster.node(1).nic(rail).set_receive_handler(
                lambda f, r=rail: arrivals.setdefault(r, sim.now))
        for rail in (0, 1):
            cluster.node(0).nic(rail).post_send(frame(size=10_000))
        sim.run()
        assert arrivals[0] < arrivals[1]  # MX far faster than TCP

    def test_cluster_validation(self, sim):
        with pytest.raises(NetworkError):
            Cluster(sim, n_nodes=1, rails=(MX_MYRI10G,))
        with pytest.raises(NetworkError):
            Cluster(sim, n_nodes=2, rails=())
        cluster = make_cluster(sim)
        with pytest.raises(NetworkError):
            cluster.node(9)

    def test_node_nic_validation(self, sim):
        cluster = make_cluster(sim)
        with pytest.raises(NetworkError):
            cluster.node(0).nic(3)

    def test_tracer_sees_tx_rx(self, sim):
        tracer = Tracer(enabled=True)
        cluster = make_cluster(sim, tracer=tracer)
        cluster.node(1).nic().set_receive_handler(lambda f: None)
        cluster.node(0).nic().post_send(frame(size=100))
        sim.run()
        kinds = {r.kind for r in tracer}
        assert {"tx_start", "tx_done", "wire_enter", "wire_exit",
                "rx_start", "rx_done", "idle"} <= kinds


class TestProfileValidation:
    def test_profile_rejects_bad_values(self):
        with pytest.raises(ValueError):
            NicProfile(name="x", tech="x", latency_us=-1, bandwidth_mbps=100,
                       send_overhead_us=0, recv_overhead_us=0, mtu_bytes=1000,
                       rdv_threshold=1000, gather_scatter=False, rdma=False,
                       pipeline_gap_us=0)
        with pytest.raises(ValueError):
            NicProfile(name="x", tech="x", latency_us=1, bandwidth_mbps=100,
                       send_overhead_us=0, recv_overhead_us=0, mtu_bytes=0,
                       rdv_threshold=1000, gather_scatter=False, rdma=False,
                       pipeline_gap_us=0)

    def test_with_overrides(self):
        p = MX_MYRI10G.with_overrides(bandwidth_mbps=100.0)
        assert p.bandwidth_mbps == 100.0
        assert p.latency_us == MX_MYRI10G.latency_us
        assert MX_MYRI10G.bandwidth_mbps == 1250.0  # original untouched

    def test_profile_lookup(self):
        from repro.netsim import profile_by_name

        assert profile_by_name("mx_myri10g") is MX_MYRI10G
        with pytest.raises(KeyError):
            profile_by_name("nope")
