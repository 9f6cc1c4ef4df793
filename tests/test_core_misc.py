"""Small-surface tests: errors, headers, wraps, collect layer bookkeeping."""

import pytest

from repro.core import HeaderSpec, NmadEngine, PhysPacket, SegItem, VirtualData
from repro.core.collect import CONTROL_FLOW
from repro.core.packet import PacketWrap, RdvAckItem, RdvDataItem, RdvReqItem
from repro.errors import (
    DatatypeError,
    MpiError,
    NetworkError,
    ProtocolError,
    ReproError,
    SimulationError,
    StrategyError,
)
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator


class TestErrorHierarchy:
    @pytest.mark.parametrize("exc", [
        SimulationError, NetworkError, ProtocolError, StrategyError,
        DatatypeError, MpiError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_catching_base_catches_all(self):
        try:
            raise StrategyError("x")
        except ReproError:
            pass


class TestHeaderSpec:
    def test_defaults_positive(self):
        hdr = HeaderSpec()
        assert hdr.global_header > 0
        assert hdr.seg_header > 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HeaderSpec(global_header=-1)
        with pytest.raises(ValueError):
            HeaderSpec(rdv_req=-5)

    def test_wire_size_composition(self):
        hdr = HeaderSpec(global_header=10, seg_header=5, rdv_req=7,
                         rdv_ack=3, rdv_data_header=9)
        pkt = PhysPacket([
            SegItem(src=0, flow=0, tag=0, seq=0, data=VirtualData(100)),
            RdvReqItem(src=0, flow=0, tag=0, seq=1, handle=1, nbytes=10_000),
            RdvAckItem(src=0, handle=2),
            RdvDataItem(src=0, handle=3, offset=0, total=50,
                        data=VirtualData(50)),
        ])
        assert pkt.sizes(hdr) == (10 + (5 + 100) + 7 + 3 + (9 + 50), 150, 1)


class TestPacketWrap:
    def test_validation(self):
        with pytest.raises(ValueError):
            PacketWrap(dest=-1, flow=0, tag=0, seq=0, wrap_id=1,
                       data=VirtualData(1))
        with pytest.raises(ValueError):
            PacketWrap(dest=1, flow=0, tag=0, seq=-1, wrap_id=1,
                       data=VirtualData(1))

    def test_wrap_ids_unique_and_increasing(self):
        # Each engine's collect layer numbers its wraps 1, 2, 3, ...,
        # control wraps (here a cancel's tombstone) included; another
        # engine's count is its own.
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        e0, e1 = NmadEngine(cluster.node(0)), NmadEngine(cluster.node(1))
        first = e0.isend(1, b"a")
        assert first.wrap.wrap_id == 1
        assert e0.cancel(first)                      # tombstone: wrap 2
        assert e0.isend(1, b"b").wrap.wrap_id == 3
        assert e1.isend(0, b"c").wrap.wrap_id == 1
        sim.run()
        assert e0.transfer.sent_wraps.issued == 3
        with pytest.raises(TypeError):   # every construction names its id
            PacketWrap(dest=1, flow=0, tag=0, seq=0, data=VirtualData(1))

    def test_length_is_payload_bytes(self):
        w = PacketWrap(dest=1, flow=0, tag=0, seq=0, wrap_id=1,
                       data=VirtualData(77))
        assert w.length == 77


class TestCollectLayer:
    def _engine_pair(self):
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        return sim, NmadEngine(cluster.node(0)), NmadEngine(cluster.node(1))

    def test_seq_numbers_independent_per_dest_flow(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        e0 = NmadEngine(cluster.node(0))
        for node in (1, 2):
            NmadEngine(cluster.node(node))
        assert e0.collect.next_seq(1, 0) == 0
        e0.isend(1, b"a", flow=0)
        e0.isend(1, b"b", flow=0)
        e0.isend(1, b"c", flow=5)
        e0.isend(2, b"d", flow=0)
        assert e0.collect.next_seq(1, 0) == 2
        assert e0.collect.next_seq(1, 5) == 1
        assert e0.collect.next_seq(2, 0) == 1
        sim.run()

    def test_control_flow_reserved(self):
        sim, e0, _ = self._engine_pair()
        with pytest.raises(NetworkError, match="reserved"):
            e0.isend(1, b"x", flow=CONTROL_FLOW)

    def test_control_wraps_do_not_consume_seq(self):
        sim, e0, e1 = self._engine_pair()

        def app():
            # A rendezvous exchange generates an ACK control wrap on e1.
            req = e1.irecv(src=0, tag=0)
            e0.isend(1, VirtualData(100_000), tag=0)
            yield req.done

        sim.run_process(app())
        # e1 sent a grant but its data seq space towards node 0 is untouched.
        assert e1.collect.next_seq(0, 0) == 0

    def test_ack_overtakes_queued_data(self):
        # A grant submitted while data wraps wait must lead the next packet
        # (control priority) so the peer's bulk can start streaming.
        sim, e0, e1 = self._engine_pair()
        from repro.core import AggregationStrategy

        e1.set_strategy(AggregationStrategy(by_priority=True))

        def app():
            r_big = e1.irecv(src=0, tag=0)
            e0.isend(1, VirtualData(100_000), tag=0)    # rdv announce
            # Meanwhile e1 queues a pile of its own data to e0.
            for i in range(6):
                e0_req = e1.isend(0, VirtualData(2048), tag=i)
                e0.irecv(src=1, tag=i)
            yield r_big.done
            return sim.now

        t = sim.run_process(app())
        assert e0.quiesced() and e1.quiesced()

    def test_stats_dataclass_fields(self):
        sim, e0, e1 = self._engine_pair()

        def app():
            r = e1.irecv(src=0)
            e0.isend(1, b"stats")
            yield r.done

        sim.run_process(app())
        s = e0.stats
        assert s.phys_packets == 1
        assert s.items_sent == 1
        assert s.eager_bytes == 5
        assert s.wire_bytes > s.eager_bytes
        assert s.rdv_bytes == 0
        assert s.anticipated_hits == 0
