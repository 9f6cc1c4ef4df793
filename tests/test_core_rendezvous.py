"""Focused tests for the rendezvous manager (protocol state machines)."""

import pytest

from repro.core import EngineParams, NmadEngine, VirtualData
from repro.core.data import Bytes
from repro.core.packet import RdvAckItem, RdvDataItem, RdvReqItem
from repro.core.rendezvous import RdvRecvState
from repro.core.requests import RecvRequest, SendRequest
from repro.errors import ProtocolError
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator


def make_engines(params=None):
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G,))
    e0 = NmadEngine(cluster.node(0), params=params)
    e1 = NmadEngine(cluster.node(1), params=params)
    return sim, e0, e1


class TestSenderSide:
    def test_announce_assigns_unique_handles(self):
        sim, e0, _ = make_engines()
        from repro.core.packet import PacketWrap

        wraps = [PacketWrap(dest=1, flow=0, tag=0, seq=i, wrap_id=i + 1,
                            data=VirtualData(100_000)) for i in range(5)]
        handles = {e0.rendezvous.announce(w, rail=0).handle for w in wraps}
        assert len(handles) == 5
        assert e0.rendezvous.n_pending == 5

    def test_ack_for_unknown_handle_raises(self):
        sim, e0, _ = make_engines()
        with pytest.raises(ProtocolError, match="unknown"):
            e0.rendezvous.on_ack(RdvAckItem(src=1, handle=777))

    def test_bulk_for_unknown_handle_raises(self):
        sim, e0, _ = make_engines()
        with pytest.raises(ProtocolError, match="unknown rendezvous"):
            e0.rendezvous.on_data(RdvDataItem(src=1, handle=9, offset=0,
                                              total=10, data=VirtualData(10)))

    def test_next_chunk_respects_chunk_size(self):
        params = EngineParams(rdv_chunk_bytes=1000)
        sim, e0, _ = make_engines(params=params)
        from repro.core.packet import PacketWrap

        wrap = PacketWrap(dest=1, flow=0, tag=0, seq=0, wrap_id=1,
                          data=VirtualData(2500))
        req_item = e0.rendezvous.announce(wrap, rail=0)
        e0.rendezvous.on_ack(RdvAckItem(src=1, handle=req_item.handle))
        chunks = []
        while True:
            out = e0.rendezvous.next_chunk(0, multirail=False)
            if out is None:
                break
            chunks.append(out[1])
        assert [c.data.nbytes for c in chunks] == [1000, 1000, 500]
        assert [c.offset for c in chunks] == [0, 1000, 2000]

    def test_completion_fires_after_all_chunks_sent(self):
        params = EngineParams(rdv_chunk_bytes=1000)
        sim, e0, _ = make_engines(params=params)
        from repro.core.packet import PacketWrap

        req = SendRequest(sim, dest=1, flow=0, tag=0)
        req.wrap = wrap = PacketWrap(dest=1, flow=0, tag=0, seq=0, wrap_id=1,
                                     data=VirtualData(2000), completion=req)
        item = e0.rendezvous.announce(wrap, rail=0)
        e0.rendezvous.on_ack(RdvAckItem(src=1, handle=item.handle))
        state, c1 = e0.rendezvous.next_chunk(0, multirail=False)
        state, c2 = e0.rendezvous.next_chunk(0, multirail=False)
        e0.rendezvous.chunk_sent(state, c1)
        assert not req.triggered and req.wrap is wrap
        e0.rendezvous.chunk_sent(state, c2)
        assert req.complete and not req.failed and req.wrap is None


class TestReceiverSide:
    def _state(self, total=1000, capacity=None):
        sim = Simulator()
        req = RecvRequest(sim, src=0, flow=0, tag=0, capacity=capacity)
        return RdvRecvState(req, src=0, handle=1, total=total, tag=3)

    def test_out_of_range_chunk_rejected(self):
        state = self._state(total=100)
        with pytest.raises(ProtocolError, match="outside"):
            state.land(90, VirtualData(20))
        with pytest.raises(ProtocolError, match="outside"):
            state.land(-1, VirtualData(5))

    def test_overrun_rejected(self):
        state = self._state(total=100)
        state.land(0, VirtualData(60))
        state.land(60, VirtualData(40))
        with pytest.raises(ProtocolError):
            state.land(0, VirtualData(1))

    def test_assemble_requires_completion(self):
        state = self._state(total=100)
        state.land(0, VirtualData(50))
        with pytest.raises(ProtocolError, match="incomplete"):
            state.assemble()

    def test_assemble_real_bytes_out_of_order(self):
        state = self._state(total=6)
        state.land(3, Bytes(b"DEF"))
        state.land(0, Bytes(b"ABC"))
        assert state.assemble().tobytes() == b"ABCDEF"

    def test_assemble_virtual_if_any_virtual(self):
        state = self._state(total=6)
        state.land(0, Bytes(b"ABC"))
        state.land(3, VirtualData(3))
        out = state.assemble()
        assert isinstance(out, VirtualData)
        assert out.nbytes == 6

    def test_duplicate_grant_rejected(self):
        sim, e0, e1 = make_engines()
        item = RdvReqItem(src=0, flow=0, tag=0, seq=0, handle=1,
                          nbytes=100_000)
        req = RecvRequest(sim, src=0, flow=0, tag=0, capacity=None)
        e1.rendezvous.grant(item, req)
        with pytest.raises(ProtocolError, match="duplicate"):
            e1.rendezvous.grant(item, req)


class TestReplayAboveTheTransport:
    """Every configuration raises where paper mode does (``replay_pair``
    is parametrized in conftest): no layer above the transport forgives a
    replayed grant or chunk."""

    @staticmethod
    def _granted(sim, e1, total):
        item = RdvReqItem(src=0, flow=0, tag=0, seq=0, handle=1, nbytes=total)
        req = RecvRequest(sim, src=0, flow=0, tag=0, capacity=None)
        e1.rendezvous.grant(item, req)
        return item, req

    def test_second_grant_for_one_handle(self, replay_pair):
        sim, _, e1 = replay_pair
        item, req = self._granted(sim, e1, 100_000)
        with pytest.raises(ProtocolError, match="duplicate rendezvous grant"):
            e1.rendezvous.grant(item, req)

    def test_ack_for_unknown_handle(self, replay_pair):
        _, e0, _ = replay_pair
        with pytest.raises(ProtocolError, match="ACK for unknown handle"):
            e0.rendezvous.on_ack(RdvAckItem(src=1, handle=777))

    def test_data_for_unknown_transfer(self, replay_pair):
        _, _, e1 = replay_pair
        with pytest.raises(ProtocolError, match="unknown rendezvous"):
            e1.rendezvous.on_data(RdvDataItem(src=0, handle=9, offset=0,
                                              total=10, data=VirtualData(10)))

    def test_chunk_landed_twice_is_never_assembled(self, replay_pair):
        # Chunks 0, 0, 2: the byte count reaches the total, the offsets do
        # not tile it.
        sim, _, e1 = replay_pair
        _, req = self._granted(sim, e1, 3000)
        first = RdvDataItem(src=0, handle=1, offset=0, total=3000,
                            data=Bytes(b"a" * 1000))
        e1.rendezvous.on_data(first)
        e1.rendezvous.on_data(first)  # the replay
        with pytest.raises(ProtocolError, match="do not tile"):
            e1.rendezvous.on_data(RdvDataItem(src=0, handle=1, offset=2000,
                                              total=3000,
                                              data=Bytes(b"c" * 1000)))
        assert not req.triggered


class TestEndToEndEdgeCases:
    def test_two_concurrent_rendezvous_same_peer(self):
        sim, e0, e1 = make_engines()
        a = bytes(b % 256 for b in range(100_000))
        b = bytes((b * 7) % 256 for b in range(150_000))

        def app():
            r1 = e1.irecv(src=0, tag=1)
            r2 = e1.irecv(src=0, tag=2)
            e0.isend(1, a, tag=1)
            e0.isend(1, b, tag=2)
            yield sim.all_of([r1.done, r2.done])
            return r1, r2

        r1, r2 = sim.run_process(app())
        assert r1.data.tobytes() == a
        assert r2.data.tobytes() == b
        assert e0.quiesced() and e1.quiesced()

    def test_bidirectional_rendezvous(self):
        sim, e0, e1 = make_engines()
        size = 200_000

        def app():
            r0 = e0.irecv(src=1, tag=0)
            r1 = e1.irecv(src=0, tag=0)
            e0.isend(1, VirtualData(size), tag=0)
            e1.isend(0, VirtualData(size), tag=0)
            yield sim.all_of([r0.done, r1.done])
            return sim.now

        sim.run_process(app())
        assert e0.quiesced() and e1.quiesced()

    def test_rdv_exactly_at_threshold_is_eager(self):
        sim, e0, e1 = make_engines()
        thr = MX_MYRI10G.rdv_threshold

        def app():
            r = e1.irecv(src=0, tag=0)
            e0.isend(1, VirtualData(thr), tag=0)
            yield r.done

        sim.run_process(app())
        assert e0.rendezvous.handshakes == 0

        sim2, f0, f1 = make_engines()

        def app2():
            r = f1.irecv(src=0, tag=0)
            f0.isend(1, VirtualData(thr + 1), tag=0)
            yield r.done

        sim2.run_process(app2())
        assert f0.rendezvous.handshakes == 1

    def test_many_rdv_recvs_posted_before_any_send(self):
        sim, e0, e1 = make_engines()
        n = 6

        def app():
            recvs = [e1.irecv(src=0, tag=i) for i in range(n)]
            yield sim.timeout(10.0)
            for i in range(n):
                e0.isend(1, VirtualData(64 * 1024), tag=i)
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        assert e0.rendezvous.handshakes == n
        assert e1.rendezvous.n_incoming == 0
