"""Tests for the baseline MPI models (MPICH / OpenMPI behaviour)."""

import dataclasses

import pytest

from repro.baselines import (
    MPICH_MX,
    MPICH_QUADRICS,
    OPENMPI_MX,
    BaselineParams,
    MpichMpi,
    OpenMpi,
)
from repro.core import VirtualData
from repro.errors import MpiError, ProtocolError
from repro.madmpi import (
    ANY, Communicator, Indexed, MpiRecv, MpiRequest, MpiSend,
    indexed_small_large,
)
from repro.netsim import Cluster, FaultPlan, MX_MYRI10G, QUADRICS_QM500
from repro.sim import Event, Simulator


def make_pair(cls=MpichMpi, rails=(MX_MYRI10G,), params=None):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=2, rails=rails)
    world = Communicator([0, 1])
    mpis = [cls(cluster.node(i), world, params=params) for i in range(2)]
    return sim, cluster, mpis


class TestEager:
    def test_roundtrip_bytes(self):
        sim, cluster, (m0, m1) = make_pair()

        def app():
            m0.isend(b"hello mpich", dest=1, tag=2)
            req = yield from m1.recv(source=0, tag=2)
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"hello mpich"
        assert req.source == 0 and req.tag == 2 and req.count == 11
        assert cluster.conservation_ok()

    def test_one_frame_per_message(self):
        sim, _, (m0, m1) = make_pair()

        def app():
            recvs = [m1.irecv(source=0, tag=i) for i in range(10)]
            for i in range(10):
                m0.isend(VirtualData(64), dest=1, tag=i)
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        # Direct mapping: no coalescing, ever.
        assert m0.frames_sent == 10

    def test_ordering_preserved(self):
        sim, _, (m0, m1) = make_pair()

        def app():
            for i in range(20):
                m0.isend(bytes([i]), dest=1, tag=0)
            out = []
            for _ in range(20):
                req = yield from m1.recv(source=0, tag=0)
                out.append(req.data.tobytes()[0])
            return out

        assert sim.run_process(app()) == list(range(20))

    def test_truncation(self):
        sim, _, (m0, m1) = make_pair()

        def app():
            req = m1.irecv(source=0, nbytes=2)
            m0.isend(b"too long", dest=1)
            try:
                yield req.done
            except MpiError as exc:
                return str(exc)

        assert "truncation" in sim.run_process(app())

    def test_wildcard_recv(self):
        sim, _, (m0, m1) = make_pair()

        def app():
            m0.isend(b"w", dest=1, tag=42)
            req = yield from m1.recv(source=ANY, tag=ANY)
            return req

        req = sim.run_process(app())
        assert req.tag == 42

    def test_self_send_rejected(self):
        _, _, (m0, _) = make_pair()
        with pytest.raises(MpiError, match="self-send"):
            m0.isend(b"x", dest=0)


class TestDirectMapping:
    """The baselines hand out the same handles as MAD-MPI: the request is
    its own completion event, status read off it on demand."""

    @staticmethod
    def status(req):
        data = req.data
        return (req.source, req.tag, req.count,
                None if data is None else data.tobytes())

    def make_trio(self, cls=MpichMpi):
        # World ranks 0, 1, 2 live on nodes 2, 0, 1.
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        world = Communicator([2, 0, 1])
        by_rank = {world.rank_of(n): cls(cluster.node(n), world)
                   for n in range(3)}
        return sim, world, [by_rank[r] for r in range(3)]

    @pytest.mark.parametrize("cls", [MpichMpi, OpenMpi])
    def test_status_in_callback_and_after_wait(self, cls):
        sim, _, (m0, m1) = make_pair(cls)
        seen = []

        def app():
            early = m1.irecv(source=ANY, tag=ANY)
            assert self.status(early) == (None, None, None, None)
            assert not early.complete and not hasattr(early, "__dict__")
            early.done.add_callback(
                lambda evt: seen.append((evt.ok, self.status(early))))
            for tag in (1, 2, 3):
                m0.isend(bytes([tag]) * tag, dest=1, tag=tag)
            blocking = yield from m1.recv(source=0, tag=2)
            both = yield from m1.wait_all([early, m1.irecv(source=0, tag=3)])
            return [blocking] + both

        got = sim.run_process(app())
        assert seen == [(True, (0, 1, 1, b"\x01"))]
        assert [self.status(r) for r in got] == [
            (0, 2, 2, b"\x02\x02"), (0, 1, 1, b"\x01"),
            (0, 3, 3, b"\x03\x03\x03")]
        assert all(len(r.block_data) == 0 for r in got)

    @pytest.mark.parametrize("cls", [MpichMpi, OpenMpi])
    def test_handles_are_their_own_completion_event(self, cls):
        sim, _, (m0, m1) = make_pair(cls)
        dtype = Indexed([2, 2], [0, 4])
        rreq, sreq = m1.irecv(source=0, tag=1), m0.isend(b"ab", dest=1, tag=1)
        typed = m1.irecv(source=0, tag=2, datatype=dtype)
        packed = m0.isend(bytes(dtype.extent), dest=1, tag=2, datatype=dtype)
        assert type(rreq) is MpiRecv and type(sreq) is MpiSend
        assert type(typed) is MpiRequest and type(packed) is MpiSend
        for req in (rreq, sreq, typed, packed):
            assert isinstance(req, Event) and req.done is req
            assert not hasattr(req, "__dict__")
        assert (sreq.kind, rreq.kind, typed.kind) == ("send", "recv", "recv")
        assert sreq.datatype is None and len(sreq.block_data) == 0
        assert sreq.wrap is None   # no engine underneath, no packet wrap

        def app():
            yield rreq                      # the short form
            yield sreq.done                 # the long one: same object
            idx, first = yield from m1.wait_any(
                [m1.irecv(source=0, tag=99), typed])
            assert (idx, first) == (1, typed)
            yield from m0.wait_all([sreq, packed])
            again = yield from m1.sendrecv(b"pong", dest=0, source=0,
                                           sendtag=4, recvtag=3)
            return again

        def peer():
            yield from m0.sendrecv(b"ping", dest=1, source=1, sendtag=3,
                                   recvtag=4)

        sim.spawn(peer())
        again = sim.run_process(app())
        assert self.status(rreq) == (0, 1, 2, b"ab")
        assert self.status(sreq) == self.status(packed) == (None,) * 4
        assert (typed.source, typed.tag, typed.count) == (0, 2, 4)
        assert self.status(again) == (0, 3, 4, b"ping")
        with pytest.raises(MpiError, match="untyped"):
            rreq.scatter_into(bytearray(4))

    def test_source_is_a_rank_of_the_requests_communicator(self):
        sim, world, (m0, m1, m2) = self.make_trio()
        dup = world.dup()
        assert m0.node.node_id == 2 and m2.node.node_id == 1
        reqs = [m2.irecv(source=ANY, tag=ANY, comm=world),
                m2.irecv(source=0, tag=5, comm=dup),
                m2.irecv(source=ANY, tag=ANY, comm=world)]
        m0.isend(b"w", dest=2, tag=4, comm=world)
        m0.isend(b"d", dest=2, tag=5, comm=dup)
        sim.run()
        m1.isend(b"x", dest=2, tag=6, comm=world)
        sim.run()
        # Ranks, not node ids (the senders are nodes 2 and 0); a wildcard
        # reports what actually arrived.
        assert [self.status(r) for r in reqs] == [
            (0, 4, 1, b"w"), (0, 5, 1, b"d"), (1, 6, 1, b"x")]

    def test_typed_receive_keeps_blocks_and_packed_stream(self):
        sim, _, (m0, m1) = make_pair()
        dtype = Indexed([3, 5], [0, 6])
        buf = bytes(range(dtype.extent))
        typed = m1.irecv(source=0, tag=1, datatype=dtype)
        assert self.status(typed) == (None, None, None, None)
        assert len(typed.block_data) == 0
        m0.isend(buf, dest=1, tag=1, datatype=dtype)
        sim.run()
        packed = buf[0:3] + buf[6:11]
        assert self.status(typed) == (0, 1, 8, packed)
        assert [d.tobytes() for d in typed.block_data] == [buf[0:3], buf[6:11]]
        out = bytearray(dtype.extent)
        typed.scatter_into(out)
        assert out[0:3] == buf[0:3] and out[6:11] == buf[6:11]


class TestRendezvous:
    def test_large_contiguous_roundtrip(self):
        sim, _, (m0, m1) = make_pair()
        payload = bytes(i % 256 for i in range(200_000))

        def app():
            req = m1.irecv(source=0, tag=5)
            m0.isend(payload, dest=1, tag=5)
            yield req.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert m0.rdv_handshakes == 1

    def test_rdv_waits_for_receiver(self):
        sim, _, (m0, m1) = make_pair()

        def app():
            sreq = m0.isend(VirtualData(100_000), dest=1, tag=1)
            yield sim.timeout(300.0)
            assert not sreq.complete
            req = m1.irecv(source=0, tag=1)
            yield req.done
            yield sreq.done
            return True

        assert sim.run_process(app())

    def test_eager_threshold_respected(self):
        params = BaselineParams(name="t", sw_overhead_us=0.1, header_bytes=8,
                                eager_threshold=1000)
        sim, _, (m0, m1) = make_pair(params=params)

        def app():
            r1 = m1.irecv(source=0, tag=1)
            r2 = m1.irecv(source=0, tag=2)
            m0.isend(VirtualData(1000), dest=1, tag=1)   # eager
            m0.isend(VirtualData(1001), dest=1, tag=2)   # rendezvous
            yield sim.all_of([r1.done, r2.done])

        sim.run_process(app())
        assert m0.rdv_handshakes == 1

    def test_chunk_landing_twice_does_not_tile(self):
        # Two equal chunks; the wire delivers the first one twice, so the
        # byte count completes while the second half never arrived.
        params = dataclasses.replace(MPICH_MX, rdv_chunk_bytes=100_000)
        sim, cluster, (m0, m1) = make_pair(params=params)
        link = next(l for l in cluster.links if l.src.node_id == 0)
        link.fault_plan = FaultPlan(dup_nth=(2,))  # rdv_req, then chunk 1

        def app():
            req = m1.irecv(source=0, tag=5)
            m0.isend(bytes(range(200)) * 1000, dest=1, tag=5)
            yield req.done

        with pytest.raises(ProtocolError, match="do not tile"):
            sim.run_process(app())


class TestDatatypes:
    def test_typed_roundtrip_content(self):
        sim, _, (m0, m1) = make_pair()
        dtype = Indexed([4, 4], [0, 8])
        buf = bytes(range(dtype.extent))

        def app():
            rreq = m1.irecv(source=0, datatype=dtype)
            m0.isend(buf, dest=1, datatype=dtype)
            yield rreq.done
            return rreq

        rreq = sim.run_process(app())
        out = bytearray(dtype.extent)
        rreq.scatter_into(out)
        for disp, length in dtype.flatten():
            assert out[disp:disp + length] == buf[disp:disp + length]

    def test_pack_unpack_cost_charged(self):
        # A typed exchange must be slower than a contiguous exchange of the
        # same byte count: that delta is the pack+unpack the paper blames.
        dtype = indexed_small_large(repeats=2)  # ~512KB

        def run(typed):
            sim, _, (m0, m1) = make_pair()

            def app():
                if typed:
                    r = m1.irecv(source=0, datatype=dtype)
                    m0.isend(VirtualData(dtype.extent), dest=1, datatype=dtype)
                else:
                    r = m1.irecv(source=0)
                    m0.isend(VirtualData(dtype.size), dest=1)
                yield r.done
                return sim.now

            return sim.run_process(app())

        t_typed, t_flat = run(True), run(False)
        assert t_typed > t_flat * 1.5

    def test_openmpi_pipeline_beats_mpich_pack(self):
        # Chunked pack/send overlap must beat pack-all-then-send for a
        # large noncontiguous message (the Figure-4 baseline ordering).
        dtype = indexed_small_large(repeats=4)  # ~1MB

        def run(cls):
            sim, _, (m0, m1) = make_pair(cls=cls)

            def app():
                r = m1.irecv(source=0, datatype=dtype)
                m0.isend(VirtualData(dtype.extent), dest=1, datatype=dtype)
                yield r.done
                return sim.now

            return sim.run_process(app())

        assert run(OpenMpi) < run(MpichMpi)

    def test_small_typed_message_stays_eager(self):
        sim, _, (m0, m1) = make_pair()
        dtype = Indexed([16, 16], [0, 32])

        def app():
            r = m1.irecv(source=0, datatype=dtype)
            m0.isend(VirtualData(dtype.extent), dest=1, datatype=dtype)
            yield r.done

        sim.run_process(app())
        assert m0.rdv_handshakes == 0
        assert m0.frames_sent == 1  # one packed transaction


class TestProfilesAndParams:
    def test_default_params_follow_nic_tech(self):
        _, _, (mx0, _) = make_pair(rails=(MX_MYRI10G,))
        assert mx0.params is MPICH_MX
        _, _, (q0, _) = make_pair(rails=(QUADRICS_QM500,))
        assert q0.params is MPICH_QUADRICS

    def test_openmpi_heavier_than_mpich_small(self):
        def rtt(cls):
            sim, _, (m0, m1) = make_pair(cls=cls)

            def app():
                m1pong = None

                def pong():
                    req = yield from m1.recv(source=0)
                    yield from m1.send(b"r", dest=0)

                sim.spawn(pong())
                t0 = sim.now
                yield from m0.send(b"q", dest=1)
                yield from m0.recv(source=1)
                return sim.now - t0

            return sim.run_process(app())

        assert rtt(OpenMpi) > rtt(MpichMpi)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            BaselineParams(name="x", sw_overhead_us=-1, header_bytes=0,
                           eager_threshold=100)
        with pytest.raises(ValueError):
            BaselineParams(name="x", sw_overhead_us=0, header_bytes=0,
                           eager_threshold=0)
        with pytest.raises(ValueError):
            BaselineParams(name="x", sw_overhead_us=0, header_bytes=0,
                           eager_threshold=10, dt_pipeline_chunk=0)

    def test_openmpi_default_params(self):
        _, _, (o0, _) = make_pair(cls=OpenMpi)
        assert o0.params is OPENMPI_MX
