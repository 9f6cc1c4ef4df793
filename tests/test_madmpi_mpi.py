"""Integration tests for MAD-MPI (isend/irecv/wait/test, comms, datatypes)."""

import gc

import pytest

from repro.baselines import MPICH_MX, BaselineMpi
from repro.core import (
    EngineParams, NmadEngine, PacketWrap, RecvRequest, SendRequest,
    VirtualData,
)
from repro.errors import (
    DeadlineExceededError, MpiError, PeerDeadError, TransportError,
)
from repro.madmpi import (
    ANY,
    Communicator,
    Contiguous,
    Indexed,
    MadMpi,
    MpiRecv,
    MpiRequest,
    MpiSend,
    indexed_small_large,
)
from repro.netsim import Cluster, FaultPlan, MX_MYRI10G
from repro.sim import Event, Simulator


def make_mpi_pair(strategy="aggregation", rails=(MX_MYRI10G,)):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=2, rails=rails)
    world = Communicator([0, 1])
    mpis = [
        MadMpi(NmadEngine(cluster.node(i), strategy=strategy), world)
        for i in range(2)
    ]
    return sim, world, mpis


def make_mpi_trio(nodes=(2, 0, 1)):
    """Three ranks whose rank numbers are *not* their node ids."""
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
    world = Communicator(list(nodes))
    by_rank = {world.rank_of(n): MadMpi(NmadEngine(cluster.node(n)), world)
               for n in nodes}
    return sim, world, [by_rank[r] for r in range(3)]


def status(req):
    data = req.data
    return (req.source, req.tag, req.count,
            None if data is None else data.tobytes())


class TestPointToPoint:
    def test_send_recv_roundtrip(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def app():
            m0.isend(b"payload", dest=1, tag=3)
            req = yield from m1.recv(source=0, tag=3)
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"payload"
        assert req.source == 0
        assert req.tag == 3
        assert req.count == 7

    def test_wait_and_test(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def app():
            rreq = m1.irecv(source=0)
            sreq = m0.isend(b"x", dest=1)
            assert not MadMpi.test(rreq)
            yield from m1.wait(rreq)
            assert MadMpi.test(rreq)
            yield from m0.wait(sreq)
            return rreq

        req = sim.run_process(app())
        assert req.complete

    def test_wait_all(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def app():
            recvs = [m1.irecv(source=0, tag=i) for i in range(5)]
            for i in range(5):
                m0.isend(bytes([i]), dest=1, tag=i)
            done = yield from m1.wait_all(recvs)
            return done

        done = sim.run_process(app())
        assert [r.data.tobytes() for r in done] == [bytes([i]) for i in range(5)]

    def test_wait_all_of_one_request_is_a_plain_wait(self):
        def entries(waiter):
            sim, _, (m0, m1) = make_mpi_pair()

            def app():
                rreq = m1.irecv(source=0, tag=4)
                m0.isend(b"solo", dest=1, tag=4)
                got = yield from waiter(m1, rreq)
                return got, rreq, sim.now

            return sim.run_process(app()), sim.events_processed

        (got, rreq, t_all), n_all = entries(lambda m, r: m.wait_all([r]))
        assert got == [rreq] and rreq.data.tobytes() == b"solo"
        (got, rreq, t_one), n_one = entries(lambda m, r: m.wait(r))
        assert got is rreq
        # No condition in between: same wake-up time, not one entry more.
        assert (t_all, n_all) == (t_one, n_one)

    def test_wait_all_of_one_raises_that_requests_error(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def app():
            rreq = m1.irecv(source=0, tag=1, nbytes=2)
            m0.isend(b"too long", dest=1, tag=1)
            with pytest.raises(MpiError, match="truncation") as exc:
                yield from m1.wait_all([rreq])
            return exc.value is rreq.error

        assert sim.run_process(app())

    def test_wait_all_of_one_observes_the_failure(self):
        # A bare failing event stands in for a request nobody else defused:
        # raised into the waiter it counts as observed; unwaited, run()
        # re-raises it.
        for waited in (True, False):
            sim, _, (_, m1) = make_mpi_pair()
            evt = sim.event()
            sim.schedule(1.0, lambda evt=evt: evt.fail(MpiError("lonely")))
            caught = []

            def app(evt=evt, caught=caught):
                try:
                    yield from m1.wait_all([evt])
                except MpiError as exc:
                    caught.append(exc)

            if waited:
                sim.spawn(app())
                sim.run()
                assert caught == [evt.exception]
            else:
                with pytest.raises(MpiError, match="lonely"):
                    sim.run()

    def test_wait_all_shapes(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def app():
            assert (yield from m1.wait_all([])) == []
            t0 = sim.now
            recvs = tuple(m1.irecv(source=0, tag=i) for i in range(2))
            sends = [m0.isend(bytes([i]), dest=1, tag=i) for i in range(2)]
            assert (yield from m1.wait_all(recvs)) == list(recvs)
            assert (yield from m0.wait_all(sends)) == sends
            # Both already complete and processed: waiting again is free.
            before = sim.now
            assert (yield from m1.wait_all(list(recvs))) == list(recvs)
            return t0, before, sim.now

        t0, before, after = sim.run_process(app())
        assert t0 == 0.0 and after == before > 0.0

    def test_any_source_status_reports_rank(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def app():
            m0.isend(b"hi", dest=1, tag=9)
            req = yield from m1.recv(source=ANY, tag=ANY)
            return req

        req = sim.run_process(app())
        assert req.source == 0 and req.tag == 9

    def test_bad_rank_rejected(self):
        _, _, (m0, _) = make_mpi_pair()
        with pytest.raises(MpiError, match="rank"):
            m0.isend(b"x", dest=5)


class TestCommunicators:
    def test_comm_isolation(self):
        sim, world, (m0, m1) = make_mpi_pair()
        other = world.dup()

        def app():
            # Same (source, tag) on two communicators must not cross-match.
            r_world = m1.irecv(source=0, tag=1, comm=world)
            r_other = m1.irecv(source=0, tag=1, comm=other)
            m0.isend(b"on-other", dest=1, tag=1, comm=other)
            yield r_other.done
            assert not r_world.complete
            m0.isend(b"on-world", dest=1, tag=1, comm=world)
            yield r_world.done
            return r_world, r_other

        r_world, r_other = sim.run_process(app())
        assert r_other.data.tobytes() == b"on-other"
        assert r_world.data.tobytes() == b"on-world"

    def test_cross_communicator_aggregation(self):
        # The paper's point: optimization scope is global even though
        # matching is per-communicator (§5.2).
        sim, world, (m0, m1) = make_mpi_pair()
        comms = [world.dup() for _ in range(8)]

        def app():
            recvs = [m1.irecv(source=0, comm=c) for c in comms]
            for c in comms:
                m0.isend(VirtualData(64), dest=1, comm=c)
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        assert m0.engine.stats.phys_packets == 1
        assert m0.engine.stats.aggregated_segments == 8

    def test_dup_gets_fresh_id(self):
        world = Communicator([0, 1])
        assert world.dup().id != world.id

    def test_comm_validation(self):
        with pytest.raises(MpiError):
            Communicator([])
        with pytest.raises(MpiError):
            Communicator([0, 0])
        world = Communicator([0, 1])
        with pytest.raises(MpiError):
            world.node_of(2)
        with pytest.raises(MpiError):
            world.rank_of(9)

    def test_rank_and_node_maps_are_per_communicator(self):
        world = Communicator([5, 3, 8, 1])
        assert world.size == 4
        assert [world.rank_of(n) for n in (5, 3, 8, 1)] == [0, 1, 2, 3]
        assert [world.node_of(r) for r in range(4)] == [5, 3, 8, 1]
        with pytest.raises(MpiError, match="rank 4 out of range for "
                                           "communicator of size 4"):
            world.node_of(4)
        with pytest.raises(MpiError, match="rank -1 out of range"):
            world.node_of(-1)
        with pytest.raises(MpiError,
                           match="node 2 is not part of this communicator"):
            world.rank_of(2)
        # dup() and shrink() describe their own group, not the parent's.
        dup = world.dup()
        assert dup.id != world.id and dup.rank_of(8) == 2 and dup.size == 4
        shrunk = world.shrink([3])
        assert shrunk.size == 3
        assert [shrunk.rank_of(n) for n in (5, 8, 1)] == [0, 1, 2]
        assert shrunk.node_of(1) == 8 and world.node_of(1) == 3
        with pytest.raises(MpiError, match="node 3 is not part"):
            shrunk.rank_of(3)
        with pytest.raises(MpiError, match="of size 3"):
            shrunk.node_of(3)


class TestDatatypes:
    def test_typed_roundtrip_scatters_correctly(self):
        sim, _, (m0, m1) = make_mpi_pair()
        dtype = Indexed([3, 5], [0, 6])
        send_buf = bytes(range(dtype.extent))

        def app():
            rreq = m1.irecv(source=0, tag=1, datatype=dtype)
            m0.isend(send_buf, dest=1, tag=1, datatype=dtype)
            yield rreq.done
            return rreq

        rreq = sim.run_process(app())
        out = bytearray(b"\xee" * dtype.extent)
        rreq.scatter_into(out)
        for disp, length in dtype.flatten():
            assert out[disp:disp + length] == send_buf[disp:disp + length]
        # Gap bytes untouched.
        assert out[3] == 0xEE

    def test_typed_send_generates_per_block_requests(self):
        sim, _, (m0, m1) = make_mpi_pair()
        dtype = indexed_small_large(repeats=1, small=16, large=64, gap=8)

        def app():
            rreq = m1.irecv(source=0, datatype=dtype)
            m0.isend(VirtualData(dtype.extent), dest=1, datatype=dtype)
            yield rreq.done
            return rreq

        rreq = sim.run_process(app())
        assert len(rreq.block_data) == 2
        assert rreq.count == dtype.size

    def test_fig4_datatype_zero_copy_for_large_blocks(self):
        sim, _, (m0, m1) = make_mpi_pair()
        dtype = indexed_small_large(repeats=2)

        def app():
            rreq = m1.irecv(source=0, datatype=dtype)
            m0.isend(VirtualData(dtype.extent), dest=1, datatype=dtype)
            yield rreq.done

        sim.run_process(app())
        # Two large blocks went rendezvous (zero-copy)...
        assert m0.engine.rendezvous.handshakes == 2
        assert m0.engine.stats.rdv_bytes == 2 * 256 * 1024
        # ...and the receive side copied only the two small 64B blocks.
        assert m1.engine.stats.recv_copy_bytes == 2 * 64

    def test_empty_datatype_rejected(self):
        _, _, (m0, m1) = make_mpi_pair()
        empty = Contiguous(0)
        with pytest.raises(MpiError):
            m0.isend(b"", dest=1, datatype=empty)
        with pytest.raises(MpiError):
            m1.irecv(source=0, datatype=empty)

    def test_block_exceeding_buffer_rejected(self):
        _, _, (m0, _) = make_mpi_pair()
        dtype = Contiguous(100)
        with pytest.raises(MpiError, match="exceeds"):
            m0.isend(b"short", dest=1, datatype=dtype)

    def test_short_buffer_sends_no_block_before_the_error(self):
        # Block 0 (64 B) fits the 200-byte buffer, block 1 does not: the
        # send must fail before block 0 is submitted, or it sits unexpected
        # at the receiver as the flow's sequence 0.
        sim, _, (m0, m1) = make_mpi_pair()
        dtype = indexed_small_large(2, small=64, large=4096)
        with pytest.raises(MpiError, match="exceeds"):
            m0.isend(bytes(200), dest=1, datatype=dtype)
        sim.run()
        assert len(m0.engine.window) == 0
        assert m0.engine.stats.phys_packets == 0
        assert m1.matcher.n_unexpected == 0

    def test_scatter_before_completion_rejected(self):
        _, _, (_, m1) = make_mpi_pair()
        req = m1.irecv(source=0, datatype=Contiguous(4))
        with pytest.raises(MpiError):
            req.scatter_into(bytearray(4))

    def test_scatter_on_untyped_rejected(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def app():
            m0.isend(b"abcd", dest=1)
            req = yield from m1.recv(source=0)
            return req

        req = sim.run_process(app())
        with pytest.raises(MpiError, match="untyped"):
            req.scatter_into(bytearray(4))


class TestDirectMapping:
    """Paper 3.4: isend/irecv/wait/test map directly onto the engine's.  An
    untyped handle *is* the engine request, which is its own completion
    event; only a derived-datatype handle is a further object."""

    def test_untyped_irecv_shares_the_engine_requests_event(self):
        sim, _, (m0, m1) = make_mpi_pair()
        subs = []
        engine_irecv = m1.engine.irecv

        def spy(*args, **kwargs):
            subs.append(engine_irecv(*args, **kwargs))
            return subs[-1]

        m1.engine.irecv = spy
        req = m1.irecv(source=0, tag=4)
        assert len(subs) == 1 and req is subs[0] and req.done is req
        assert isinstance(req, Event) and isinstance(req, RecvRequest)
        m0.isend(b"one event", dest=1, tag=4)
        sim.run()
        assert status(req) == (0, 4, 9, b"one event")
        # The typed path finishes after its blocks: a handle of its own,
        # an event like the others.
        typed = m1.irecv(source=0, tag=5, datatype=Contiguous(4))
        assert len(subs) == 2 and typed is not subs[1]
        assert isinstance(typed, Event) and typed.done is typed

    def test_untyped_isend_returns_the_engine_request(self):
        sim, _, (m0, m1) = make_mpi_pair()
        handed = []
        engine_isend = m0.engine.isend

        def spy(*args, **kwargs):
            handed.append(engine_isend(*args, **kwargs))
            return handed[-1]

        m0.engine.isend = spy
        sreq = m0.isend(b"x", dest=1, tag=2)
        assert handed == [sreq] and sreq.done is sreq
        assert isinstance(sreq, Event) and isinstance(sreq, SendRequest)
        assert sreq.kind == "send" and sreq.datatype is None
        # Pending, it is the wrap's completion; settled, it lets go of it.
        assert sreq.wrap.completion is sreq
        assert (sreq.wrap.flow, sreq.wrap.seq) == (m0.world.id, 0)
        m1.irecv(source=0, tag=2)
        sim.run()
        assert sreq.complete and sreq.wrap is None
        typed = m0.isend(b"abcd", dest=1, tag=3, datatype=Contiguous(4))
        assert len(handed) == 2 and typed is not handed[1]
        assert isinstance(typed, Event) and typed.done is typed

    def test_every_way_of_waiting_takes_the_handle_itself(self):
        sim, _, (m0, m1) = make_mpi_pair()
        dtype = Indexed([2, 2], [0, 4])
        buf = bytes(range(dtype.extent))

        def sender():
            for tag in range(4):
                m0.isend(bytes([tag]), dest=1, tag=tag)
            yield m0.isend(buf, dest=1, tag=4, datatype=dtype)
            yield m0.isend(b"!", dest=1, tag=5).done

        def receiver():
            first = m1.irecv(source=0, tag=0)
            yield first                        # the short form
            second = m1.irecv(source=0, tag=1)
            yield second.done                  # the long form: same object
            mixed = [m1.irecv(source=0, tag=2),
                     m1.irecv(source=0, tag=4, datatype=dtype),
                     m1.irecv(source=0, tag=3)]
            assert (yield from m1.wait_all(mixed)) == mixed
            idx, last = yield from m1.wait_any(
                [m1.irecv(source=0, tag=77, datatype=dtype),
                 m1.irecv(source=0, tag=5)])
            assert idx == 1
            return [first, second, *mixed, last]

        sim.spawn(sender())
        got = sim.run_process(receiver())
        assert [status(r) for r in got] == [
            (0, 0, 1, b"\x00"), (0, 1, 1, b"\x01"), (0, 2, 1, b"\x02"),
            (0, 4, 4, None), (0, 3, 1, b"\x03"), (0, 5, 1, b"!")]
        assert [d.tobytes() for d in got[3].block_data] == [buf[0:2],
                                                            buf[4:6]]

    def test_finished_typed_handle_keeps_no_part_alive(self):
        sim, _, (m0, m1) = make_mpi_pair()
        dtype = indexed_small_large(2, large=40_000)   # eager + rendezvous

        def parts():
            gc.collect()
            return sum(type(o) in (SendRequest, RecvRequest, PacketWrap)
                       for o in gc.get_objects())

        before = parts()
        rreq = m1.irecv(source=0, tag=1, datatype=dtype)
        sreq = m0.isend(VirtualData(dtype.extent), dest=1, tag=1,
                        datatype=dtype)
        assert parts() >= before + 8    # four blocks each way, pending
        sim.run()
        assert sreq.complete and rreq.complete and len(rreq.block_data) == 4
        assert (rreq.source, rreq.tag, rreq.count) == (0, 1, dtype.size)
        assert parts() == before        # both handles still held

    def test_pending_request_reports_no_status(self):
        _, _, (m0, m1) = make_mpi_pair()
        for req in (m1.irecv(source=0), m1.irecv(source=ANY, tag=ANY),
                    m1.irecv(source=0, datatype=Contiguous(4)),
                    m0.isend(b"x", dest=1)):
            assert not req.complete and not req.failed and req.error is None
            assert status(req) == (None, None, None, None)
            assert len(req.block_data) == 0

    def test_send_request_never_grows_a_status(self):
        sim, _, (m0, m1) = make_mpi_pair()
        sreq = m0.isend(b"x", dest=1)
        m1.irecv(source=0)
        sim.run()
        assert sreq.complete and status(sreq) == (None, None, None, None)

    def test_requests_have_no_instance_dict(self):
        _, _, (m0, m1) = make_mpi_pair()
        for req, kind in ((m0.isend(b"x", dest=1), MpiSend),
                          (m1.irecv(source=0), MpiRecv),
                          (m1.irecv(source=0, datatype=Contiguous(4)),
                           MpiRequest),
                          (m0.isend(b"abcd", dest=1,
                                    datatype=Contiguous(4)), MpiRequest)):
            assert type(req) is kind
            assert not hasattr(req, "__dict__")
            with pytest.raises(AttributeError):
                req.scratch = 1

    def test_status_is_already_there_in_a_done_callback(self):
        sim, _, (m0, m1) = make_mpi_pair()
        seen = []
        req = m1.irecv(source=ANY, tag=ANY)
        # Registered by the application, so after anything the library
        # itself hangs on the event.
        req.done.add_callback(
            lambda evt: seen.append((evt is req.done, evt.ok, status(req))))
        m0.isend(b"callback", dest=1, tag=6)
        sim.run()
        assert seen == [(True, True, (0, 6, 8, b"callback"))]

    def test_status_after_every_completion_call(self):
        sim, _, (m0, m1) = make_mpi_pair()

        def sender():
            for tag in range(6):
                m0.isend(bytes([tag]) * (tag + 1), dest=1, tag=tag)
            yield from m0.sendrecv(b"ping", dest=1, source=1, sendtag=6,
                                   recvtag=7)

        def receiver():
            got = []
            got.append((yield from m1.recv(source=0, tag=0)))
            got.append((yield from m1.wait(m1.irecv(source=0, tag=1))))
            got += yield from m1.wait_all(
                [m1.irecv(source=0, tag=2), m1.irecv(source=0, tag=3)])
            idx, first = yield from m1.wait_any(
                [m1.irecv(source=0, tag=99), m1.irecv(source=0, tag=4)])
            assert idx == 1
            got.append(first)
            req = m1.irecv(source=0, tag=5)
            while not m1.test(req):          # poll only
                yield sim.timeout(1.0)
            got.append(req)
            got.append((yield from m1.sendrecv(b"pong", dest=0, source=0,
                                               sendtag=7, recvtag=6)))
            return got

        sim.spawn(sender())
        got = sim.run_process(receiver())
        assert [status(r) for r in got[:6]] == [
            (0, tag, tag + 1, bytes([tag]) * (tag + 1)) for tag in range(6)]
        assert status(got[6]) == (0, 6, 4, b"ping")

    def test_wildcard_receive_reports_actual_source_and_tag(self):
        sim, _, (m0, m1, m2) = make_mpi_trio()
        reqs = [m2.irecv(source=ANY, tag=ANY) for _ in range(2)]
        m0.isend(b"from rank 0", dest=2, tag=11)
        sim.run()
        m1.isend(b"from rank 1", dest=2, tag=12)
        sim.run()
        assert [status(r) for r in reqs] == [(0, 11, 11, b"from rank 0"),
                                             (1, 12, 11, b"from rank 1")]

    def test_source_is_a_rank_of_the_requests_communicator(self):
        # World ranks 0, 1, 2 live on nodes 2, 0, 1; in ``rev`` the same
        # nodes are ranks 1, 2, 0.  One sending node, three communicators:
        # the status names the sender's rank in each, never its node id.
        sim, world, (m0, m1, m2) = make_mpi_trio(nodes=(2, 0, 1))
        dup = world.dup()
        rev = Communicator([1, 2, 0])
        assert m0.engine.node_id == 2 and m2.engine.node_id == 1
        reqs = [m2.irecv(source=ANY, tag=1, comm=world),
                m2.irecv(source=0, tag=1, comm=dup),
                m2.irecv(source=ANY, tag=1, comm=rev)]
        m0.isend(b"w", dest=2, tag=1, comm=world)
        m0.isend(b"d", dest=2, tag=1, comm=dup)
        m0.isend(b"r", dest=rev.rank_of(1), tag=1, comm=rev)
        sim.run()
        assert [r.source for r in reqs] == [0, 0, 1]
        assert [r.data.tobytes() for r in reqs] == [b"w", b"d", b"r"]
        # Typed receives translate the same way.
        typed = m2.irecv(source=ANY, tag=2, comm=rev, datatype=Contiguous(2))
        m0.isend(b"ty", dest=0, tag=2, comm=rev, datatype=Contiguous(2))
        sim.run()
        assert (typed.source, typed.tag, typed.count) == (1, 2, 2)

    def test_block_data_is_for_typed_receives_only(self):
        sim, _, (m0, m1) = make_mpi_pair()
        dtype = Indexed([3, 5], [0, 6])
        buf = bytes(range(dtype.extent))
        plain = m1.irecv(source=0, tag=1)
        typed = m1.irecv(source=0, tag=2, datatype=dtype)
        m0.isend(b"plain", dest=1, tag=1)
        m0.isend(buf, dest=1, tag=2, datatype=dtype)
        sim.run()
        assert len(plain.block_data) == 0 and plain.data.tobytes() == b"plain"
        assert [d.tobytes() for d in typed.block_data] == [buf[0:3], buf[6:11]]
        assert status(typed) == (0, 2, 8, None)
        out = bytearray(dtype.extent)
        typed.scatter_into(out)
        assert out[0:3] == buf[0:3] and out[6:11] == buf[6:11]


def _madmpi_pair():
    sim, _, mpis = make_mpi_pair()
    return sim, mpis


def _mpich_pair():
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,))
    world = Communicator([0, 1])
    return sim, [BaselineMpi(cluster.node(i), MPICH_MX, world)
                 for i in range(2)]


def _rendezvous_state(mpi):
    """What either backend still holds of unfinished rendezvous transfers."""
    if isinstance(mpi, MadMpi):
        rdv = mpi.engine.rendezvous
        return rdv.n_pending + rdv.n_granted + rdv.n_incoming
    return len(mpi._rdv_pending) + len(mpi._rdv_incoming)


def _small_receive(m1, datatype):
    return m1.irecv(source=0, tag=1, nbytes=4) if datatype is None \
        else m1.irecv(source=0, tag=1, datatype=datatype)


# Each provocation returns the failing receive, the error it must carry and
# the sends it involves, which must all complete.

def _truncate(sim, m0, m1, datatype):
    """A 64 B message into a 4 B receive."""
    req = _small_receive(m1, datatype)
    return req, MpiError, "truncation", [m0.isend(bytes(64), dest=1, tag=1)]


def _truncate_rendezvous(sim, m0, m1, datatype):
    """A 1 MiB message, far past the rendezvous threshold, into a 4 B
    receive: the transfer is granted anyway and its bulk dropped."""
    req = _small_receive(m1, datatype)
    send = m0.isend(VirtualData(1 << 20), dest=1, tag=1)
    return req, MpiError, "truncation", [send]


def _expire(sim, m0, m1, datatype):
    """A deadline with no sender."""
    req = m1.irecv(source=0, tag=1, deadline_us=5.0, datatype=datatype)
    return req, DeadlineExceededError, "deadline", []


def _peer_dies(sim, m0, m1, datatype):
    """The failure detector's verdict, as ``SessionLayer`` delivers it."""
    req = m1.irecv(source=0, tag=1, datatype=datatype)
    sim.schedule(3.0, lambda: m1.matcher.fail_src(
        0, PeerDeadError("node 0 confirmed dead"), now=sim.now))
    return req, PeerDeadError, "confirmed dead", []


_FAILURES = [
    pytest.param(_madmpi_pair, _truncate, id="madmpi-truncation"),
    pytest.param(_madmpi_pair, _truncate_rendezvous,
                 id="madmpi-rendezvous-truncation"),
    pytest.param(_madmpi_pair, _expire, id="madmpi-deadline"),
    pytest.param(_madmpi_pair, _peer_dies, id="madmpi-peer-dead"),
    pytest.param(_mpich_pair, _truncate, id="mpich-truncation"),
    pytest.param(_mpich_pair, _truncate_rendezvous,
                 id="mpich-rendezvous-truncation"),
    pytest.param(_mpich_pair, _peer_dies, id="mpich-peer-dead"),
]
_SHAPES = [pytest.param(None, id="untyped"),
           pytest.param(Contiguous(4), id="typed")]


@pytest.mark.parametrize("datatype", _SHAPES)
@pytest.mark.parametrize("make_pair, provoke", _FAILURES)
class TestFailedReceive:
    """A receive fails *through* wait/test (the ``irecv`` docstring): the
    failure belongs to whoever asks, and to nobody if nobody waits."""

    def test_polled_failure_does_not_crash_the_run(self, make_pair, provoke,
                                                   datatype):
        sim, (m0, m1) = make_pair()
        req, kind, text, _ = provoke(sim, m0, m1, datatype)
        sim.run()   # nobody waits: the simulation itself must not raise
        assert m1.test(req) and req.complete and req.failed
        assert isinstance(req.error, kind) and text in str(req.error)
        assert status(req) == (None, None, None, None)
        assert len(req.block_data) == 0

    def test_no_sender_is_stranded(self, make_pair, provoke, datatype):
        # MPI_ERR_TRUNCATE is the receiver's error alone: the send completes
        # and neither side keeps rendezvous state.
        sim, (m0, m1) = make_pair()
        req, kind, text, sends = provoke(sim, m0, m1, datatype)
        sim.run()
        assert req.failed and isinstance(req.error, kind)
        assert text in str(req.error)
        assert all(s.complete and not s.failed for s in sends)
        assert _rendezvous_state(m0) == _rendezvous_state(m1) == 0

    def test_waited_failure_still_raises(self, make_pair, provoke, datatype):
        sim, (m0, m1) = make_pair()
        req, kind, text, _ = provoke(sim, m0, m1, datatype)

        def waiter():
            with pytest.raises(kind, match=text):
                yield from m1.wait(req)
            return "raised"

        assert sim.run_process(waiter()) == "raised"
        assert req.failed and isinstance(req.error, kind)


def _send_past_its_deadline(datatype):
    """The NIC is busy with 30 kB, so a send queued 0.1 us later is still in
    the window when its 0.5 us deadline expires."""
    sim, _, (m0, m1) = make_mpi_pair()
    m0.isend(bytes(30_000), dest=1, tag=0)
    made = []
    sim.schedule(0.1, lambda: made.append(m0.isend(
        bytes(40_320), dest=1, tag=1, datatype=datatype, deadline_us=0.5)))
    sim.run(until=0.2)
    return sim, m0, made[0], DeadlineExceededError, "deadline"


def _send_into_dead_links(datatype):
    """Every link is down from t = 0 and the retry budget is one."""
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,))
    for link in cluster.links:
        link.fault_plan = FaultPlan(down_at_us=0.0)
    world = Communicator([0, 1])
    params = EngineParams(reliability="ack", rel_retry_budget=1)
    m0 = MadMpi(NmadEngine(cluster.node(0), params=params), world)
    MadMpi(NmadEngine(cluster.node(1), params=params), world)
    req = m0.isend(bytes(40_320), dest=1, tag=1, datatype=datatype)
    return sim, m0, req, TransportError, "undeliverable"


@pytest.mark.parametrize("datatype", [
    pytest.param(None, id="untyped"),
    pytest.param(indexed_small_large(2, large=20_000), id="typed")])
@pytest.mark.parametrize("provoke", [
    pytest.param(_send_past_its_deadline, id="deadline"),
    pytest.param(_send_into_dead_links, id="retry-budget")])
class TestFailedSend:
    """A send fails *through* wait/test too (the ``isend`` docstring), a
    derived-datatype send — several library sends — included."""

    def test_polled_failure_does_not_crash_the_run(self, provoke, datatype):
        sim, m0, req, kind, text = provoke(datatype)
        sim.run()   # nobody waits: the simulation itself must not raise
        assert m0.test(req) and req.complete and req.failed
        assert isinstance(req.error, kind) and text in str(req.error)

    def test_waited_failure_still_raises(self, provoke, datatype):
        sim, m0, req, kind, text = provoke(datatype)

        def waiter():
            with pytest.raises(kind, match=text):
                yield from m0.wait(req)
            return "raised"

        assert sim.run_process(waiter()) == "raised"
        assert req.failed and isinstance(req.error, kind)
