"""Integration tests: two (or more) NmadEngine instances over simulated NICs.

These exercise the paper's mechanisms end to end on real bytes: eager
transfer, cross-flow aggregation, rendezvous zero-copy, ordering under
reordering strategies, priorities, dependencies, multirail splitting, and
the incremental pack interface.
"""

import pytest

from repro.core import (
    ANY,
    AggregationStrategy,
    EngineParams,
    FifoStrategy,
    NmadEngine,
    RecvRequest,
    SendRequest,
    VirtualData,
    begin_pack,
    begin_unpack,
)
from repro.errors import MpiError, NetworkError, SimulationError
from repro.netsim import (
    Cluster,
    GM_MYRINET,
    MX_MYRI10G,
    QUADRICS_QM500,
)
from repro.sim import Event, Simulator, Tracer


def make_pair(rails=(MX_MYRI10G,), strategy="aggregation", params=None,
              n_nodes=2, tracer=None):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=rails, tracer=tracer)
    engines = [
        NmadEngine(cluster.node(i), strategy=strategy, params=params,
                   tracer=tracer)
        for i in range(n_nodes)
    ]
    return sim, cluster, engines


class TestEagerTransfer:
    def test_bytes_arrive_intact(self):
        sim, cluster, (e0, e1) = make_pair()
        payload = bytes(range(256)) * 3

        def app():
            e0.isend(1, payload, tag=4)
            req = yield from e1.recv(src=0, tag=4)
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert req.actual_src == 0
        assert req.actual_tag == 4
        assert req.actual_len == len(payload)
        assert cluster.conservation_ok()

    def test_send_completion_fires(self):
        sim, _, (e0, e1) = make_pair()

        def app():
            e1.irecv(src=0)
            req = yield from e0.send(1, b"data")
            return req

        req = sim.run_process(app())
        assert req.complete

    def test_zero_byte_message(self):
        sim, _, (e0, e1) = make_pair()

        def app():
            e0.isend(1, b"", tag=1)
            req = yield from e1.recv(src=0, tag=1)
            return req

        req = sim.run_process(app())
        assert req.actual_len == 0
        assert req.data.tobytes() == b""

    def test_many_messages_in_order_per_flow(self):
        sim, _, (e0, e1) = make_pair()
        n = 25

        def app():
            for i in range(n):
                e0.isend(1, bytes([i]) * (i + 1), tag=0)
            out = []
            for _ in range(n):
                req = yield from e1.recv(src=0, tag=0)
                out.append(req.data.tobytes())
            return out

        out = sim.run_process(app())
        assert out == [bytes([i]) * (i + 1) for i in range(n)]

    def test_wildcard_source_and_tag(self):
        sim, _, engines = make_pair(n_nodes=3)
        e0, e1, e2 = engines

        def app():
            e0.isend(1, b"from0", tag=10)
            e2.isend(1, b"from2", tag=20)
            r1 = yield from e1.recv(src=ANY, tag=ANY)
            r2 = yield from e1.recv(src=ANY, tag=ANY)
            return {r1.actual_src: r1.data.tobytes(),
                    r2.actual_src: r2.data.tobytes()}

        got = sim.run_process(app())
        assert got == {0: b"from0", 2: b"from2"}

    def test_truncation_fails_request(self):
        sim, _, (e0, e1) = make_pair()

        def app():
            req = e1.irecv(src=0, nbytes=4)
            e0.isend(1, b"way too long")
            try:
                yield req.done
            except MpiError as exc:
                return str(exc)
            return None

        msg = sim.run_process(app())
        assert msg is not None and "truncation" in msg

    def test_truncation_observed_by_polling_does_not_crash_run(self):
        # Regression: an application that detects truncation via the
        # non-raising failed/error API only (MPI_Test style, never waiting
        # on done) must not crash at run() end with the unobserved-failure
        # re-raise.
        sim, _, (e0, e1) = make_pair()
        req = e1.irecv(src=0, nbytes=4)
        e0.isend(1, b"way too long")
        sim.run()  # the old code re-raised the MpiError here
        assert req.failed
        assert isinstance(req.error, MpiError)
        assert "truncation" in str(req.error)

    def test_self_send_rejected(self):
        _, _, (e0, _) = make_pair()
        with pytest.raises(NetworkError, match="self-send"):
            e0.isend(0, b"loop")

    def test_recv_copy_cost_charged(self):
        # 16 KB stays below the MX rendezvous threshold, so it travels
        # eagerly and pays (or skips) the receive-side copy.
        params = EngineParams(eager_copy_on_recv=True)
        sim, _, (e0, e1) = make_pair(params=params)

        def app():
            e0.isend(1, VirtualData(16_384), tag=1)
            req = yield from e1.recv(src=0, tag=1)
            return sim.now

        t_with = sim.run_process(app())

        params2 = EngineParams(eager_copy_on_recv=False)
        sim2, _, (f0, f1) = make_pair(params=params2)

        def app2():
            f0.isend(1, VirtualData(16_384), tag=1)
            req = yield from f1.recv(src=0, tag=1)
            return sim2.now

        t_without = sim2.run_process(app2())
        assert t_with > t_without
        assert e1.stats.recv_copies == 1
        assert e1.stats.recv_copy_bytes == 16_384


class TestAggregation:
    def test_burst_coalesces_into_one_packet(self):
        sim, _, (e0, e1) = make_pair()

        def app():
            recvs = [e1.irecv(src=0, tag=i, flow=i) for i in range(16)]
            for i in range(16):
                e0.isend(1, bytes([i]) * 32, tag=i, flow=i)
            yield sim.all_of([r.done for r in recvs])
            return recvs

        recvs = sim.run_process(app())
        assert e0.stats.phys_packets == 1
        assert e0.stats.aggregated_segments == 16
        for i, r in enumerate(recvs):
            assert r.data.tobytes() == bytes([i]) * 32

    def test_fifo_strategy_sends_separately(self):
        sim, _, (e0, e1) = make_pair(strategy="fifo")

        def app():
            recvs = [e1.irecv(src=0, tag=i) for i in range(8)]
            for i in range(8):
                e0.isend(1, bytes(16), tag=i)
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        assert e0.stats.phys_packets == 8
        assert e0.stats.aggregated_packets == 0

    def test_aggregation_is_faster_than_fifo_for_bursts(self):
        def run(strategy):
            sim, _, (e0, e1) = make_pair(strategy=strategy)

            def app():
                recvs = [e1.irecv(src=0, tag=i) for i in range(16)]
                for i in range(16):
                    e0.isend(1, VirtualData(64), tag=i)
                yield sim.all_of([r.done for r in recvs])
                return sim.now

            return sim.run_process(app())

        assert run("aggregation") < run("fifo")

    def test_aggregate_stays_below_rdv_threshold(self):
        sim, _, (e0, e1) = make_pair()
        thr = MX_MYRI10G.rdv_threshold
        seg = thr // 4

        def app():
            recvs = [e1.irecv(src=0, tag=i) for i in range(8)]
            for i in range(8):
                e0.isend(1, VirtualData(seg), tag=i)
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        # 8 segments of thr/4 need at least 2 physical packets.
        assert e0.stats.phys_packets >= 2
        assert e0.stats.eager_bytes == 8 * seg

    def test_gather_scatter_free_vs_host_copy(self):
        # GM lacks gather/scatter: building an aggregate pays host copies,
        # so the same burst takes longer than on a g/s-capable profile with
        # identical wire timing.
        gm_gs = GM_MYRINET.with_overrides(gather_scatter=True)

        def run(profile):
            sim, _, (e0, e1) = make_pair(rails=(profile,))

            def app():
                recvs = [e1.irecv(src=0, tag=i) for i in range(12)]
                for i in range(12):
                    e0.isend(1, VirtualData(1024), tag=i)
                yield sim.all_of([r.done for r in recvs])
                return sim.now

            return sim.run_process(app())

        assert run(GM_MYRINET) > run(gm_gs)


class TestRendezvous:
    @pytest.mark.parametrize("size", [64 * 1024, 1 << 20])
    def test_large_message_roundtrip(self, size):
        sim, cluster, (e0, e1) = make_pair()
        payload = bytes(i % 251 for i in range(size))

        def app():
            req = e1.irecv(src=0, tag=9)
            e0.isend(1, payload, tag=9)
            yield req.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert e0.rendezvous.handshakes == 1
        assert e0.stats.rdv_bytes == size
        assert e0.quiesced() and e1.quiesced()

    def test_rdv_waits_for_posted_recv(self):
        sim, _, (e0, e1) = make_pair()
        size = 128 * 1024

        def app():
            sreq = e0.isend(1, VirtualData(size), tag=1)
            yield sim.timeout(500.0)   # receiver not ready yet
            assert not sreq.complete   # no grant, no bulk sent
            req = e1.irecv(src=0, tag=1)
            yield req.done
            yield sreq.done
            return sim.now

        sim.run_process(app())
        assert e0.quiesced() and e1.quiesced()

    def test_rdv_zero_copy_no_recv_copies(self):
        sim, _, (e0, e1) = make_pair()

        def app():
            req = e1.irecv(src=0, tag=1)
            e0.isend(1, VirtualData(1 << 20), tag=1)
            yield req.done

        sim.run_process(app())
        assert e1.stats.recv_copies == 0

    def test_rdv_chunking(self):
        params = EngineParams(rdv_chunk_bytes=64 * 1024)
        sim, _, (e0, e1) = make_pair(params=params)
        size = 256 * 1024

        def app():
            req = e1.irecv(src=0, tag=1)
            e0.isend(1, VirtualData(size), tag=1)
            yield req.done

        sim.run_process(app())
        # 1 announcement packet + 4 bulk chunks.
        assert e0.stats.phys_packets == 5

    def test_small_segments_ride_with_rdv_request(self):
        # The Figure-4 schedule, observed at packet level.
        sim, _, (e0, e1) = make_pair()

        def app():
            r_small = [e1.irecv(src=0, tag=i) for i in (1, 2)]
            r_big = e1.irecv(src=0, tag=3)
            e0.isend(1, VirtualData(64), tag=1)
            e0.isend(1, VirtualData(256 * 1024), tag=3)
            e0.isend(1, VirtualData(64), tag=2)
            yield sim.all_of([r.done for r in r_small + [r_big]])

        sim.run_process(app())
        # First packet: 2 small segments + 1 rdv request; then bulk.
        assert e0.stats.items_sent >= 3
        assert e0.stats.phys_packets <= 2 + (256 * 1024) // EngineParams().rdv_chunk_bytes + 1
        assert e0.rendezvous.handshakes == 1

    def test_interleaved_eager_and_rdv_same_tag_ordering(self):
        sim, _, (e0, e1) = make_pair()
        big = 100 * 1024

        def app():
            e0.isend(1, b"A" * 100, tag=0)
            e0.isend(1, VirtualData(big), tag=0)
            e0.isend(1, b"B" * 100, tag=0)
            r1 = yield from e1.recv(src=0, tag=0)
            r2 = yield from e1.recv(src=0, tag=0)
            r3 = yield from e1.recv(src=0, tag=0)
            return r1, r2, r3

        r1, r2, r3 = sim.run_process(app())
        # Matching order follows submission order despite the rdv detour.
        assert r1.data.tobytes() == b"A" * 100
        assert r2.actual_len == big
        assert r3.data.tobytes() == b"B" * 100


class TestPriorityAndDependencies:
    def test_priority_leads_packet(self):
        sim, _, (e0, e1) = make_pair(
            strategy=AggregationStrategy(by_priority=True))

        def app():
            r = [e1.irecv(src=0, flow=f, tag=0) for f in range(3)]
            e0.isend(1, b"low0", flow=0, priority=0)
            e0.isend(1, b"low1", flow=1, priority=0)
            e0.isend(1, b"high", flow=2, priority=10)
            yield sim.all_of([x.done for x in r])
            return r

        r = sim.run_process(app())
        assert r[2].data.tobytes() == b"high"

    def test_dependency_orders_physical_sends(self):
        sim, _, (e0, e1) = make_pair(strategy="fifo")

        def app():
            r1 = e1.irecv(src=0, flow=1, tag=0)
            r2 = e1.irecv(src=0, flow=2, tag=0)
            first = e0.isend(1, b"service-id", flow=1)
            e0.isend(1, b"args", flow=2, depends_on=first.wrap.wrap_id)
            yield sim.all_of([r1.done, r2.done])

        sim.run_process(app())  # no deadlock, both arrive

    def test_unsatisfiable_dependency_deadlocks_visibly(self):
        sim, _, (e0, e1) = make_pair()

        def app():
            e0.isend(1, b"orphan", depends_on=10_000_000)
            req = e1.irecv(src=0)
            yield req.done

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_process(app())


class TestMultirail:
    def test_bulk_splits_across_rails(self):
        sim, cluster, (e0, e1) = make_pair(
            rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail",
            params=EngineParams(rdv_chunk_bytes=128 * 1024))
        size = 2 << 20
        payload = bytes(i % 256 for i in range(size))

        def app():
            req = e1.irecv(src=0, tag=1)
            e0.isend(1, payload, tag=1)
            yield req.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == payload  # reassembly is correct
        sent = [nic.bytes_sent for nic in cluster.node(0).nics]
        assert all(b > 0 for b in sent), "both rails carried bulk"
        # Faster rail (MX) carries more bytes than the slower (Quadrics).
        assert sent[0] > sent[1]

    def test_multirail_faster_than_single_rail(self):
        size = 4 << 20

        def run(rails, strategy):
            sim, _, (e0, e1) = make_pair(rails=rails, strategy=strategy)

            def app():
                req = e1.irecv(src=0, tag=1)
                e0.isend(1, VirtualData(size), tag=1)
                yield req.done
                return sim.now

            return sim.run_process(app())

        t_single = run((MX_MYRI10G,), "aggregation")
        t_dual = run((MX_MYRI10G, QUADRICS_QM500), "multirail")
        assert t_dual < t_single

    def test_rail_pinning_respected(self):
        sim, cluster, (e0, e1) = make_pair(
            rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail")

        def app():
            req = e1.irecv(src=0, tag=1)
            e0.isend(1, VirtualData(1 << 20), tag=1, rail=1)
            yield req.done

        sim.run_process(app())
        # All payload bytes went over rail 1 (Quadrics).
        assert cluster.node(0).nics[0].bytes_sent == 0
        assert cluster.node(0).nics[1].bytes_sent > 1 << 20

    def test_eager_load_balances_over_common_list(self):
        sim, cluster, (e0, e1) = make_pair(
            rails=(MX_MYRI10G, QUADRICS_QM500), strategy="multirail")
        n = 40

        def app():
            recvs = [e1.irecv(src=0, tag=i) for i in range(n)]
            for i in range(n):
                e0.isend(1, VirtualData(2048), tag=i)
                yield sim.timeout(1.0)  # spread submissions over time
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        frames = [nic.frames_sent for nic in cluster.node(0).nics]
        assert all(f > 0 for f in frames), f"one rail starved: {frames}"


class TestPackInterface:
    def test_incremental_build_and_unpack(self):
        sim, _, (e0, e1) = make_pair()
        pieces = [b"header", b"x" * 500, b"trailer"]

        def app():
            up = begin_unpack(e1, src=0, tag=3)
            ureqs = [up.unpack() for _ in pieces]
            all_in = up.end_unpack()

            msg = begin_pack(e0, dest=1, tag=3)
            for p in pieces:
                msg.pack(p)
            all_sent = msg.end_pack()
            yield all_sent
            yield all_in
            return ureqs

        ureqs = sim.run_process(app())
        assert [r.data.tobytes() for r in ureqs] == pieces

    def test_pack_after_end_rejected(self):
        _, _, (e0, _) = make_pair()
        msg = begin_pack(e0, dest=1)
        msg.pack(b"a")
        msg.end_pack()
        with pytest.raises(MpiError):
            msg.pack(b"b")
        with pytest.raises(MpiError):
            msg.end_pack()

    def test_unpack_after_end_rejected(self):
        _, _, (_, e1) = make_pair()
        up = begin_unpack(e1, src=0)
        up.end_unpack()
        with pytest.raises(MpiError):
            up.unpack()

    def test_pieces_scheduled_eagerly_not_at_barrier(self):
        # The engine may send pieces before end_pack is called — that is the
        # point of untying processing from the application workflow.
        sim, _, (e0, e1) = make_pair()

        def app():
            up = begin_unpack(e1, src=0, tag=1)
            r1 = up.unpack()
            msg = begin_pack(e0, dest=1, tag=1)
            msg.pack(b"early piece")
            yield r1.done   # completes without end_pack ever being called
            return r1

        r1 = sim.run_process(app())
        assert r1.data.tobytes() == b"early piece"


class TestRequestIsItsCompletionEvent:
    """A nonblocking operation is one object: the handle the engine returns
    is its own completion event (``req.done`` is kept as the long form)."""

    def test_native_handles_are_plain_requests_and_events(self):
        sim, _, (e0, e1) = make_pair()
        rreq = e1.irecv(src=ANY, tag=ANY, flow=3)
        sreq = e0.isend(1, b"payload", tag=5, flow=3)
        assert type(sreq) is SendRequest and type(rreq) is RecvRequest
        for req in (sreq, rreq):
            assert isinstance(req, Event) and req.done is req
            assert not hasattr(req, "__dict__")
            assert not req.complete and not req.failed and req.error is None
        # The debug label is rendered from the request's own fields.
        assert (sreq.name, rreq.name) == ("send:1/3/5", "recv:-1/3/-1")
        assert repr(rreq) == "<RecvRequest 'recv:-1/3/-1' pending>"
        # Pending: selectors as posted, no status yet (no wildcard leaks).
        assert (rreq.posted_src, rreq.posted_tag) == (ANY, ANY)
        assert (rreq.data, rreq.actual_src, rreq.actual_tag,
                rreq.actual_len) == (None, None, None, None)
        assert sreq.wrap.completion is sreq
        sim.run()
        assert sreq.complete and rreq.complete and sreq.wrap is None
        assert (rreq.actual_src, rreq.actual_tag, rreq.actual_len) == (0, 5, 7)
        assert (rreq.posted_src, rreq.posted_tag) == (ANY, ANY)
        assert repr(sreq) == "<SendRequest 'send:1/3/5' ok>"

    def test_yield_and_conditions_take_the_handle_itself(self):
        sim, _, (e0, e1) = make_pair()
        seen = []

        def app():
            recvs = [e1.irecv(src=0, tag=t) for t in range(4)]
            recvs[0].done.add_callback(lambda evt: seen.append(
                (evt is recvs[0], evt.ok, recvs[0].actual_tag,
                 recvs[0].data.tobytes())))
            sends = [e0.isend(1, bytes([t]), tag=t) for t in range(4)]
            yield recvs[0]                       # short form
            yield recvs[1].done                  # long form, same object
            yield sim.all_of(recvs[2:] + sends)  # no ``.done`` pass
            first = yield sim.any_of([e1.irecv(src=0, tag=9), recvs[3]])
            assert list(first) == [recvs[3]]
            return recvs

        recvs = sim.run_process(app())
        assert [r.data.tobytes() for r in recvs] == [bytes([t])
                                                     for t in range(4)]
        assert seen == [(True, True, 0, b"\x00")]

    def test_livelock_report_names_the_requests(self):
        heads = {}
        for limit in (3, 7, 8):
            sim, _, (e0, e1) = make_pair()
            e1.irecv(src=0, tag=5)
            e0.isend(1, b"x", tag=5)
            with pytest.raises(SimulationError) as exc:
                sim.run(max_events=limit)
            heads[limit] = str(exc.value).split("next up: ")[1]
        assert heads[3] == "(t=0.8464, <SendRequest 'send:1/0/5' ok>)"
        assert "<RecvRequest 'recv:0/0/5' pending>" in heads[7]
        assert heads[8] == "(t=3.12751, <RecvRequest 'recv:0/0/5' ok>)"
        # The run cut at 8 resumes: one eager exchange is nine kernel entries.
        assert sim.run() == sim.last_event_time and sim.events_processed == 9

    def test_failed_request_reports_without_raising(self):
        sim, _, (e0, e1) = make_pair()
        rreq = e1.irecv(src=0, tag=1, nbytes=2)
        e0.isend(1, b"too long", tag=1)
        sim.run()   # polled only: the run must not raise
        assert rreq.complete and rreq.failed and not rreq.ok
        assert isinstance(rreq.error, MpiError)
        assert "truncation" in str(rreq.error)
        assert rreq.data is None and rreq.actual_src is None


class TestEngineManagement:
    def test_set_strategy_at_runtime(self):
        sim, _, (e0, e1) = make_pair(strategy="fifo")

        def app():
            recvs = [e1.irecv(src=0, tag=i) for i in range(8)]
            e0.set_strategy("aggregation")
            assert isinstance(e0.strategy, AggregationStrategy)
            for i in range(8):
                e0.isend(1, VirtualData(32), tag=i)
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        assert e0.stats.aggregated_packets >= 1

    def test_strategy_instance_accepted(self):
        _, _, (e0, _) = make_pair(strategy=FifoStrategy())
        assert isinstance(e0.strategy, FifoStrategy)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            EngineParams(pull_cost_us=-1)
        with pytest.raises(ValueError):
            EngineParams(rdv_chunk_bytes=0)

    def test_per_mtu_cost_lookup(self):
        p = EngineParams()
        assert p.per_mtu_cost(MX_MYRI10G) == 0.12
        assert p.per_mtu_cost(QUADRICS_QM500) == 0.36
        assert p.per_mtu_cost(GM_MYRINET) == p.per_mtu_cost_us

    def test_engine_requires_nic(self):
        from repro.netsim.node import Node
        from repro.netsim.profiles import HOST_2006_OPTERON
        sim = Simulator()
        bare = Node(sim, 0, memory=HOST_2006_OPTERON.memory)
        with pytest.raises(MpiError):
            NmadEngine(bare)

    def test_tracer_records_engine_activity(self):
        tracer = Tracer(enabled=True)
        sim, _, (e0, e1) = make_pair(tracer=tracer)

        def app():
            e0.isend(1, b"x", tag=0)
            req = yield from e1.recv(src=0)
            return req

        sim.run_process(app())
        kinds = {r.kind for r in tracer}
        assert "submit" in kinds and "send_plan" in kinds and "match" in kinds
