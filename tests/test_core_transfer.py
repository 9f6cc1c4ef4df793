"""Focused tests for the transfer layer (idle pull, kick, costs, errors)."""

import pytest

from repro.core import EngineParams, NmadEngine, VirtualData, transfer
from repro.errors import ProtocolError
from repro.netsim import Cluster, GM_MYRINET, MX_MYRI10G, QUADRICS_QM500
from repro.netsim.frames import Frame
from repro.sim import Simulator, Tracer


def make(rails=(MX_MYRI10G,), **kw):
    sim = Simulator()
    cluster = Cluster(sim, rails=rails)
    e0 = NmadEngine(cluster.node(0), **kw)
    e1 = NmadEngine(cluster.node(1), **kw)
    return sim, cluster, e0, e1


class TestPullMachinery:
    def test_submit_to_idle_nic_sends_immediately(self):
        sim, _, e0, e1 = make()

        def app():
            e1.irecv(src=0)
            req = e0.isend(1, b"now")
            yield req.done
            return sim.now

        # One small packet: completes within a few microseconds — no
        # accumulation delay was inserted while the NIC was idle.
        assert sim.run_process(app()) < 3.0

    def test_requests_accumulate_only_while_nic_busy(self):
        sim, _, e0, e1 = make()

        def app():
            recvs = [e1.irecv(src=0, tag=i) for i in range(3)]
            # First send occupies the NIC...
            e0.isend(1, VirtualData(20_000), tag=0)
            yield sim.timeout(0.5)  # NIC now busy with #0
            # ...the next two arrive while it is busy and must coalesce.
            e0.isend(1, VirtualData(64), tag=1)
            e0.isend(1, VirtualData(64), tag=2)
            yield sim.all_of([r.done for r in recvs])

        sim.run_process(app())
        assert e0.stats.phys_packets == 2
        assert e0.stats.aggregated_packets == 1

    def test_kick_is_idempotent_per_rail(self):
        sim, _, e0, e1 = make()

        def app():
            e1.irecv(src=0)
            req = e0.isend(1, b"x")
            # Extra kicks while a pull is already scheduled must be no-ops.
            e0.transfer.kick()
            e0.transfer.kick()
            yield req.done

        sim.run_process(app())
        assert e0.stats.phys_packets == 1

    def test_sent_wraps_recorded_for_dependencies(self):
        sim, _, e0, e1 = make()

        def app():
            e1.irecv(src=0)
            req = e0.isend(1, b"first")
            wrap_id = req.wrap.wrap_id   # a settled request lets go of it
            yield req
            return wrap_id

        wrap_id = sim.run_process(app())
        assert wrap_id in e0.transfer.sent_wraps

    def test_dedicated_rail_served_by_its_nic_only(self):
        sim, cluster, e0, e1 = make(rails=(MX_MYRI10G, QUADRICS_QM500))

        def app():
            e1.irecv(src=0, tag=0)
            req = e0.isend(1, b"pinned", tag=0, rail=1)
            yield req.done

        sim.run_process(app())
        assert cluster.node(0).nics[0].frames_sent == 0
        assert cluster.node(0).nics[1].frames_sent == 1


class TestWrapLedger:
    """``sent_wraps`` keeps the wraps still in flight (and the retracted
    ones), not every wrap the engine ever sent."""

    def test_dependent_submitted_after_its_dependency_left_is_sent(self):
        sim, _, e0, e1 = make()

        def app():
            recvs = [e1.irecv(src=0, tag=t) for t in range(2)]
            first = e0.isend(1, b"first", tag=0)
            wrap_id = first.wrap.wrap_id
            yield first
            # Gone from the ledger's outstanding ids: it counts as sent.
            assert wrap_id not in e0.transfer.sent_wraps.outstanding
            second = e0.isend(1, b"second", tag=1, depends_on=wrap_id)
            yield sim.all_of(recvs + [second])
            return second, recvs

        second, recvs = sim.run_process(app())
        assert second.complete and not second.failed
        assert [r.data.tobytes() for r in recvs] == [b"first", b"second"]

    def test_dependent_submitted_in_the_same_instant_leaves_at_the_drain(
            self):
        # The dependency's send completion must be recorded before the
        # idle edge pulls: the dependent then leaves the instant the card
        # drains.  A completion queued behind the pull would find the
        # dependent still blocked at that edge.
        tracer = Tracer(enabled=True)
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,), tracer=tracer)
        e0, e1 = (NmadEngine(cluster.node(i), strategy="fifo", tracer=tracer)
                  for i in range(2))
        recvs = [e1.irecv(src=0, tag=t) for t in range(2)]
        first = e0.isend(1, VirtualData(4096), tag=0)
        e0.isend(1, VirtualData(64), tag=1, depends_on=first.wrap.wrap_id)
        sim.run()
        assert all(r.ok for r in recvs)
        nic = cluster.node(0).nic().name
        times = [(r.kind, r.time) for r in tracer.records
                 if r.source == nic and r.kind in ("tx_start", "tx_done")]
        assert times == [("tx_start", 0.0),
                         ("tx_done", pytest.approx(4.2424, abs=1e-9)),
                         ("tx_start", pytest.approx(4.2424, abs=1e-9)),
                         ("tx_done", pytest.approx(5.1392, abs=1e-9))]
        assert sim.now == pytest.approx(11.2246222, abs=1e-6)

    def test_dependent_of_a_cancelled_wrap_stalls_as_an_orphan(self):
        sim, _, e0, e1 = make()
        ids = []

        def app():
            doomed = e0.isend(1, b"doomed", tag=0)   # still in the window
            ids.append(doomed.wrap.wrap_id)
            assert e0.cancel(doomed)
            e0.isend(1, b"dependent", tag=1, depends_on=ids[0])
            yield e1.irecv(src=0, tag=1)

        from repro.errors import SimulationError
        with pytest.raises(SimulationError, match="deadlock") as info:
            sim.run_process(app())
        # The same diagnosis as a dependency on an id never issued: the
        # dependent is held in the window for good.
        assert "peer 1: window backlog=1 wraps" in str(info.value)
        ledger = e0.transfer.sent_wraps
        assert ids[0] in ledger.outstanding and ids[0] not in ledger

    def test_nothing_outstanding_after_a_clean_burst(self):
        # Eager segments, rendezvous announcements and their grants (control
        # wraps), every engine sending and receiving.
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=4, rails=(MX_MYRI10G,))
        engines = [NmadEngine(cluster.node(i)) for i in range(4)]
        sizes = [48, 100_000] * 8

        def rank(r):
            e = engines[r]
            recvs = [e.irecv(src=(r - 1) % 4, tag=t)
                     for t in range(len(sizes))]
            sends = [e.isend((r + 1) % 4, VirtualData(n), tag=t)
                     for t, n in enumerate(sizes)]
            yield sim.all_of(recvs + sends)

        procs = [sim.spawn(rank(r)) for r in range(4)]
        sim.run()
        assert all(p.triggered and p.ok for p in procs)
        for e in engines:
            # Sixteen sends and eight grants issued, none still outstanding.
            assert e.transfer.sent_wraps.issued == 24
            assert e.transfer.sent_wraps.outstanding == {}


class TestIdleEdge:
    """An idle edge posts a hop only if a pull could do something; the work
    the hop used to do must still get done (docs/PERFORMANCE.md)."""

    @staticmethod
    def _records(tracer, kind, source="node0"):
        return [r for r in tracer.records
                if r.kind == kind and r.source.startswith(source)]

    def test_isend_at_the_timestamp_of_an_unwanted_edge(self):
        # The first send's completion callback submits the second one at
        # the very timestamp the NIC drained: the window was empty at the
        # edge (no hop), so the kick from that isend is the only pull —
        # and the packet still leaves at that same instant.
        tracer = Tracer(enabled=True)
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,), tracer=tracer)
        e0, e1 = (NmadEngine(cluster.node(i)) for i in range(2))
        selects = []
        select = e0.strategy.select
        e0.strategy.select = lambda ctx: selects.append(sim.now) or select(ctx)
        recvs = [e1.irecv(src=0, tag=t) for t in (0, 1)]
        second = []
        first = e0.isend(1, b"first", tag=0)
        first.add_callback(
            lambda _evt: second.append(e0.isend(1, b"second", tag=1)))
        sim.run()
        assert all(r.complete and not r.failed for r in recvs + second)
        drained, _ = [r.time for r in self._records(tracer, "idle")]
        plans = [r.time for r in self._records(tracer, "send_plan")]
        starts = [r.time for r in self._records(tracer, "tx_start")]
        assert plans == starts == [0.0, drained]
        # One election per packet: no pull found the window empty-handed
        # before, or found the NIC busy after.
        assert selects == plans
        assert e0.quiesced() and e1.quiesced()

    @pytest.mark.parametrize("strategy, rails", [
        ("aggregation", (MX_MYRI10G,)),
        ("multirail", (MX_MYRI10G, QUADRICS_QM500)),
    ])
    def test_granted_bulk_streams_from_edge_to_edge(self, strategy, rails):
        # After the announcement left, the window is empty for the whole
        # transfer: every chunk but the first is pulled by an idle edge
        # that is wanted only because granted bulk is waiting.
        tracer = Tracer(enabled=True)
        sim = Simulator()
        cluster = Cluster(sim, rails=rails, tracer=tracer)
        params = EngineParams(rdv_chunk_bytes=16 * 1024)
        e0, e1 = (NmadEngine(cluster.node(i), strategy=strategy,
                             params=params) for i in range(2))
        rreq = e1.irecv(src=0, tag=3)
        sreq = e0.isend(1, VirtualData(256 * 1024), tag=3)
        sim.run()
        assert sreq.complete and rreq.complete and not rreq.failed
        assert rreq.actual_len == 256 * 1024
        bulk = self._records(tracer, "send_bulk")
        assert len(bulk) == 16
        assert sorted({r.detail["rail"] for r in bulk}) \
            == list(range(len(rails)))
        for rail, nic in enumerate(e0.node.nics):
            # Back to back: every chunk after a card's first is pulled at
            # the instant the frame before it finished.
            drained = {r.time for r in tracer.records
                       if r.source == nic.name and r.kind == "tx_done"}
            chunks = [r.time for r in bulk if r.detail["rail"] == rail]
            assert len(chunks) >= 3
            assert all(t in drained for t in chunks[1:])
        assert e0.quiesced() and e1.quiesced()

    def test_lapsed_plan_is_cleared_by_the_next_edge(self):
        # A plan prepared while the NIC was busy lapses when its wrap
        # leaves the window some other way (here: taken out directly, as a
        # peer teardown does).  The window is empty at the next edge, yet
        # the edge must still be wanted: the pull is what drops the plan.
        params = EngineParams(dispatch_policy="anticipate")
        sim, _, e0, e1 = make(params=params)

        def app():
            rbig = e1.irecv(src=0, tag=0)
            e0.isend(1, VirtualData(24_000), tag=0)   # NIC busy ~20us
            yield sim.timeout(1.0)
            small = e0.isend(1, VirtualData(64), tag=1)
            assert e0.transfer.has_anticipated
            e0.window.take(small.wrap)
            assert e0.window.empty and e0.transfer.has_anticipated
            yield rbig

        sim.run_process(app())
        assert not e0.transfer.has_anticipated
        assert e0.stats.anticipated_hits == 0 and e0.stats.phys_packets == 1
        assert e0.quiesced()


class TestCosts:
    def test_pull_cost_on_critical_path(self, monkeypatch):
        def one_way(pull_cost):
            monkeypatch.setattr(transfer, "PULL_COST_US", pull_cost)
            sim, _, e0, e1 = make()

            def app():
                e1.irecv(src=0)
                req = e0.isend(1, b"x")
                yield req.done
                return sim.now

            return sim.run_process(app())

        assert one_way(2.0) == pytest.approx(one_way(0.0) + 2.0)

    def test_per_mtu_cost_scales_with_frames(self):
        def one_way(cost):
            profile = MX_MYRI10G.with_overrides(per_mtu_cost_us=cost)
            sim, _, e0, e1 = make(rails=(profile,))

            def app():
                req = e1.irecv(src=0)
                e0.isend(1, VirtualData(16 * 1024))  # 4 MTUs of 4KB
                yield req.done
                return sim.now

            return sim.run_process(app())

        delta = one_way(1.0) - one_way(0.0)
        assert delta == pytest.approx(5.0)  # ceil(16K+hdr / 4K) = 5 frames

    def test_gather_cost_charged_only_without_gs(self):
        # Same profile with and without gather/scatter; identical wire
        # timing, so the delta is exactly the staging copies.
        def burst(profile):
            sim, _, e0, e1 = make(rails=(profile,))

            def app():
                recvs = [e1.irecv(src=0, tag=i) for i in range(8)]
                for i in range(8):
                    e0.isend(1, VirtualData(512), tag=i)
                yield sim.all_of([r.done for r in recvs])
                return sim.now

            return sim.run_process(app())

        with_gs = burst(GM_MYRINET.with_overrides(gather_scatter=True))
        without = burst(GM_MYRINET)
        assert without > with_gs

    def test_single_segment_never_pays_gather(self):
        # One segment is a direct injection even without gather/scatter.
        sim, _, e0, e1 = make(rails=(GM_MYRINET,))

        def app():
            e1.irecv(src=0)
            req = e0.isend(1, VirtualData(512))
            yield req.done
            return sim.now

        t = sim.run_process(app())
        # Pure wire time + constants; staging 512B at 900MB/s would add
        # ~0.65us, so assert we are under the with-copy bound.
        p = GM_MYRINET
        base = (p.send_overhead_us + (512 + 32) / p.bandwidth_mbps
                + p.latency_us + p.recv_overhead_us)
        assert t < base + 2.5


class TestReceivePath:
    def test_foreign_frame_rejected(self):
        sim, cluster, e0, e1 = make()
        frame = Frame(src_node=0, dst_node=1, kind="alien", wire_size=10,
                      payload={"not": "a PhysPacket"}, payload_size=0)
        cluster.node(0).nic().post_send(frame)
        with pytest.raises(ProtocolError, match="non-engine frame"):
            sim.run()

    def test_demux_cost_delays_completion(self, monkeypatch):
        def one_way():
            sim, _, e0, e1 = make()

            def app():
                r = e1.irecv(src=0)
                e0.isend(1, b"x")
                yield r.done
                return sim.now

            return sim.run_process(app())

        packet = transfer.DEMUX_PACKET_COST_US
        item = transfer.DEMUX_ITEM_COST_US
        assert (packet, item) == (0.30, 0.05)
        t = one_way()
        monkeypatch.setattr(transfer, "DEMUX_PACKET_COST_US", 0.0)
        monkeypatch.setattr(transfer, "DEMUX_ITEM_COST_US", 0.0)
        # One packet carrying one item: one header decode, one item step.
        assert t == pytest.approx(one_way() + packet + item)

    def test_stats_wire_bytes_include_headers(self):
        sim, _, e0, e1 = make()

        def app():
            r = e1.irecv(src=0)
            e0.isend(1, VirtualData(100))
            yield r.done

        sim.run_process(app())
        # global (16) + seg header (16) + payload (100)
        assert e0.stats.wire_bytes == 132
        assert e0.stats.eager_bytes == 100
