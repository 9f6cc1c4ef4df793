"""Overload protection: credit flow control, bounded windows, watchdog.

Covers the opt-in ``flow_control="credit"`` subsystem end to end — credit
consumption/blocking/grants, the receiver's unexpected-byte budget with
the NACK-and-resend path, bounded collect admission under both policies,
and the progress watchdog — plus the guarantee the default mode stays
inert (every new counter zero, no behaviour change).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import EngineParams, NmadEngine, VirtualData
from repro.errors import (
    MpiError, PeerDeadError, ProgressStallError, WindowFullError,
)
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator


def make_pair(params, n_nodes=2):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=(MX_MYRI10G,))
    engines = [NmadEngine(cluster.node(i), params=params)
               for i in range(n_nodes)]
    return sim, cluster, engines


FC_COUNTERS = ("credit_stalls", "window_full_events", "unexpected_overflows",
               "credits_granted", "nacks_sent", "nack_resends")


class TestDefaultsStayPaperFaithful:
    def test_off_mode_runs_with_all_counters_zero(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        for i in range(20):
            e0.isend(1, VirtualData(1024), tag=i)

        def rx():
            for i in range(20):
                yield from e1.recv(src=0, tag=i)

        sim.run_process(rx())
        sim.run()
        assert cluster.conservation_ok()
        for engine in (e0, e1):
            assert engine.flowcontrol is None
            assert engine.watchdog is None
            for counter in FC_COUNTERS:
                assert getattr(engine.stats, counter) == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EngineParams(flow_control="tokens")
        with pytest.raises(ValueError):
            EngineParams(flow_control="credit", credit_bytes=0)
        with pytest.raises(ValueError):
            EngineParams(flow_control="credit", credit_wraps=0)
        with pytest.raises(ValueError):
            EngineParams(max_unexpected_bytes=4096)  # needs credit mode
        with pytest.raises(ValueError):
            EngineParams(max_window_wraps=-1)
        with pytest.raises(ValueError):
            EngineParams(max_window_wraps=4, window_policy="explode")
        with pytest.raises(ValueError):
            EngineParams(watchdog_interval_us=-1.0)

    def test_credit_budget_must_fit_one_eager_segment(self):
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        params = EngineParams(flow_control="credit", credit_bytes=1024)
        with pytest.raises(MpiError):
            NmadEngine(cluster.node(0), params=params)


class TestCreditFlowControl:
    def test_sender_stalls_and_resumes_on_grants(self):
        params = EngineParams(flow_control="credit",
                              credit_bytes=64 * 1024, credit_wraps=4)
        sim, cluster, (e0, e1) = make_pair(params)
        n = 100
        for i in range(n):
            e0.isend(1, VirtualData(1024), tag=i)

        def rx():
            for i in range(n):
                yield sim.timeout(3.0)  # slow consumer
                req = e1.irecv(src=0, tag=i, nbytes=1024)
                yield req.done
                assert req.actual_len == 1024

        sim.run_process(rx())
        sim.run()
        assert cluster.conservation_ok()
        assert e0.quiesced() and e1.quiesced()
        assert e0.stats.credit_stalls > 0
        assert e1.stats.credits_granted > 0
        assert e0.stats.eager_bytes == n * 1024
        # All credit returned once the run quiesced.
        assert e0.flowcontrol.planning_budget(1) == (64 * 1024, 4)

    def test_in_flight_bounded_by_credit_budget(self):
        params = EngineParams(flow_control="credit",
                              credit_bytes=48 * 1024, credit_wraps=8)
        sim, cluster, (e0, e1) = make_pair(params)
        n = 120
        for i in range(n):
            e0.isend(1, VirtualData(2048), tag=i)

        def rx():
            yield sim.timeout(2000.0)  # receiver absent for a long while
            for i in range(n):
                req = e1.irecv(src=0, tag=i, nbytes=2048)
                yield req.done

        sim.run_process(rx())
        sim.run()
        # Unexpected buffering can never exceed what the credit budget let
        # out of the sender.
        assert e1.matcher.peak_unexpected_bytes <= 48 * 1024
        assert cluster.conservation_ok()
        assert e0.quiesced() and e1.quiesced()

    def test_large_messages_are_credit_exempt(self):
        # A credit-blocked destination still serves rendezvous traffic: the
        # grant protocol is the large-message flow control.  The large
        # message travels on its own flow — per-flow FIFO means it could
        # never overtake credit-blocked eager traffic on the *same* flow.
        params = EngineParams(flow_control="credit",
                              credit_bytes=32 * 1024, credit_wraps=2)
        sim, cluster, (e0, e1) = make_pair(params)
        for i in range(4):
            e0.isend(1, VirtualData(1024), tag=i)
        big = e0.isend(1, VirtualData(256 * 1024), tag=99, flow=1)

        def rx_big():
            req = e1.irecv(src=0, tag=99, flow=1, nbytes=256 * 1024)
            yield req.done
            assert req.actual_len == 256 * 1024

        sim.run_process(rx_big())
        assert big.done.triggered
        assert e0.window.is_blocked(1)  # small senders still starved

        def rx_rest():
            for i in range(4):
                yield from e1.recv(src=0, tag=i)

        sim.run_process(rx_rest())
        sim.run()
        assert e0.quiesced() and e1.quiesced()
        assert cluster.conservation_ok()


class TestBoundedWindow:
    def test_block_policy_defers_and_completes(self):
        params = EngineParams(max_window_wraps=4)
        sim, cluster, (e0, e1) = make_pair(params)
        n = 40
        reqs = [e0.isend(1, VirtualData(512), tag=i) for i in range(n)]
        assert e0.window.backlog() <= 4
        assert e0.collect.n_deferred == n - 4
        assert e0.stats.window_full_events == n - 4

        def rx():
            for i in range(n):
                req = e1.irecv(src=0, tag=i, nbytes=512)
                yield req.done
                assert req.actual_len == 512

        sim.run_process(rx())
        sim.run()
        assert all(r.done.triggered for r in reqs)
        assert e0.collect.n_deferred == 0
        assert e0.quiesced() and e1.quiesced()
        assert cluster.conservation_ok()

    def test_byte_cap_defers_but_giant_wrap_still_admitted(self):
        params = EngineParams(max_window_bytes=4096)
        sim, cluster, (e0, e1) = make_pair(params)
        # A wrap larger than the whole byte cap must still be admissible
        # into an empty window, or it could never be sent.
        e0.isend(1, VirtualData(16 * 1024), tag=0)
        assert e0.collect.n_deferred == 0
        e0.isend(1, VirtualData(2048), tag=1)
        assert e0.collect.n_deferred == 1

        def rx():
            yield from e1.recv(src=0, tag=0)
            yield from e1.recv(src=0, tag=1)

        sim.run_process(rx())
        sim.run()
        assert e0.quiesced() and e1.quiesced()

    def test_fifo_admission_order_is_preserved(self):
        params = EngineParams(max_window_wraps=2)
        sim, cluster, (e0, e1) = make_pair(params)
        for i in range(10):
            e0.isend(1, VirtualData(256), tag=i)
        got = []

        def rx():
            for _ in range(10):
                req = yield from e1.recv(src=0)
                got.append(req.actual_tag)

        sim.run_process(rx())
        sim.run()
        assert got == list(range(10))

    def test_fail_policy_raises_window_full(self):
        params = EngineParams(max_window_wraps=2, window_policy="fail")
        sim, cluster, (e0, e1) = make_pair(params)
        e0.isend(1, VirtualData(256), tag=0)
        e0.isend(1, VirtualData(256), tag=1)
        with pytest.raises(WindowFullError):
            e0.isend(1, VirtualData(256), tag=2)
        assert e0.stats.window_full_events == 1
        # WindowFullError is an MpiError: MAD-MPI callers catch one type.
        assert issubclass(WindowFullError, MpiError)

    def test_deferred_send_can_be_cancelled(self):
        params = EngineParams(max_window_wraps=1)
        sim, cluster, (e0, e1) = make_pair(params)
        e0.isend(1, VirtualData(256), tag=0)
        deferred = e0.isend(1, VirtualData(256), tag=1)
        assert e0.collect.n_deferred == 1
        assert e0.cancel(deferred)
        deferred.done.defuse()
        assert e0.collect.n_deferred == 0

        def rx():
            yield from e1.recv(src=0, tag=0)

        sim.run_process(rx())
        sim.run()
        assert e0.quiesced() and e1.quiesced()


class TestUnexpectedBudget:
    def test_overflow_nacks_and_resends_byte_exact(self):
        params = EngineParams(flow_control="credit",
                              credit_bytes=256 * 1024, credit_wraps=64,
                              max_unexpected_bytes=3072)
        sim, cluster, (e0, e1) = make_pair(params)
        n = 50
        for i in range(n):
            e0.isend(1, VirtualData(1024), tag=i)

        def rx():
            yield sim.timeout(500.0)
            for i in range(n):
                req = e1.irecv(src=0, tag=i, nbytes=1024)
                yield req.done
                assert req.actual_len == 1024

        sim.run_process(rx())
        sim.run()
        assert e1.matcher.peak_unexpected_bytes <= 3072
        assert e1.stats.unexpected_overflows > 0
        assert e1.stats.nacks_sent == e1.stats.unexpected_overflows
        assert e0.stats.nack_resends == e1.stats.nacks_sent
        assert cluster.conservation_ok()
        assert e0.quiesced() and e1.quiesced()

    def test_budget_requires_credit_mode(self):
        with pytest.raises(ValueError):
            EngineParams(flow_control="off", max_unexpected_bytes=1024)


class TestWatchdog:
    def test_stall_raises_with_per_peer_diagnostics(self):
        params = EngineParams(flow_control="credit",
                              credit_bytes=32 * 1024, credit_wraps=2,
                              watchdog_interval_us=10_000.0)
        sim, cluster, (e0, e1) = make_pair(params)
        # The receiver never posts and never consumes: credit is never
        # released, the sender wedges with a full backlog.
        reqs = [e0.isend(1, VirtualData(1024), tag=i) for i in range(30)]
        with pytest.raises(ProgressStallError) as exc:
            sim.run()
        text = str(exc.value)
        assert "node0.watchdog" in text
        assert "peer 1" in text
        assert "credit" in text
        assert "backlog" in text
        assert text.splitlines()[1:3] == [
            "node0: no engine progress (strategy=aggregation)",
            "  peer 1: window backlog=28 wraps/28672B [credit-blocked]; "
            "credit: outstanding=2048B/2w of 32768B/2w [blocked], "
            "released-out=0B/0w"]
        # A wedged request still names itself (label rendered lazily).
        assert repr(reqs[-1].done) == "<SendRequest 'send:1/0/29' pending>"

    def test_healthy_run_never_trips(self):
        params = EngineParams(flow_control="credit",
                              watchdog_interval_us=5.0)
        sim, cluster, (e0, e1) = make_pair(params)
        n = 30
        for i in range(n):
            e0.isend(1, VirtualData(1024), tag=i)

        def rx():
            for i in range(n):
                yield sim.timeout(50.0)  # slower than the watchdog interval
                yield from e1.recv(src=0, tag=i)

        sim.run_process(rx())
        sim.run()  # drains the dormant watchdog without raising
        assert e0.quiesced() and e1.quiesced()

    def test_watchdog_off_by_default(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams())
        assert e0.watchdog is None


class TestCreditConservation:
    @given(sizes=st.lists(st.integers(min_value=0, max_value=8 * 1024),
                          min_size=1, max_size=40),
           gap=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_granted_equals_consumed_plus_outstanding(self, sizes, gap):
        params = EngineParams(flow_control="credit",
                              credit_bytes=48 * 1024, credit_wraps=8)
        sim, cluster, (e0, e1) = make_pair(params)
        for i, size in enumerate(sizes):
            e0.isend(1, VirtualData(size), tag=i)

        def rx():
            for i, size in enumerate(sizes):
                if gap:
                    yield sim.timeout(gap)
                req = e1.irecv(src=0, tag=i, nbytes=size)
                yield req.done
                assert req.actual_len == size

        sim.run_process(rx())
        sim.run()
        assert e0.quiesced() and e1.quiesced()
        snd = e0.flowcontrol._peers.get(1)
        rcv = e1.flowcontrol._peers.get(0)
        eager = [s for s in sizes if s <= MX_MYRI10G.rdv_threshold]
        if snd is None:
            assert not eager  # pure-rendezvous run never touched credit
            return
        # Conservation: everything consumed was released back and every
        # grant reached the sender — granted == consumed + outstanding(0).
        assert snd.sent_bytes_total == sum(eager)
        assert snd.sent_wraps_total == len(eager)
        assert rcv.released_bytes_total == snd.sent_bytes_total
        assert rcv.released_wraps_total == snd.sent_wraps_total
        assert snd.peer_released_bytes == rcv.released_bytes_total
        assert snd.peer_released_wraps == rcv.released_wraps_total
        assert not snd.blocked


class TestPreparedPlanSpendsNoCredit:
    """Credit is debited when a NIC takes a packet, never for a plan.

    Under ``dispatch_policy="anticipate"`` a plan is prepared while the
    NICs are busy; retracting one of its sends, or losing its peer, makes
    the plan lapse.  Nothing was spent, so nothing is handed back: the
    sender's cumulative ``sent_*`` totals only ever grow.
    """

    PARAMS = dict(flow_control="credit", credit_bytes=64 * 1024,
                  credit_wraps=8, dispatch_policy="anticipate")

    @given(sizes=st.lists(st.integers(min_value=1, max_value=4096),
                          min_size=1, max_size=8),
           victims=st.sets(st.integers(min_value=0, max_value=7)),
           how=st.sampled_from(["cancel", "deadline"]))
    @example(sizes=[512, 512], victims={0}, how="cancel")
    @example(sizes=[512, 512], victims={0}, how="deadline")
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_retracted_sends_never_wind_the_ledger_back(
            self, sizes, victims, how):
        sim, cluster, (e0, e1) = make_pair(EngineParams(**self.PARAMS))
        victims = {v for v in victims if v < len(sizes)}
        kept = [i for i in range(len(sizes)) if i not in victims]
        ledger = []

        def sample():
            st_ = e0.flowcontrol._peers.get(1)
            ledger.append((st_.sent_bytes_total, st_.sent_wraps_total)
                          if st_ is not None else (0, 0))

        def sampler():
            while not running.triggered:
                sample()
                yield sim.timeout(0.25)

        def app():
            recvs = [e1.irecv(src=0, tag=t) for t in [100] + kept]
            e0.isend(1, VirtualData(24_000), tag=100)   # NIC busy ~20us
            yield sim.timeout(0.5)
            sends = [
                e0.isend(1, VirtualData(size), tag=i,
                         deadline_us=2.0 if how == "deadline" and i in victims
                         else None)
                for i, size in enumerate(sizes)]
            assert e0.transfer.has_anticipated   # over the first send
            sample()
            if how == "cancel":
                for i in victims:
                    assert e0.cancel(sends[i])
                    sample()
            yield sim.all_of([r.done for r in recvs])
            assert all(sends[i].failed for i in victims)
            assert all(sends[i].complete for i in kept)

        running = sim.spawn(app())
        sim.spawn(sampler())
        sim.run()
        assert running.ok
        assert e0.quiesced() and e1.quiesced()
        assert all(b1 <= b2 and w1 <= w2 for (b1, w1), (b2, w2)
                   in zip(ledger, ledger[1:]))
        snd = e0.flowcontrol._peers[1]
        assert snd.sent_bytes_total == 24_000 + sum(sizes[i] for i in kept)
        assert snd.sent_wraps_total == 1 + len(kept)
        assert snd.sent_bytes_total == snd.peer_released_bytes
        assert snd.sent_wraps_total == snd.peer_released_wraps
        assert e0.flowcontrol.planning_budget(1) == (64 * 1024, 8)

    def test_peer_teardown_while_a_plan_is_prepared(self):
        # Node 0's only NIC streams a rendezvous chunk to node 2 (~400us)
        # while a plan towards node 1 is prepared; node 1 then dies.  Node
        # 0's heartbeats queue behind that chunk, so only node 0 runs a
        # short failure-detection timeout.
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        e0, e1, e2 = (
            NmadEngine(cluster.node(i), params=EngineParams(
                sessions="epoch", hb_interval_us=10.0,
                hb_timeout_us=40.0 if i == 0 else 5_000.0, **self.PARAMS))
            for i in range(3))
        outcome = {}

        def app():
            rbig = e2.irecv(src=0, tag=7)
            big = e0.isend(2, VirtualData(512 * 1024), tag=7)
            while not e0.stats.rdv_bytes:   # until the chunk is on the NIC
                yield sim.timeout(1.0)
            e0.irecv(src=1, tag=99)   # arms node 0's monitor of node 1
            small = [e0.isend(1, VirtualData(512), tag=t) for t in (0, 1)]
            assert e0.transfer.has_anticipated
            before = e0.flowcontrol.planning_budget(1)
            cluster.node(1).crash()
            while 1 not in e0.dead_peers and sim.now < 5_000.0:
                yield sim.timeout(2.0)
            outcome["nic_busy_at_death"] = not e0.node.nics[0].idle
            outcome["budget"] = (before, e0.flowcontrol.planning_budget(1))
            yield rbig.done
            outcome["sends"] = small, big

        sim.spawn(app())
        sim.run(until=5_000.0)
        small, big = outcome["sends"]
        assert 1 in e0.dead_peers
        assert outcome["nic_busy_at_death"]   # the plan was never handed over
        assert all(isinstance(s.error, PeerDeadError) for s in small)
        assert big.complete and not big.failed
        # Nothing had been spent towards node 1, and nothing is owed.
        assert outcome["budget"] == ((64 * 1024, 8), (64 * 1024, 8))
        snd = e0.flowcontrol._peers.get(1)
        assert snd is None or (snd.sent_bytes_total, snd.sent_wraps_total) \
            == (0, 0)
        assert e0.stats.anticipated_hits == 0
        assert e0.quiesced() and e2.quiesced()
