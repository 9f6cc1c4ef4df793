"""Overload protection: credit flow control, bounded windows, watchdog.

Covers the opt-in ``flow_control="credit"`` subsystem end to end — credit
consumption/blocking/grants, the receiver's unexpected-byte budget with
the NACK-and-resend path, bounded collect admission under both policies,
and the progress watchdog — plus the guarantee the default mode stays
inert (every new counter zero, no behaviour change).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import EngineParams, NmadEngine, VirtualData
from repro.errors import MpiError, ProgressStallError, WindowFullError
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
        assert repr(reqs[-1].done) == "<Event 'send:1/0/29' pending>"

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
