"""Overload protection: credit flow control and stall reports.

Covers the opt-in ``flow_control="credit"`` subsystem end to end — credit
consumption/blocking/grants and the kernel's stall reports naming a wedged
peer — plus the guarantee the default mode stays inert (every new counter
zero, no behaviour change).
"""

from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import EngineParams, NmadEngine, VirtualData
from repro.core import flowcontrol
from repro.core.flowcontrol import CREDIT_BYTES, CREDIT_WRAPS
from repro.errors import MpiError, PeerDeadError, SimulationError
from repro.netsim import Cluster, FaultPlan, MX_MYRI10G
from repro.netsim.frames import FrameKind
from repro.sim import Simulator


def make_pair(params, n_nodes=2):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=(MX_MYRI10G,))
    engines = [NmadEngine(cluster.node(i), params=params)
               for i in range(n_nodes)]
    return sim, cluster, engines


FC_COUNTERS = ("credit_stalls", "credits_granted", "nacks_sent")
CREDIT = EngineParams(flow_control="credit")


def budget(nbytes, wraps):
    """Shrink the per-peer credit budget (module constants) so a handful
    of messages exhausts it; a decorator or a ``with`` block."""
    return mock.patch.multiple(flowcontrol, CREDIT_BYTES=nbytes,
                               CREDIT_WRAPS=wraps)


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
            for counter in FC_COUNTERS:
                assert getattr(engine.stats, counter) == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            EngineParams(flow_control="tokens")

    def test_credit_budget_must_fit_one_eager_segment(self):
        # A rail whose rendezvous threshold exceeds the budget would let
        # a maximal eager segment wait for credit that can never exist.
        # The rails come from outside, so the check stays.
        wide = MX_MYRI10G.with_overrides(name="wide",
                                         rdv_threshold=CREDIT_BYTES + 1)
        sim = Simulator()
        cluster = Cluster(sim, rails=(wide,))
        with pytest.raises(MpiError, match="CREDIT_BYTES"):
            NmadEngine(cluster.node(0), params=CREDIT)
        at_budget = wide.with_overrides(rdv_threshold=CREDIT_BYTES)
        cluster = Cluster(Simulator(), rails=(at_budget,))
        assert NmadEngine(cluster.node(0), params=CREDIT).flowcontrol


class TestCreditFlowControl:
    @budget(64 * 1024, 4)
    def test_sender_stalls_and_resumes_on_grants(self):
        sim, cluster, (e0, e1) = make_pair(CREDIT)
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

    @budget(48 * 1024, 8)
    def test_in_flight_bounded_by_credit_budget(self):
        sim, cluster, (e0, e1) = make_pair(CREDIT)
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

    @budget(32 * 1024, 2)
    def test_large_messages_are_credit_exempt(self):
        # A credit-blocked destination still serves rendezvous traffic: the
        # grant protocol is the large-message flow control.  The large
        # message travels on its own flow — per-flow FIFO means it could
        # never overtake credit-blocked eager traffic on the *same* flow.
        sim, cluster, (e0, e1) = make_pair(CREDIT)
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


ACK_CREDIT = EngineParams(reliability="ack", flow_control="credit")


def record_kinds(engine):
    """Wrap ``engine``'s NICs: the returned list gets every frame they post."""
    posted = []
    for nic in engine.node.nics:
        def recording_post_send(frame, cpu_gap_us=0.0,
                                post_send=nic.post_send):
            posted.append(frame)
            return post_send(frame, cpu_gap_us)

        nic.post_send = recording_post_send
    return posted


def assert_ledgers_balance(sender, receiver):
    snd = sender.flowcontrol._peers[receiver.node_id]
    rcv = receiver.flowcontrol._peers[sender.node_id]
    assert (snd.peer_released_bytes, snd.peer_released_wraps) == \
        (rcv.released_bytes_total, rcv.released_wraps_total)
    assert (snd.sent_bytes_total, snd.sent_wraps_total) == \
        (rcv.released_bytes_total, rcv.released_wraps_total)
    assert not snd.blocked


class TestGrantsRideTheAck:
    """With ``reliability="ack"`` a due grant rides the ack the receiver
    owes; a standalone ``credit`` frame is left for a grant no ack can
    carry.  Liveness needs no timer of its own: the ack was owed for a
    frame the peer retransmits until acked."""

    N = 12

    def blocked_burst(self, drop_nth=()):
        """A sender ``N`` messages deep against a four-wrap budget, the
        receives posted up front; ``drop_nth`` on the reverse wire."""
        sim, cluster, (e0, e1) = make_pair(ACK_CREDIT)
        for link in cluster.links:
            if link.src.node_id == 1:
                link.fault_plan = FaultPlan(drop_nth=drop_nth)
        reverse = record_kinds(e1)
        # Whether the sender sat at its budget as each retransmit fired.
        blocked_at_retransmit = []

        def retransmit(ch, pending, inner=e0.reliability._retransmit):
            blocked_at_retransmit.append(e0.window.is_blocked(1))
            inner(ch, pending)

        e0.reliability._retransmit = retransmit
        recvs = [e1.irecv(src=0, tag=i, nbytes=1024) for i in range(self.N)]
        sends = [e0.isend(1, VirtualData(1024), tag=i) for i in range(self.N)]
        sim.run()
        assert all(r.complete and not r.failed for r in recvs + sends)
        assert e0.stats.credit_stalls > 0
        assert e0.quiesced() and e1.quiesced()
        assert_ledgers_balance(e0, e1)
        return cluster, e0, e1, reverse, blocked_at_retransmit

    @budget(64 * 1024, 4)
    def test_grant_only_an_ack_carries_is_applied(self):
        # The receiver sends no data, and every release finds an ack owed,
        # so acks are the only frames that ever carry a grant back.
        _, e0, e1, reverse, _ = self.blocked_burst()
        assert {f.kind for f in reverse} == {FrameKind.REL_ACK}
        assert any(f.fc_grant != (0, 0) for f in reverse)
        assert e1.stats.credits_granted > 0

    @budget(64 * 1024, 4)
    def test_lost_grant_bearing_ack_is_resent_on_the_duplicate(self):
        # The first reverse frame is the ack carrying the grant that
        # unblocks the sender.  Lost, the sender's retransmit draws a
        # duplicate, answered at once by an ack with the grant again.
        cluster, e0, e1, reverse, blocked = self.blocked_burst(drop_nth=(1,))
        first = reverse[0]
        assert first.kind == FrameKind.REL_ACK and first.fc_grant != (0, 0)
        assert sum(link.frames_dropped for link in cluster.links) == 1
        assert blocked[0]  # at its budget until the retransmit
        assert e1.stats.duplicates_suppressed >= 1
        assert FrameKind.CREDIT not in {f.kind for f in reverse}

    def test_late_receive_releases_credit_on_a_credit_frame(self):
        # Data acked before its receive is posted: no ack is owed when the
        # release comes due, so a sequenced credit frame carries the grant.
        sim, cluster, (e0, e1) = make_pair(ACK_CREDIT)
        reverse = record_kinds(e1)
        e0.isend(1, VirtualData(1024), tag=0)
        sim.run()
        assert [f.kind for f in reverse] == [FrameKind.REL_ACK]
        assert not e1.reliability.has_outstanding(0)
        sim.run_process(e1.recv(src=0, tag=0))
        sim.run()
        credit, = [f for f in reverse if f.kind == FrameKind.CREDIT]
        assert credit.rel_seq is not None
        assert credit.fc_grant == (1024, 1)
        assert e0.quiesced() and e1.quiesced()
        assert_ledgers_balance(e0, e1)


class TestStallDiagnosis:
    """A credit-wedged sender is named peer by peer by whichever kernel
    backstop sees the stall: the deadlock report when the queue drains,
    the ``max_events`` livelock report when heartbeats keep it alive."""

    PEER_LINE = ("  peer 1: window backlog=28 wraps/28672B [credit-blocked]; "
                 "credit: outstanding=2048B/2w of 32768B/2w [blocked], "
                 "released-out=0B/0w")

    @pytest.fixture(autouse=True)
    def _small_budget(self):
        with budget(32 * 1024, 2):
            yield

    def wedge(self, **extra):
        params = EngineParams(flow_control="credit", **extra)
        sim, cluster, (e0, e1) = make_pair(params)
        # The receiver never posts and never consumes: credit is never
        # released, the sender wedges with a full backlog.
        reqs = [e0.isend(1, VirtualData(1024), tag=i) for i in range(30)]
        return sim, reqs

    def test_drained_queue_names_the_wedged_peer(self):
        sim, reqs = self.wedge()

        def waiter():
            yield reqs[-1].done

        with pytest.raises(SimulationError) as exc:
            sim.run_process(waiter())
        text = str(exc.value)
        assert "deadlock" in text
        assert "node0: credit-blocked towards peer(s) [1]" in text
        assert self.PEER_LINE in text.splitlines()
        # A wedged request still names itself (label rendered lazily).
        assert repr(reqs[-1].done) == "<SendRequest 'send:1/0/29' pending>"

    def test_live_queue_names_the_wedged_peer(self):
        # Heartbeats keep the queue ticking; the livelock backstop must
        # still point at the peer, not just at the next heartbeat frame.
        sim, reqs = self.wedge(sessions="epoch")
        with pytest.raises(SimulationError) as exc:
            sim.run(max_events=200_000)
        text = str(exc.value)
        assert "likely a livelock" in text
        # Same line as above, with the session layer's segment in between.
        window, credit = self.PEER_LINE.split("; ")
        line, = [ln for ln in text.splitlines() if ln.startswith(window)]
        assert "; session: established inc=0 epoch=1 " in line
        assert line.endswith("; " + credit)

    def test_healthy_slow_receiver_runs_clean(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(flow_control="credit"))
        n = 30
        for i in range(n):
            e0.isend(1, VirtualData(1024), tag=i)

        def rx():
            for i in range(n):
                yield sim.timeout(50.0)
                yield from e1.recv(src=0, tag=i)

        sim.run_process(rx())
        sim.run()
        assert e0.quiesced() and e1.quiesced()


class TestCreditConservation:
    @given(sizes=st.lists(st.integers(min_value=0, max_value=8 * 1024),
                          min_size=1, max_size=40),
           gap=st.floats(min_value=0.0, max_value=5.0))
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @budget(48 * 1024, 8)
    def test_granted_equals_consumed_plus_outstanding(self, sizes, gap):
        sim, cluster, (e0, e1) = make_pair(CREDIT)
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
        assert rcv is not None
        assert_ledgers_balance(e0, e1)


class TestPerPacketCreditGate:
    """Credit is spent once per committed packet, for all of its eager
    wraps at once; the window gate must still track the ledger exactly."""

    @given(credit_bytes=st.integers(min_value=MX_MYRI10G.rdv_threshold,
                                    max_value=4 * MX_MYRI10G.rdv_threshold),
           credit_wraps=st.integers(min_value=1, max_value=24),
           bursts=st.lists(
               st.tuples(st.integers(min_value=1, max_value=2),  # dest
                         st.lists(st.integers(min_value=1, max_value=6_000),
                                  min_size=1, max_size=24),
                         st.floats(min_value=0.0, max_value=40.0)),  # gap
               min_size=1, max_size=6),
           recv_gap=st.floats(min_value=0.0, max_value=8.0))
    # Aggregated packets tipping a four-wrap budget, and a byte budget that
    # eight 4 KiB wraps fill exactly (the planner never overfills it),
    # towards both peers.
    @example(credit_bytes=MX_MYRI10G.rdv_threshold, credit_wraps=4,
             bursts=[(1, [64] * 16, 0.0), (2, [64] * 16, 5.0)], recv_gap=2.0)
    @example(credit_bytes=MX_MYRI10G.rdv_threshold, credit_wraps=24,
             bursts=[(1, [4_096] * 12, 0.0), (2, [4_096] * 12, 0.0)],
             recv_gap=8.0)
    @example(credit_bytes=MX_MYRI10G.rdv_threshold, credit_wraps=1,
             bursts=[(1, [100] * 5, 0.0)], recv_gap=0.0)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_gate_matches_the_ledger_after_every_packet(
            self, credit_bytes, credit_wraps, bursts, recv_gap):
        with budget(credit_bytes, credit_wraps):
            self._gate_matches_the_ledger(credit_bytes, credit_wraps,
                                          bursts, recv_gap)

    @staticmethod
    def _gate_matches_the_ledger(credit_bytes, credit_wraps, bursts,
                                 recv_gap):
        sim, cluster, engines = make_pair(CREDIT, n_nodes=3)
        e0 = engines[0]
        fc, window = e0.flowcontrol, e0.window
        stalls = []

        def exhausted(dest):
            led = fc._peers.get(dest)
            return led is not None and (
                led.sent_bytes_total - led.peer_released_bytes >= credit_bytes
                or led.sent_wraps_total - led.peer_released_wraps
                >= credit_wraps)

        def checked(hook):
            def commit(plan):
                was = window.is_blocked(plan.dest)
                hook(plan)
                for dest in (1, 2):
                    assert window.is_blocked(dest) == exhausted(dest), dest
                if window.is_blocked(plan.dest) and not was:
                    stalls.append(plan.dest)
            return commit

        e0.commit_hooks = tuple(checked(h) for h in e0.commit_hooks)
        sent = {1: [], 2: []}
        for dest, sizes, _gap in bursts:
            sent[dest].extend(sizes)

        def app():
            tags = {1: 0, 2: 0}
            for dest, sizes, gap in bursts:
                for size in sizes:
                    e0.isend(dest, VirtualData(size), tag=tags[dest])
                    tags[dest] += 1
                yield sim.timeout(gap)

        def rx(dest):
            got = []
            for tag in range(len(sent[dest])):
                if recv_gap:
                    yield sim.timeout(recv_gap)
                req = engines[dest].irecv(src=0, tag=tag)
                yield req.done
                got.append(req.actual_len)
            return got

        sim.spawn(app())
        receivers = [sim.spawn(rx(dest)) for dest in (1, 2)]
        sim.run()
        # Exactly once: every receive got its own message, nothing more.
        for dest, proc in zip((1, 2), receivers):
            assert proc.ok and proc.value == sent[dest]
        if credit_wraps == 1:
            assert stalls  # a single wrap exhausts the budget
        assert e0.stats.credit_stalls == len(stalls)
        assert not window.is_blocked(1) and not window.is_blocked(2)
        assert all(e.quiesced() for e in engines)
        assert cluster.conservation_ok()


class TestPreparedPlanSpendsNoCredit:
    """Credit is debited when a NIC takes a packet, never for a plan.

    Under ``dispatch_policy="anticipate"`` a plan is prepared while the
    NICs are busy; retracting one of its sends, or losing its peer, makes
    the plan lapse.  Nothing was spent, so nothing is handed back: the
    sender's cumulative ``sent_*`` totals only ever grow.
    """

    PARAMS = dict(flow_control="credit", dispatch_policy="anticipate")

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
        assert e0.flowcontrol.planning_budget(1) == (CREDIT_BYTES,
                                                     CREDIT_WRAPS)

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
        full = (CREDIT_BYTES, CREDIT_WRAPS)
        assert outcome["budget"] == (full, full)
        snd = e0.flowcontrol._peers.get(1)
        assert snd is None or (snd.sent_bytes_total, snd.sent_wraps_total) \
            == (0, 0)
        assert e0.stats.anticipated_hits == 0
        assert e0.quiesced() and e2.quiesced()
