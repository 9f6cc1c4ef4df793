"""Tests for send cancellation (window removal + sequence tombstones)."""

import gc

from repro.core import NmadEngine, PacketWrap, VirtualData
from repro.errors import DeadlineExceededError, MpiError
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator


def make():
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G,))
    return sim, NmadEngine(cluster.node(0)), NmadEngine(cluster.node(1))


class TestCancel:
    def test_cancel_while_in_window(self):
        sim, e0, e1 = make()

        def app():
            # Occupy the NIC so the next submit stays in the window.
            e1.irecv(src=0, tag=0)
            e0.isend(1, VirtualData(20_000), tag=0)
            yield sim.timeout(0.5)
            victim = e0.isend(1, b"never sent", tag=1)
            assert e0.cancel(victim) is True
            try:
                yield victim.done
            except MpiError as exc:
                return str(exc)

        msg = sim.run_process(app())
        assert "cancelled" in msg

    def test_cancel_after_send_fails(self):
        sim, e0, e1 = make()

        def app():
            e1.irecv(src=0, tag=0)
            req = e0.isend(1, b"gone", tag=0)
            yield req.done
            return e0.cancel(req)

        assert sim.run_process(app()) is False

    def test_tombstone_keeps_stream_flowing(self):
        # Cancel a middle message; later traffic on the same flow must
        # still be delivered (no permanent sequence hole).
        sim, e0, e1 = make()

        def app():
            r0 = e1.irecv(src=0, tag=0)
            r2 = e1.irecv(src=0, tag=2)
            e0.isend(1, VirtualData(20_000), tag=0)  # occupies the NIC
            yield sim.timeout(0.5)
            victim = e0.isend(1, b"victim", tag=1)   # seq 1, in window
            after = e0.isend(1, b"after", tag=2)     # seq 2, in window
            assert e0.cancel(victim)
            yield sim.all_of([r0.done, r2.done])
            return r2

        r2 = sim.run_process(app())
        assert r2.data.tobytes() == b"after"
        assert e0.quiesced() and e1.quiesced()

    def test_cancelled_bytes_never_reach_receiver(self):
        sim, e0, e1 = make()

        def app():
            e1.irecv(src=0, tag=0)
            r_after = e1.irecv(src=0, tag=1)
            e0.isend(1, VirtualData(20_000), tag=0)
            yield sim.timeout(0.5)
            victim = e0.isend(1, b"SECRET", tag=1)
            e0.cancel(victim)
            e0.isend(1, b"public", tag=1)
            yield r_after.done
            return r_after

        req = sim.run_process(app())
        # The first tag-1 receive matches the *next* tag-1 message, not the
        # cancelled one.
        assert req.data.tobytes() == b"public"

    def test_cancel_twice_second_fails(self):
        sim, e0, e1 = make()

        def app():
            e1.irecv(src=0, tag=0)
            e0.isend(1, VirtualData(20_000), tag=0)
            yield sim.timeout(0.5)
            victim = e0.isend(1, b"x", tag=1)
            first = e0.cancel(victim)
            second = e0.cancel(victim)
            victim.done.defuse()
            return first, second

        first, second = sim.run_process(app())
        assert first is True and second is False


class TestCancelAnticipated:
    """Cancelling a wrap that a prepared (anticipated) plan names.

    No NIC accepted the packet, so the data has not left the node and
    cancel() must still succeed (regression: it returned False, claiming
    "data already left").  A prepared plan commits nothing — the wrap is
    still in the window — so the plan simply lapses.
    """

    def make_pair(self, params):
        sim = Simulator()
        cluster = Cluster(sim, rails=(MX_MYRI10G,))
        e0 = NmadEngine(cluster.node(0), params=params)
        e1 = NmadEngine(cluster.node(1), params=params)
        return sim, e0, e1

    def test_cancel_wrap_in_anticipated_packet(self):
        from repro.core import EngineParams

        sim, e0, e1 = self.make_pair(EngineParams(dispatch_policy="anticipate"))

        def app():
            r0 = e1.irecv(src=0, tag=0)
            r2 = e1.irecv(src=0, tag=2)
            e0.isend(1, VirtualData(24_000), tag=0)   # NIC busy
            yield sim.timeout(0.5)
            victim = e0.isend(1, b"victim", tag=1)
            # The submit ran the optimizer off the critical path; the plan
            # it prepared is only a plan, the wrap still waits in the window.
            assert e0.transfer.has_anticipated
            wrap = victim.wrap
            assert wrap in e0.window
            cancelled = e0.cancel(victim)
            assert victim.failed and victim.wrap is None
            assert wrap not in e0.window
            e0.isend(1, b"after", tag=2)
            yield sim.all_of([r0.done, r2.done])
            return cancelled, r2

        cancelled, r2 = sim.run_process(app())
        assert cancelled is True
        assert r2.data.tobytes() == b"after"   # stream flows past the hole
        assert e0.quiesced() and e1.quiesced()

    def test_cancel_spares_packet_mates_and_announcements(self):
        from repro.core import EngineParams

        # backlog policy with threshold 2: the prepared plan aggregates
        # the small victim with the rendezvous announcement of a large
        # send.  Cancelling the victim lapses the plan; the large transfer
        # is re-planned and still completes.
        params = EngineParams(dispatch_policy="backlog",
                              backlog_flush_threshold=2)
        sim, e0, e1 = self.make_pair(params)

        def app():
            r0 = e1.irecv(src=0, tag=0)
            rbig = e1.irecv(src=0, tag=3)
            e0.isend(1, VirtualData(24_000), tag=0)   # NIC busy
            yield sim.timeout(0.5)
            victim = e0.isend(1, b"victim", tag=1)
            big = e0.isend(1, VirtualData(100_000), tag=3)
            assert e0.transfer.has_anticipated
            # A plan announces nothing until a NIC takes its packet.
            assert e0.rendezvous.handshakes == 0
            cancelled = e0.cancel(victim)
            yield sim.all_of([r0.done, rbig.done])
            return cancelled, big, rbig

        cancelled, big, rbig = sim.run_process(app())
        assert cancelled is True
        assert big.complete and not big.failed
        assert rbig.data.nbytes == 100_000
        # Only the announcement that left the node counts.
        assert e0.rendezvous.handshakes == 1
        assert e0.quiesced() and e1.quiesced()


class TestSettledHandle:
    """A request points at its wrap only while the send is pending: the
    wrap points back, and a finished message must not be left in a cycle
    (or pin its wrap) for as long as the application keeps the handle."""

    @staticmethod
    def live_wraps():
        gc.collect()
        return sum(type(o) is PacketWrap for o in gc.get_objects())

    def test_settled_send_handles_reference_no_wrap(self):
        sim, e0, e1 = make()
        before = self.live_wraps()
        for tag, size in enumerate((8, 8, 100_000)):   # eager x2, rendezvous
            e1.irecv(src=0, tag=tag)
        held = [e0.isend(1, VirtualData(size), tag=tag)
                for tag, size in enumerate((8, 8, 100_000))]
        assert all(req.wrap.completion is req for req in held)
        assert self.live_wraps() == before + 3
        sim.run()
        assert all(req.complete and req.wrap is None for req in held)
        assert self.live_wraps() == before   # with every handle still held
        assert e0.quiesced() and e1.quiesced()

    def test_cancel_of_a_settled_request_answers_false(self):
        sim, e0, e1 = make()
        e1.irecv(src=0, tag=0)
        sent = e0.isend(1, VirtualData(20_000), tag=0)     # occupies the NIC
        sim.run(until=0.1)
        expired = e0.isend(1, b"late", tag=1, deadline_us=0.5)
        cancelled = e0.isend(1, b"victim", tag=2)
        assert e0.cancel(cancelled) is True
        sim.run()
        assert sent.complete and not sent.failed
        assert isinstance(expired.error, DeadlineExceededError)
        assert isinstance(cancelled.error, MpiError)
        for req in (sent, expired, cancelled):
            assert req.wrap is None
            assert e0.cancel(req) is False   # and does not raise
        assert e0.quiesced()

    def test_a_dropped_pending_handle_still_completes_its_wrap(self):
        sim, e0, e1 = make()
        e1.irecv(src=0, tag=0)
        wrap = e0.isend(1, b"fire and forget", tag=0).wrap   # handle dropped
        gc.collect()
        req = wrap.completion
        assert req is not None and not req.triggered and req.wrap is wrap
        sim.run()
        assert req.complete and not req.failed and req.wrap is None
        assert wrap.wrap_id in e0.transfer.sent_wraps
