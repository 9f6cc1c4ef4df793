"""Unit tests for the receive-side matcher (ordering + MPI matching)."""

import pytest

from repro.core.data import Bytes
from repro.core.matching import Incoming, Matcher
from repro.core.packet import RdvReqItem, SegItem
from repro.core.requests import ANY, RecvRequest
from repro.errors import ProtocolError
from repro.sim import Simulator


def seg(src=0, flow=0, tag=0, seq=0, payload=b"x"):
    item = SegItem(src=src, flow=flow, tag=tag, seq=seq, data=Bytes(payload))
    return Incoming(src=src, flow=flow, tag=tag, seq=seq,
                    nbytes=len(payload), item=item)


def rdv(src=0, flow=0, tag=0, seq=0, nbytes=100_000, handle=1):
    item = RdvReqItem(src=src, flow=flow, tag=tag, seq=seq, handle=handle,
                      nbytes=nbytes)
    return Incoming(src=src, flow=flow, tag=tag, seq=seq, nbytes=nbytes,
                    item=item)


def recv_req(sim, src=ANY, flow=0, tag=ANY, capacity=None):
    return RecvRequest(sim, src=src, flow=flow, tag=tag, capacity=capacity)


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def matched():
    return []


@pytest.fixture()
def matcher(matched):
    return Matcher(on_match=lambda inc, req: matched.append((inc, req)))


class TestMatching:
    def test_posted_then_delivered(self, sim, matcher, matched):
        req = recv_req(sim)
        matcher.post(req)
        matcher.deliver(seg())
        assert len(matched) == 1
        assert matched[0][1] is req

    def test_delivered_then_posted(self, sim, matcher, matched):
        matcher.deliver(seg())
        assert matcher.n_unexpected == 1
        req = recv_req(sim)
        matcher.post(req)
        assert len(matched) == 1
        assert matcher.n_unexpected == 0

    def test_tag_selective_matching(self, sim, matcher, matched):
        req5 = recv_req(sim, tag=5)
        matcher.post(req5)
        matcher.deliver(seg(tag=3, seq=0))
        assert len(matched) == 0  # tag 3 waits as unexpected
        matcher.deliver(seg(tag=5, seq=1))
        assert len(matched) == 1
        assert matched[0][0].tag == 5

    def test_src_selective_matching(self, sim, matcher, matched):
        req = recv_req(sim, src=2)
        matcher.post(req)
        matcher.deliver(seg(src=1))
        assert len(matched) == 0
        matcher.deliver(seg(src=2))
        assert len(matched) == 1

    def test_wildcards_match_anything(self, sim, matcher, matched):
        matcher.post(recv_req(sim, src=ANY, tag=ANY))
        matcher.deliver(seg(src=7, tag=9))
        assert len(matched) == 1

    def test_flow_isolation(self, sim, matcher, matched):
        # A receive on flow 1 never matches flow-0 traffic, even wildcard.
        matcher.post(recv_req(sim, flow=1))
        matcher.deliver(seg(flow=0))
        assert len(matched) == 0
        matcher.deliver(seg(flow=1))
        assert len(matched) == 1

    def test_first_posted_wins(self, sim, matcher, matched):
        r1, r2 = recv_req(sim), recv_req(sim)
        matcher.post(r1)
        matcher.post(r2)
        matcher.deliver(seg(seq=0))
        assert matched[0][1] is r1
        matcher.deliver(seg(seq=1))
        assert matched[1][1] is r2

    def test_unexpected_matched_in_arrival_order(self, sim, matcher, matched):
        matcher.deliver(seg(seq=0, payload=b"first"))
        matcher.deliver(seg(seq=1, payload=b"second"))
        matcher.post(recv_req(sim))
        assert matched[0][0].item.data.tobytes() == b"first"


class TestSequenceParking:
    def test_out_of_order_parks_until_gap_fills(self, sim, matcher, matched):
        matcher.post(recv_req(sim))
        matcher.post(recv_req(sim))
        matcher.deliver(seg(seq=1, payload=b"late"))
        assert len(matched) == 0
        assert matcher.n_parked == 1
        matcher.deliver(seg(seq=0, payload=b"early"))
        assert len(matched) == 2
        assert matched[0][0].item.data.tobytes() == b"early"
        assert matched[1][0].item.data.tobytes() == b"late"
        assert matcher.n_parked == 0

    def test_long_reorder_chain_drains(self, sim, matcher, matched):
        for _ in range(5):
            matcher.post(recv_req(sim))
        for seq in (4, 2, 3, 1):
            matcher.deliver(seg(seq=seq))
        assert len(matched) == 0
        matcher.deliver(seg(seq=0))
        assert [m[0].seq for m in matched] == [0, 1, 2, 3, 4]

    def test_parking_is_per_src_flow_stream(self, sim, matcher, matched):
        matcher.post(recv_req(sim))
        matcher.deliver(seg(src=1, seq=1))   # parked: src 1 missing seq 0
        matcher.deliver(seg(src=2, seq=0))   # src 2 stream independent
        assert len(matched) == 1
        assert matched[0][0].src == 2

    def test_duplicate_seq_raises(self, sim, matcher):
        matcher.post(recv_req(sim))
        matcher.deliver(seg(seq=0))
        with pytest.raises(ProtocolError, match="duplicate"):
            matcher.deliver(seg(seq=0))

    def test_duplicate_parked_seq_raises(self, sim, matcher):
        matcher.deliver(seg(seq=3))
        with pytest.raises(ProtocolError, match="two deliveries"):
            matcher.deliver(seg(seq=3))

    def test_engine_matcher_replay_raises_in_every_config(self, replay_pair):
        # ``replay_pair`` is parametrized in conftest: paper mode, ack, and
        # ack + credit + epoch sessions all build the same strict matcher.
        matcher = replay_pair[2].matcher
        matcher.deliver(seg(seq=0))
        with pytest.raises(ProtocolError, match="duplicate or replayed"):
            matcher.deliver(seg(seq=0))
        matcher.deliver(seg(seq=3))
        with pytest.raises(ProtocolError, match="two deliveries"):
            matcher.deliver(seg(seq=3))

    def test_rdv_descriptor_ordered_with_segments(self, sim, matcher, matched):
        matcher.post(recv_req(sim))
        matcher.post(recv_req(sim))
        matcher.deliver(rdv(seq=1))        # announcement arrives early
        assert len(matched) == 0
        matcher.deliver(seg(seq=0))
        assert [m[0].seq for m in matched] == [0, 1]
        assert matched[1][0].is_rdv


class TestStats:
    def test_counters(self, sim, matcher):
        matcher.deliver(seg(seq=1))
        matcher.deliver(seg(seq=0))
        assert matcher.parked_total == 1
        assert matcher.delivered == 2
        assert matcher.unexpected_total == 2
        assert matcher.n_posted == 0
        matcher.post(recv_req(sim, tag=55))
        assert matcher.n_posted == 1


class TestWatchers:
    """watch() semantics: probing reports arrival, never reservation."""

    def test_fires_on_unexpected_arrival(self, sim, matcher):
        evt = sim.event()
        matcher.watch(ANY, 0, ANY, evt)
        matcher.deliver(seg(tag=3, payload=b"hello"))
        assert evt.triggered and evt.ok
        assert evt.value.tag == 3 and evt.value.nbytes == 5
        assert matcher.n_watchers == 0

    def test_fires_immediately_on_queued_message(self, sim, matcher):
        matcher.deliver(seg(tag=3))
        evt = sim.event()
        matcher.watch(ANY, 0, 3, evt)
        assert evt.triggered and evt.ok
        assert matcher.n_watchers == 0

    def test_fires_when_preposted_receive_consumes(self, sim, matcher,
                                                   matched):
        # Regression: the watcher only woke on the unexpected-queue path, so
        # a probe racing a pre-posted receive waited forever and its
        # watcher tuple leaked.
        req = recv_req(sim)
        matcher.post(req)
        evt = sim.event()
        matcher.watch(ANY, 0, ANY, evt)
        matcher.deliver(seg(tag=5, payload=b"stolen"))
        assert len(matched) == 1 and matched[0][1] is req  # receive matched
        assert evt.triggered and evt.ok                    # prober still woke
        assert evt.value.tag == 5 and evt.value.nbytes == 6
        assert matcher.n_watchers == 0                     # nothing leaked

    def test_non_matching_watcher_stays(self, sim, matcher):
        evt = sim.event()
        matcher.watch(ANY, 0, 9, evt)
        matcher.post(recv_req(sim))
        matcher.deliver(seg(tag=3))
        assert not evt.triggered
        assert matcher.n_watchers == 1

    def test_skip_tombstone_never_wakes_watchers(self, sim, matcher):
        evt = sim.event()
        matcher.watch(ANY, 0, ANY, evt)
        matcher.deliver(Incoming(src=0, flow=0, tag=0, seq=0, nbytes=0,
                                 item=None, is_skip=True))
        assert not evt.triggered
        assert matcher.n_watchers == 1
