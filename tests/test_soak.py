"""Soak tests: sustained mixed traffic across every axis at once.

One long deterministic run per configuration — thousands of messages,
several flows, eager and rendezvous sizes, both directions, cancellations
sprinkled in — asserting global invariants at the end.  These complement
the hypothesis tests (many small random cases) with a few deep ones.
"""

import random

import pytest

from repro.core import EngineParams, NmadEngine, VirtualData
from repro.core import flowcontrol
from repro.netsim import Cluster, MX_MYRI10G, QUADRICS_QM500
from repro.sim import Simulator


@pytest.mark.parametrize("strategy,rails", [
    ("aggregation", (MX_MYRI10G,)),
    ("adaptive", (MX_MYRI10G,)),
    ("multirail", (MX_MYRI10G, QUADRICS_QM500)),
])
def test_bidirectional_soak(strategy, rails):
    n_msgs = 400
    sim = Simulator()
    cluster = Cluster(sim, rails=rails)
    params = EngineParams(rdv_chunk_bytes=64 * 1024)
    engines = [NmadEngine(cluster.node(i), strategy=strategy, params=params)
               for i in range(2)]
    rng = random.Random(1234)
    plan = {}
    for direction in (0, 1):
        msgs = []
        for i in range(n_msgs):
            size = rng.choice([0, 8, 64, 1024, 8 * 1024, 100_000])
            msgs.append((i, size))
        plan[direction] = msgs

    def sender(me):
        peer = 1 - me
        for i, size in plan[me]:
            engines[me].isend(peer, VirtualData(size), tag=i)
            if rng.random() < 0.3:
                yield sim.timeout(rng.random() * 3.0)
        if False:
            yield  # pragma: no cover

    def receiver(me):
        peer = 1 - me
        reqs = [engines[me].irecv(src=peer, tag=i, nbytes=size)
                for i, size in plan[peer]]
        for req, (_i, size) in zip(reqs, plan[peer], strict=True):
            yield req.done
            assert req.actual_len == size

    sim.spawn(sender(0))
    sim.spawn(sender(1))
    sim.spawn(receiver(0))
    sim.run_process(receiver(1))
    sim.run()
    assert cluster.conservation_ok()
    for engine in engines:
        assert engine.quiesced()
    total = sum(size for _i, size in plan[0])
    assert engines[0].stats.eager_bytes + engines[0].stats.rdv_bytes == total


@pytest.mark.parametrize("adaptive", [False, True],
                         ids=["static", "rel-auto"])
def test_flood_soak_credit_mode_stays_bounded(adaptive, monkeypatch):
    """Four flooding senders vs one slow receiver under credit flow control.

    The overload-protection claim in one run: the receiver's unexpected
    buffer never exceeds what the senders' credit allows (credit is
    released only on the match, so each sender has at most
    ``CREDIT_BYTES`` buffered unexpected), and despite the stalls every
    byte is delivered exactly once.  The ``rel-auto`` variant stacks the
    reliability layer and its measured timing on top
    (``reliability="ack"``): measured grant pacing must not break a
    single overload invariant.  The budget is shrunk so it binds within
    the run.
    """
    n_senders = 4
    n_msgs = 120
    credit_bytes = 32 * 1024
    credit_wraps = 8
    monkeypatch.setattr(flowcontrol, "CREDIT_BYTES", credit_bytes)
    monkeypatch.setattr(flowcontrol, "CREDIT_WRAPS", credit_wraps)
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_senders + 1, rails=(MX_MYRI10G,))
    timing = ({"reliability": "ack", "rel_ack_delay_us": 10.0}
              if adaptive else {})
    params = EngineParams(flow_control="credit", **timing)
    engines = [NmadEngine(cluster.node(i), params=params)
               for i in range(n_senders + 1)]
    rx = engines[n_senders]
    rng = random.Random(4242)
    plan = {s: [(i, rng.choice([512, 1024, 2048])) for i in range(n_msgs)]
            for s in range(n_senders)}

    def sender(s):
        for i, size in plan[s]:
            engines[s].isend(n_senders, VirtualData(size), tag=i)
            if rng.random() < 0.2:
                yield sim.timeout(rng.random())
        if False:
            yield  # pragma: no cover

    def receiver():
        for i in range(n_msgs):
            yield sim.timeout(5.0)  # a deliberately slow consumer
            for s in range(n_senders):
                size = plan[s][i][1]
                req = rx.irecv(src=s, tag=i, nbytes=size)
                yield req.done
                assert req.actual_len == size

    for s in range(n_senders):
        sim.spawn(sender(s))
    sim.run_process(receiver())
    sim.run()

    assert cluster.conservation_ok()
    for engine in engines:
        assert engine.quiesced()

    # Bounded: the unexpected buffer holds at most every sender's credit
    # (here the 8-wrap budget binds before the byte budget).
    assert rx.matcher.peak_unexpected_bytes <= n_senders * credit_bytes
    assert rx.matcher.peak_unexpected_bytes <= n_senders * credit_wraps * 2048
    assert rx.matcher.n_unexpected == 0 and rx.matcher.unexpected_bytes == 0
    for s in range(n_senders):
        assert engines[s].window.empty

    # Byte-exact despite the overload machinery kicking in: every message
    # was admitted exactly once (the per-request actual_len asserts above
    # checked the payloads) and sent exactly once.
    assert rx.matcher.delivered == n_senders * n_msgs
    for s in range(n_senders):
        total = sum(size for _i, size in plan[s])
        assert engines[s].stats.eager_bytes == total

    # The protection was actually exercised.
    assert sum(engines[s].stats.credit_stalls for s in range(n_senders)) > 0

    if adaptive:
        # The estimator measured the flood, and on a loss-free fabric the
        # measured RTO never once fired at a healthy frame.
        assert sum(engines[s].stats.rtt_samples
                   for s in range(n_senders)) > 0
        assert sum(engines[s].stats.retransmits
                   for s in range(n_senders)) == 0


def test_soak_with_cancellations():
    n_msgs = 300
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G,))
    e0 = NmadEngine(cluster.node(0))
    e1 = NmadEngine(cluster.node(1))
    rng = random.Random(77)
    outcomes = {"sent": 0, "cancelled": 0}

    def sender():
        for i in range(n_msgs):
            req = e0.isend(1, VirtualData(256), tag=i)
            if rng.random() < 0.25 and e0.cancel(req):
                outcomes["cancelled"] += 1
                req.done.defuse()
            else:
                outcomes["sent"] += 1
            if rng.random() < 0.2:
                yield sim.timeout(rng.random())

    sim.spawn(sender())
    sim.run()
    assert outcomes["sent"] + outcomes["cancelled"] == n_msgs
    assert outcomes["cancelled"] > 0

    # The receiver does not know which sends were cancelled: it simply
    # receives whatever actually arrived; exactly the surviving messages
    # (and none of the tombstones) are matchable.
    def drain():
        received = 0
        while received < outcomes["sent"]:
            yield from e1.recv(src=0)
            received += 1
        return received

    assert sim.run_process(drain()) == outcomes["sent"]
    assert e1.matcher.n_unexpected == 0
    assert e0.quiesced() and e1.quiesced()
