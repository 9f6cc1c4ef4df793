"""The space between "all off" and "all on": every subset of the opt-in layers.

Semantic transparency: with no fault injected, any subset of
{reliability="ack", flow_control="credit", sessions="epoch"} must deliver
exactly what paper mode delivers — the same messages, in the same
per-stream order — and leave every engine quiesced.  The pipeline itself
is checked too: ``engine.layers`` holds exactly the requested layers, in
pipeline order, and nothing at all in paper mode.
"""

import itertools
import random
import struct
from collections import Counter

import pytest

from repro.core import (
    EngineParams,
    FlowControlLayer,
    NmadEngine,
    ReliabilityLayer,
    SessionLayer,
)
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator

N_NODES = 4
#: knob -> (EngineParams overrides, layer class), in pipeline order.
KNOBS = {
    "epoch": ({"sessions": "epoch"}, SessionLayer),
    "ack": ({"reliability": "ack"}, ReliabilityLayer),
    "credit": ({"flow_control": "credit"}, FlowControlLayer),
}
SUBSETS = [subset for r in range(len(KNOBS) + 1)
           for subset in itertools.combinations(KNOBS, r)]


def make_plan(seed=20240613, per_node=40):
    """Seeded many-to-many traffic: (src, dst, tag, seq, nbytes, late)."""
    rng = random.Random(seed)
    next_seq = Counter()
    plan = []
    for _ in range(per_node):
        for src in range(N_NODES):
            dst = rng.choice([n for n in range(N_NODES) if n != src])
            tag = rng.randrange(3)
            # Mostly eager, a few above MX's 32 KB rendezvous threshold.
            nbytes = (rng.randrange(40_000, 120_000) if rng.random() < 0.1
                      else rng.randrange(4, 6_000))
            seq = next_seq[src, dst, tag]
            next_seq[src, dst, tag] += 1
            plan.append((src, dst, tag, seq, nbytes, rng.random() < 0.5))
    return plan


PLAN = make_plan()


def run_plan(subset):
    overrides = {}
    for knob in subset:
        overrides.update(KNOBS[knob][0])
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=N_NODES, rails=(MX_MYRI10G,))
    params = EngineParams(**overrides)
    engines = [NmadEngine(cluster.node(i), params=params)
               for i in range(N_NODES)]
    recvs = []

    def post(msg):
        src, dst, tag, _seq, _nbytes, _late = msg
        recvs.append((msg, engines[dst].irecv(src=src, tag=tag)))

    def sender(node):
        for src, dst, tag, seq, nbytes, _late in PLAN:
            if src == node:
                payload = struct.pack("<I", seq).ljust(nbytes, b"\xa5")
                engines[src].isend(dst, payload, tag=tag)
                yield sim.timeout(3.0)

    def late_receiver():
        # Half the receives are posted after the traffic started, so both
        # the posted and the unexpected matching paths carry messages.
        yield sim.timeout(150.0)
        for msg in PLAN:
            if msg[5]:
                post(msg)

    for msg in PLAN:
        if not msg[5]:
            post(msg)
    procs = [sim.spawn(sender(n)) for n in range(N_NODES)]
    procs.append(sim.spawn(late_receiver()))
    sim.run()
    assert all(p.triggered for p in procs)
    delivered = []
    for (src, dst, tag, _seq, _nbytes, _late), req in recvs:
        assert req.complete and not req.failed, (subset, src, dst, tag)
        data = req.data.tobytes()
        delivered.append((dst, src, tag, struct.unpack("<I", data[:4])[0],
                          len(data)))
    return engines, delivered


def per_stream_order(delivered):
    streams = {}
    for dst, src, tag, seq, _nbytes in delivered:
        streams.setdefault((dst, src, tag), []).append(seq)
    return streams


@pytest.fixture(scope="module")
def paper_mode():
    engines, delivered = run_plan(())
    return delivered


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "off")
def test_every_layer_subset_delivers_what_paper_mode_delivers(
        subset, paper_mode):
    engines, delivered = run_plan(subset)
    # Same messages (src, tag, seq, bytes per receiver) ...
    assert Counter(delivered) == Counter(paper_mode)
    # ... in the same per-(src, tag) order: the k-th receive posted on a
    # stream got the k-th message sent on it.
    assert per_stream_order(delivered) == per_stream_order(paper_mode)
    assert len(delivered) == len(PLAN)
    expected = tuple(KNOBS[k][1] for k in KNOBS if k in subset)
    for engine in engines:
        assert engine.quiesced()
        assert tuple(type(layer) for layer in engine.layers) == expected
        if not subset:
            assert engine.layers == () and engine.tx_layers == ()


def test_paper_mode_streams_are_in_send_order(paper_mode):
    for seqs in per_stream_order(paper_mode).values():
        assert seqs == list(range(len(seqs)))


@pytest.mark.parametrize("kwargs, message", [
    ({"rel_timeout_us": "auto"},
     "rel_timeout_us='auto' needs reliability='ack': the RTT estimator "
     "samples the ack machinery"),
    ({"reliability": "ack", "rel_hedge": "tail"},
     "rel_hedge='tail' needs rel_timeout_us='auto': the hedge delay is a "
     "quantile of the measured RTT"),
    ({"max_unexpected_bytes": 4096},
     "max_unexpected_bytes needs flow_control='credit': a refused message "
     "is only recoverable through the NACK-and-resend path"),
], ids=["auto-without-ack", "hedge-without-auto", "budget-without-credit"])
def test_invalid_layer_combinations_fail_at_construction(kwargs, message):
    with pytest.raises(ValueError) as exc:
        EngineParams(**kwargs)
    assert str(exc.value) == message
