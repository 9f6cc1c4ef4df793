"""The space between "all off" and "all on": every subset of the opt-in layers.

Semantic transparency: with no fault injected, any subset of the layers
``repro.core.engine.OPT_IN`` declares must deliver exactly what paper mode
delivers — the same messages, in the same per-stream order — and leave
every engine quiesced; and the paper's nine claims must all hold with the
layers under the MAD-MPI pairs of every figure sweep.  The pipeline itself is checked too:
``engine.layers`` holds exactly the requested layers, in pipeline order,
and nothing at all in paper mode.  And the declaration is the only list:
the engine, the transfer layer, the CLI and the chaos runner name no layer.
"""

import ast
import dataclasses
import functools
import itertools
import pathlib
import random
import struct
from collections import Counter

import pytest

import repro
from repro.bench import pingpong
from repro.bench.backends import make_backend_pair
from repro.bench.claims import CLAIMS, evaluate_claims
from repro.core import EngineParams, NmadEngine, ReliabilityLayer
from repro.core import engine as engine_module
from repro.core.engine import OPT_IN
from repro.core.protocols import Layer
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator

N_NODES = 4
#: on-value -> its layer's declaration, in pipeline order.
KNOBS = {layer.on: layer for layer in OPT_IN}
SUBSETS = [subset for r in range(len(KNOBS) + 1)
           for subset in itertools.combinations(KNOBS, r)]


def overrides_for(subset):
    return {KNOBS[on].knob: on for on in subset}


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
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=N_NODES, rails=(MX_MYRI10G,))
    params = EngineParams(**overrides_for(subset))
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
    expected = tuple(KNOBS[k].cls for k in KNOBS if k in subset)
    for engine in engines:
        assert engine.quiesced()
        assert tuple(type(layer) for layer in engine.layers) == expected
        if not subset:
            assert engine.layers == () and engine.tx_layers == ()


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "off")
def test_every_layer_subset_reproduces_the_paper_claims(subset, monkeypatch):
    # The figure sweeps build their pairs through one factory: hand every
    # pair the subset's engine (the baselines ignore it).  With sessions
    # on, Fig. 2's 1 and 2 MiB Quadrics points stream 576us chunks, longer
    # than the default heartbeat timeout; the bulk floor keeps them alive.
    params = EngineParams(**overrides_for(subset))
    monkeypatch.setattr(pingpong, "make_backend_pair", functools.partial(
        make_backend_pair, engine_params=params))
    verdicts = evaluate_claims()
    assert [v.claim for v in verdicts] == list(CLAIMS)
    failed = [(v.claim.claim_id, v.measured) for v in verdicts
              if not v.passed]
    assert not failed, (subset, failed)


HOOKS = {"commit": "commit_hooks", "on_match": "match_hooks",
         "on_post": "post_hooks"}


@pytest.mark.parametrize("subset", SUBSETS, ids=lambda s: "+".join(s) or "off")
def test_hooks_are_exactly_the_overrides(subset):
    cluster = Cluster(Simulator(), n_nodes=2, rails=(MX_MYRI10G,))
    engine = NmadEngine(cluster.node(0),
                        params=EngineParams(**overrides_for(subset)))
    for hook, attr in HOOKS.items():
        default = getattr(Layer, hook)
        want = tuple(getattr(layer, hook) for layer in engine.layers
                     if getattr(type(layer), hook) is not default)
        assert getattr(engine, attr) == want, (hook, subset)
        if not subset:
            assert getattr(engine, attr) == ()
    # The overrides today: credit spends and releases, sessions watch.
    for attr in ("commit_hooks", "match_hooks"):
        assert [h.__self__ for h in getattr(engine, attr)] \
            == [engine.flowcontrol] * (engine.flowcontrol is not None)
    assert [h.__self__ for h in engine.post_hooks] \
        == [engine.sessions] * (engine.sessions is not None)


def test_inherited_hook_defaults_are_never_entered(monkeypatch):
    # Count every entry into the ``Layer`` defaults, and into the override
    # a counting subclass adds to a layer that inherits the default: only
    # the override may run, once per sourced receive.
    entered = Counter()

    def counting(name):
        def hook(self, arg):
            entered[name] += 1
        return hook

    for hook in HOOKS:
        monkeypatch.setattr(Layer, hook, counting(f"Layer.{hook}"))

    class CountingReliability(ReliabilityLayer):
        def on_post(self, src):
            entered["CountingReliability.on_post"] += 1

    monkeypatch.setattr(engine_module, "OPT_IN", tuple(
        dataclasses.replace(layer, cls=CountingReliability)
        if layer.cls is ReliabilityLayer else layer for layer in OPT_IN))
    engines, delivered = run_plan(tuple(KNOBS))
    assert len(delivered) == len(PLAN)
    for engine in engines:
        assert type(engine.reliability) is CountingReliability
        assert [h.__self__ for h in engine.post_hooks] \
            == [engine.sessions, engine.reliability]
    assert entered == {"CountingReliability.on_post": len(PLAN)}


def test_paper_mode_streams_are_in_send_order(paper_mode):
    for seqs in per_stream_order(paper_mode).values():
        assert seqs == list(range(len(seqs)))


def test_every_layer_has_one_mode_besides_off():
    assert len(KNOBS) == len(OPT_IN) == 3
    for layer in OPT_IN:
        choices = dict(engine_module._KNOBS)[layer.knob].choices
        assert set(choices) == {"off", layer.on}
        assert getattr(EngineParams(), layer.knob) == "off"
    assert sorted(layer.tx for layer in OPT_IN) == list(range(len(OPT_IN)))


@pytest.mark.parametrize("path", ["core/engine.py", "core/transfer.py",
                                  "cli.py", "chaos/runner.py"])
def test_the_layers_are_listed_once(path):
    # Everything past the declaration iterates it: no on-value and no
    # command-line flag of a layer is spelled out, and the transfer layer
    # reaches no layer through the engine.
    tree = ast.parse((pathlib.Path(repro.__file__).parent / path).read_text())
    spelled = ({layer.on for layer in OPT_IN}
               | {"--" + layer.knob.replace("_", "-") for layer in OPT_IN})
    constants = {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant)}
    assert not constants & spelled
    if path == "core/transfer.py":
        attrs = {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)}
        assert not attrs & {layer.attr for layer in OPT_IN}
