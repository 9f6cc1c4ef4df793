"""Property-based end-to-end tests: random irregular traffic, any strategy.

These are the strongest correctness guarantees in the suite: for arbitrary
seeded multi-flow workloads, across all strategies and several NIC
profiles, every message arrives intact and in per-flow order, nothing is
lost or duplicated on any link, every aggregate respects the rendezvous
threshold, and the engines quiesce.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.backends import make_backend_pair
from repro.bench.workloads import Message, TrafficSpec, generate_messages, replay
from repro.errors import ReproError
from repro.netsim import FaultPlan, GM_MYRINET, MX_MYRI10G, QUADRICS_QM500

PROFILES = {"mx": MX_MYRI10G, "elan": QUADRICS_QM500, "gm": GM_MYRINET}

SLOW = settings(max_examples=12, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class TestGenerator:
    def test_deterministic_per_seed(self):
        spec = TrafficSpec(n_messages=30)
        assert generate_messages(spec, seed=7) == generate_messages(spec, seed=7)
        assert generate_messages(spec, seed=7) != generate_messages(spec, seed=8)

    def test_respects_spec_ranges(self):
        spec = TrafficSpec(n_messages=200, n_flows=3, n_tags=2,
                           min_size=10, max_size=100, large_fraction=0.0)
        for msg in generate_messages(spec, seed=1):
            assert 10 <= msg.size <= 100
            assert 0 <= msg.flow < 3
            assert 0 <= msg.tag < 2
            assert msg.gap_us >= 0

    def test_large_fraction_produces_rendezvous_sizes(self):
        spec = TrafficSpec(n_messages=100, large_fraction=1.0)
        assert all(m.size >= 128 * 1024 for m in generate_messages(spec, 3))

    def test_payload_deterministic(self):
        msg = Message(gap_us=0, flow=0, tag=0, size=1000, priority=0,
                      payload_seed=5)
        assert msg.payload() == msg.payload()
        assert len(msg.payload()) == 1000

    def test_spec_validation(self):
        with pytest.raises(ReproError):
            TrafficSpec(n_messages=0)
        with pytest.raises(ReproError):
            TrafficSpec(min_size=10, max_size=5)
        with pytest.raises(ReproError):
            TrafficSpec(large_fraction=1.5)
        with pytest.raises(ReproError):
            TrafficSpec(burst_prob=-0.1)


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    strategy=st.sampled_from(["aggregation", "fifo", "adaptive"]),
    tech=st.sampled_from(["mx", "elan"]),
)
def test_random_traffic_delivered_intact(seed, strategy, tech):
    spec = TrafficSpec(n_messages=25, n_flows=3, n_tags=3,
                       max_size=8 * 1024, large_fraction=0.15,
                       large_max=256 * 1024)
    messages = generate_messages(spec, seed=seed)
    pair = make_backend_pair("madmpi", rails=(PROFILES[tech],),
                             strategy=strategy)
    done = replay(pair, messages, verify_content=True)
    assert len(done) == len(messages)
    # Per-flow completion respects per-flow submission order of sizes.
    for flow in {m.flow for m in messages}:
        submitted = [m.size for m in messages if m.flow == flow]
        completed = [m.size for m, _ in done if m.flow == flow]
        assert completed == submitted
    # Byte conservation on every link.
    assert pair.cluster.conservation_ok()
    # Engines quiesced: no stranded window entries or rendezvous state.
    for mpi in pair.ranks:
        assert mpi.engine.quiesced()


@SLOW
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_random_traffic_aggregates_respect_threshold(seed):
    spec = TrafficSpec(n_messages=30, max_size=16 * 1024, large_fraction=0.1)
    messages = generate_messages(spec, seed=seed)
    pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,))
    replay(pair, messages, verify_content=False)
    stats = pair.m0.engine.stats
    total = sum(m.size for m in messages)
    assert stats.eager_bytes + stats.rdv_bytes == total
    # Every message above the threshold went rendezvous.
    n_large = sum(1 for m in messages if m.size > MX_MYRI10G.rdv_threshold)
    assert pair.m0.engine.rendezvous.handshakes == n_large


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    backend=st.sampled_from(["mpich", "openmpi"]),
)
def test_random_traffic_baselines_also_correct(seed, backend):
    spec = TrafficSpec(n_messages=20, n_flows=2, n_tags=2,
                       max_size=4 * 1024, large_fraction=0.1,
                       large_max=128 * 1024)
    messages = generate_messages(spec, seed=seed)
    pair = make_backend_pair(backend, rails=(MX_MYRI10G,))
    done = replay(pair, messages, verify_content=True)
    assert len(done) == len(messages)
    assert pair.cluster.conservation_ok()


@SLOW
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_multirail_random_traffic_intact(seed):
    spec = TrafficSpec(n_messages=20, n_flows=3, n_tags=2,
                       max_size=8 * 1024, large_fraction=0.25,
                       large_max=512 * 1024)
    messages = generate_messages(spec, seed=seed)
    pair = make_backend_pair("madmpi", rails=(MX_MYRI10G, QUADRICS_QM500),
                             strategy="multirail")
    done = replay(pair, messages, verify_content=True)
    assert len(done) == len(messages)
    assert pair.cluster.conservation_ok()
    for mpi in pair.ranks:
        assert mpi.engine.quiesced()


@SLOW
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_strategies_agree_on_results_not_timing(seed):
    """Different strategies must deliver the same bytes; only time differs."""
    spec = TrafficSpec(n_messages=15, n_flows=2, n_tags=2, max_size=2048,
                       large_fraction=0.0)
    messages = generate_messages(spec, seed=seed)
    outcomes = {}
    for strategy in ("aggregation", "fifo"):
        pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,),
                                 strategy=strategy)
        done = replay(pair, messages, verify_content=True)
        outcomes[strategy] = [r.data.tobytes() for _, r in done]
    assert outcomes["aggregation"] == outcomes["fifo"]


@SLOW
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    drop_seed=st.integers(min_value=0, max_value=10_000),
    drop_rate=st.floats(min_value=0.0, max_value=0.25),
)
def test_ack_mode_delivers_exactly_once_under_random_loss(
    seed, drop_seed, drop_rate
):
    """Reliability property: byte-exact, no duplicates, under random drops.

    Every link drops frames with a seeded random rate; the ack-mode engine
    must still deliver every message intact, exactly once, in per-flow
    order, and fully quiesce.
    """
    import random

    from repro.core import EngineParams

    params = EngineParams(reliability="ack", rel_ack_delay_us=10.0,
                          rel_retry_budget=20)
    pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,),
                             engine_params=params)
    rng = random.Random(drop_seed)
    links = pair.cluster.links
    per_link = 12 // len(links)  # bound losses: no frame exhausts its retries
    for link in links:
        lossy = [n for n in range(1, 501) if rng.random() < drop_rate]
        link.fault_plan = FaultPlan(drop_nth=lossy[:per_link])
    spec = TrafficSpec(n_messages=20, n_flows=3, n_tags=3,
                       max_size=8 * 1024, large_fraction=0.1,
                       large_max=256 * 1024)
    messages = generate_messages(spec, seed=seed)
    done = replay(pair, messages, verify_content=True)
    assert len(done) == len(messages)
    for flow in {m.flow for m in messages}:
        submitted = [m.size for m in messages if m.flow == flow]
        completed = [m.size for m, _ in done if m.flow == flow]
        assert completed == submitted
    # Fault-aware conservation: sent == delivered + dropped on every link.
    assert pair.cluster.conservation_ok(allow_faults=True)
    for mpi in pair.ranks:
        assert mpi.engine.quiesced()


#: Message ``tag`` carries ``PATTERN[tag:tag + size]``: no two payloads are
#: equal, and a 512 KiB chunk landed at a wrong offset changes the bytes.
PATTERN = bytes(range(251)) * 3200


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_two_rail_replays_stop_at_the_transport(data):
    """Exactly-once over two rails with nothing but the transport's filter.

    Drops, wire echoes and reorders on every link of both rails make the
    reliability layer retransmit, fail over and hedge, so grants, eager
    segments and bulk chunks are replayed on either rail.  The per-peer
    sequence filter is the only duplicate filter in the engine; above it
    a replay would raise out of ``run()``.
    """
    from repro.core import EngineParams, NmadEngine
    from repro.netsim import Cluster
    from repro.sim import Simulator

    params = EngineParams(reliability="ack", rel_hedge="tail")
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G, QUADRICS_QM500))
    e0, e1 = (NmadEngine(cluster.node(i), strategy="multirail", params=params)
              for i in range(2))
    nth = st.integers(1, 32)
    # One link also loses a run of consecutive frames: timeouts in a row
    # quarantine its rail, and what was in flight replays on the other one.
    cut = data.draw(st.sampled_from(cluster.links), label="cut")
    cut_from = data.draw(nth, label="cut_from")
    for link in cluster.links:
        drops = data.draw(st.sets(nth, max_size=3), label="drop")
        if link is cut:
            drops |= set(range(cut_from, cut_from + 4))
        link.fault_plan = FaultPlan(
            drop_nth=drops,
            dup_nth=data.draw(st.sets(nth, max_size=4), label="dup"),
            reorder=data.draw(st.dictionaries(nth, st.floats(5.0, 300.0),
                                              max_size=3),
                              label="reorder").items())
    eager = data.draw(st.lists(st.integers(1, 4096), min_size=1, max_size=24),
                      label="eager")
    bulk = data.draw(st.lists(st.integers(65 * 1024, 768 * 1024),
                              min_size=1, max_size=3), label="bulk")
    sizes = data.draw(st.permutations(eager + bulk), label="order")
    gaps = data.draw(st.lists(st.floats(0.0, 50.0), min_size=len(sizes),
                              max_size=len(sizes)), label="gaps")
    payloads = [PATTERN[tag:tag + size] for tag, size in enumerate(sizes)]
    recvs = [e1.irecv(src=0, tag=tag) for tag in range(len(sizes))]
    sends = []

    def sender():
        for tag, (gap, payload) in enumerate(zip(gaps, payloads)):
            yield sim.timeout(gap)
            sends.append(e0.isend(1, payload, tag=tag))

    sim.spawn(sender())
    sim.run()
    for recv, send, payload in zip(recvs, sends, payloads, strict=True):
        assert recv.complete and not recv.failed
        assert recv.data.tobytes() == payload
        assert send.complete and not send.failed
    assert e1.matcher.delivered == len(sizes)
    assert e0.quiesced() and e1.quiesced()
    assert cluster.conservation_ok(allow_faults=True)
