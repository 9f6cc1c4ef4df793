"""No fault, no recovery: a loss-free fabric never wakes the retransmit clock.

RFC 6298 §5: the retransmit timer guards one segment's ack, so a timeout
with no loss is a failure of the sender's bookkeeping, not of the path.
Each cell replays ``repro report``'s fault-free traffic (40 messages,
mixed eager and rendezvous sizes) with ``reliability="ack"`` on the mesh,
across the lattice rails (one MX rail with ``aggregation``; MX + Quadrics
with ``multirail``) × ``flow_control`` off or credit × ``sessions`` off or
epoch × seeds 0–3, 32 cells.  Neither engine may retransmit, suppress a
duplicate or quarantine a rail, both must quiesce, and the receiver's
matcher must see exactly the messages the reliability-off replay on the
same rails delivers.

The one-rail credit cells keep a test of their own: they used to
retransmit, because a due grant went out as a sequenced ``credit`` frame
of its own, whose retransmit deadline a warm RTO measured from small
frames could not stretch over a rendezvous chunk the peer was still
serialising ahead of its ack.  The grant now rides the ack the receiver
owes (``FlowControlLayer._send_credit``).  The two-rail cells are where a
re-send with no loss behind it would show: a frame copied onto the other
rail is absorbed as a suppressed duplicate.
"""

from collections import Counter

import pytest

from repro.bench.backends import make_backend_pair
from repro.bench.workloads import TrafficSpec, generate_messages, replay
from repro.core import EngineParams
from repro.netsim import MX_MYRI10G, QUADRICS_QM500

KB = 1024
#: ``repro report``'s traffic.
REPORT_TRAFFIC = TrafficSpec(n_messages=40, max_size=32 * KB,
                             large_fraction=0.1, large_max=512 * KB)
#: ``repro report --rails N``: the rails and the strategy that drives them.
RAILS = {1: ((MX_MYRI10G,), "aggregation"),
         2: ((MX_MYRI10G, QUADRICS_QM500), "multirail")}


def delivered(params: EngineParams, rails: int,
              seed: int) -> tuple[Counter, list]:
    """Replay the report traffic; the (src, tag, seq, bytes) multiset the
    matchers saw, and both engines."""
    nics, strategy = RAILS[rails]
    pair = make_backend_pair("madmpi", rails=nics, strategy=strategy,
                             engine_params=params)
    seen: Counter = Counter()
    engines = [mpi.engine for mpi in pair.ranks]
    for engine in engines:
        def recording_deliver(inc, now=0.0, deliver=engine.matcher.deliver):
            seen[(inc.src, inc.tag, inc.seq, inc.nbytes)] += 1
            deliver(inc, now)

        engine.matcher.deliver = recording_deliver
    replay(pair, generate_messages(REPORT_TRAFFIC, seed=seed),
           verify_content=True)
    return seen, engines


def assert_never_recovers(rails: int, flow_control: str, sessions: str,
                          seed: int) -> None:
    params = EngineParams(reliability="ack", flow_control=flow_control,
                          sessions=sessions)
    seen, engines = delivered(params, rails, seed)
    for engine in engines:
        stats = engine.stats
        assert (stats.retransmits, stats.duplicates_suppressed,
                stats.rails_quarantined) == (0, 0, 0), engine.node_id
        assert engine.quiesced()
    paper, _ = delivered(EngineParams(), rails, seed)
    assert seen == paper


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sessions", ["off", "epoch"])
def test_fault_free_credit_replay_never_recovers(sessions, seed):
    assert_never_recovers(1, "credit", sessions, seed)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sessions", ["off", "epoch"])
@pytest.mark.parametrize("rails, flow_control",
                         [(1, "off"), (2, "off"), (2, "credit")],
                         ids=["1rail-off", "2rail-off", "2rail-credit"])
def test_fault_free_replay_never_recovers(rails, flow_control, sessions,
                                          seed):
    assert_never_recovers(rails, flow_control, sessions, seed)
