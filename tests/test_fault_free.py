"""No fault, no recovery: a loss-free fabric never wakes the retransmit clock.

RFC 6298 §5: the retransmit timer guards one segment's ack, so a timeout
with no loss is a failure of the sender's bookkeeping, not of the path.
Each cell replays ``repro report``'s fault-free traffic (40 messages,
mixed eager and rendezvous sizes) with ``reliability="ack"`` and
``flow_control="credit"`` on one MX rail.  Neither engine may retransmit,
suppress a duplicate or quarantine a rail, and the receiver's matcher must
see exactly the messages the reliability-off replay delivers.

The credit cells used to retransmit: a due grant went out as a sequenced
``credit`` frame of its own, whose retransmit deadline a warm RTO measured
from small frames could not stretch over a rendezvous chunk the peer was
still serialising ahead of its ack.  The grant now rides the ack the
receiver owes (``FlowControlLayer._send_credit``).
"""

from collections import Counter

import pytest

from repro.bench.backends import make_backend_pair
from repro.bench.workloads import TrafficSpec, generate_messages, replay
from repro.core import EngineParams
from repro.netsim import MX_MYRI10G

KB = 1024
#: ``repro report``'s traffic.
REPORT_TRAFFIC = TrafficSpec(n_messages=40, max_size=32 * KB,
                             large_fraction=0.1, large_max=512 * KB)


def delivered(params: EngineParams, seed: int) -> tuple[Counter, list]:
    """Replay the report traffic; the (src, tag, seq, bytes) multiset the
    matchers saw, and both engines."""
    pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,),
                             strategy="aggregation", engine_params=params)
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


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("sessions", ["off", "epoch"])
def test_fault_free_credit_replay_never_recovers(sessions, seed):
    params = EngineParams(reliability="ack", flow_control="credit",
                          sessions=sessions)
    seen, engines = delivered(params, seed)
    for engine in engines:
        stats = engine.stats
        assert (stats.retransmits, stats.duplicates_suppressed,
                stats.rails_quarantined) == (0, 0, 0), engine.node_id
        assert engine.quiesced()
    paper, _ = delivered(EngineParams(), seed)
    assert seen == paper
