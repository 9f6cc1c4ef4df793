"""Every frame a layer sends on its own pays exactly its documented headers.

docs/PROTOCOLS.md ("Control frames on the wire") gives the wire size of
each control kind in ``HeaderSpec`` terms.  A 2-node replay with ack +
credit (+ epoch sessions), then one receive posted after its data was
acked, produces every one of them; each frame posted to a NIC is recorded
and checked against that table.
"""

from collections import defaultdict

import pytest

from repro.bench.backends import make_backend_pair
from repro.bench.workloads import TrafficSpec, generate_messages, replay
from repro.core import EngineParams
from repro.netsim import MX_MYRI10G
from repro.netsim.frames import FrameKind


def control_wire_sizes(hdr, sessions):
    """kind -> wire size, as docs/PROTOCOLS.md documents it."""
    session = hdr.session_header if sessions else 0
    # A standalone credit grant rides the pipeline after flow control, so
    # the reliability layer sequences it; acks and session frames post
    # straight to the NIC.  With flow control on, every ack carries the
    # current grant.
    sizes = {
        FrameKind.REL_ACK: hdr.rel_header + hdr.checksum + hdr.credit_header,
        FrameKind.CREDIT: (hdr.global_header + hdr.credit_header
                           + hdr.rel_header + hdr.checksum),
    }
    if sessions:
        sizes.update({FrameKind.HEARTBEAT: hdr.global_header,
                      FrameKind.SESSION_HELLO: hdr.global_header,
                      FrameKind.SESSION_WELCOME: hdr.global_header})
    return {kind: size + session for kind, size in sizes.items()}


@pytest.mark.parametrize("sessions", ["off", "epoch"])
def test_control_frames_pay_their_documented_headers(sessions):
    params = EngineParams(reliability="ack", flow_control="credit",
                          sessions=sessions)
    pair = make_backend_pair("madmpi", rails=(MX_MYRI10G,),
                             strategy="aggregation", engine_params=params)
    posted = defaultdict(set)
    for node in pair.cluster.nodes:
        for nic in node.nics:
            def recording_post_send(frame, cpu_gap_us=0.0,
                                    post_send=nic.post_send):
                posted[frame.kind].add(frame.wire_size)
                return post_send(frame, cpu_gap_us)

            nic.post_send = recording_post_send
    spec = TrafficSpec(n_messages=30, max_size=32 * 1024,
                       large_fraction=0.1, large_max=512 * 1024)
    replay(pair, generate_messages(spec, seed=1), verify_content=True)
    # A grant rides the ack owed to the peer when one is owed; a standalone
    # credit frame is left only for a receive posted after its data was
    # acked.  Make one such receive, so the row does not hang on timing.
    posted[FrameKind.CREDIT].clear()
    pair.m0.isend(bytes(64), dest=1, tag=1 << 20)
    pair.sim.run()
    assert not pair.m1.engine.reliability.has_outstanding(0)
    pair.sim.run_process(pair.m1.recv(source=0, tag=1 << 20))
    pair.sim.run()
    assert posted[FrameKind.CREDIT]

    expected = control_wire_sizes(params.hdr, sessions == "epoch")
    assert {kind: posted[kind] for kind in expected} == \
        {kind: {size} for kind, size in expected.items()}
