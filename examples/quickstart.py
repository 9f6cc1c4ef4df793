#!/usr/bin/env python
"""Quickstart: two nodes, one engine each, and the optimization window at work.

Builds a simulated two-node Myri-10G cluster, runs NewMadeleine on both
nodes, and shows the headline behaviour of the paper: a burst of small
sends from different logical flows leaves the node as a *single* physical
packet, coalesced just-in-time when the NIC becomes idle.

Run:  python examples/quickstart.py
"""

from repro.core import NmadEngine
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator, Tracer


def main() -> None:
    sim = Simulator()
    tracer = Tracer(enabled=True)
    cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,), tracer=tracer)
    sender = NmadEngine(cluster.node(0), strategy="aggregation")
    receiver = NmadEngine(cluster.node(1))

    messages = {tag: f"message-{tag}".encode() for tag in range(8)}

    def app():
        # Post the receives (one per tag)...
        recvs = {tag: receiver.irecv(src=0, tag=tag) for tag in messages}
        # ...then submit eight independent sends in one burst.  The engine
        # accumulates them in its optimization window and synthesizes one
        # aggregate packet for the idle NIC.
        for tag, payload in messages.items():
            sender.isend(1, payload, tag=tag)
        yield sim.all_of(recvs.values())   # a request is its own event
        return recvs

    recvs = sim.run_process(app())

    print("Received messages:")
    for tag, req in recvs.items():
        print(f"  tag={tag}: {req.data.tobytes().decode()!r}")
    print(f"All {len(recvs)} messages delivered by t={sim.now:.2f}us")

    s = sender.stats
    print(f"\nSender statistics: {s.phys_packets} physical packet(s) carried "
          f"{s.items_sent} segments ({s.eager_bytes} payload bytes, "
          f"{s.wire_bytes} on the wire including headers)")
    assert s.phys_packets == 1, "the whole burst coalesced"

    print("\nNIC-level timeline (what actually happened):")
    for rec in tracer.of_kind("tx_start") + tracer.of_kind("send_plan"):
        print(f"  {rec}")


if __name__ == "__main__":
    main()
