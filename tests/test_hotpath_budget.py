"""Host-neutral budget for the per-message path (docs/PERFORMANCE.md).

Five pins, none of which depends on how fast the host is:

* tracing off never *enters* ``Tracer.emit`` (the guard is at the call site,
  not inside ``emit``), in paper mode and with every opt-in layer on;
* total Python calls per message, counted by ``cProfile`` (exact for a
  fixed workload), stay under a ceiling set 3 % above the value measured
  when this file was written;
* kernel entries per message (``sim.events_processed`` / messages) on the
  same two workloads, exact on any host and any interpreter, so the
  ceiling is the measured value itself: an entry either moves the
  simulated clock, wakes the application or hands work between layers —
  a new one has to say which;
* a finished message leaves only its handles behind: counted with the cycle
  collector disabled, the objects still alive (and the bytes still
  allocated) per message while both handles are held stay under a ceiling,
  and nothing — no request, event, wrap or payload view — is left for the
  collector once they are dropped;
* tracing on produces the same record stream as the commit before the gate
  went in (``hotpath_trace_golden.json``, captured there with
  ``write_golden()``), and does not move simulated time.
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
from collections import Counter
from pathlib import Path

import pytest

from repro.bench.perf import object_census
from repro.core import Bytes, EngineParams, NmadEngine, VirtualData
from repro.core.packet import PacketWrap
from repro.core.requests import RecvRequest, SendRequest
from repro.madmpi import Communicator, MadMpi
from repro.netsim import MX_MYRI10G, Cluster
from repro.sim import Event, Simulator, Tracer

GOLDEN = Path(__file__).with_name("hotpath_trace_golden.json")

PAPER: dict = {}
HARDENED = dict(reliability="ack", flow_control="credit", sessions="epoch",
                rel_timeout_us="auto", hb_interval_us=500.0,
                hb_timeout_us=5000.0)

#: Measured 183.8 / 81.4 calls per message at this commit on CPython 3.11
#: (parent commit: 203.8 / 92.6); the ceilings are those values + 3 %.
#: Lower them when the path gets shorter; never raise them.
PINGPONG_CALLS_PER_MSG = 189.3
BURST_CALLS_PER_MSG = 83.9
#: Kernel entries per message, exactly as measured (parent commit: 10.01 /
#: 4.140625).  Ping-pong: five timed hops (tx, link, rx, demux, match), the
#: deferred pull, tx-done, and the completions of the send and the receive
#: request; the .01 is the two rank processes starting and ending, over 400
#: messages.  An integer count needs no slack.
PINGPONG_ENTRIES_PER_MSG = 9.01
BURST_ENTRIES_PER_MSG = 4.125
#: Tracked objects alive per delivered message while the application holds
#: both handles: the send request, the receive request (each its own
#: completion event and, under MAD-MPI, the MPI handle), the payload
#: wrapper, and the application's own ``(send, recv)`` record.  The parent
#: commit kept 7.
OBJECTS_PER_MSG = 4.0
#: Bytes still allocated per such message (``tracemalloc``): measured 464.5
#: in paper mode and 500.3 hardened on the 4 x 32 burst below (parent
#: commit: 784.5 / 820.3).
RETAINED_BYTES_PER_MSG = 650.0


class CountingTracer(Tracer):
    """Counts entries into ``emit`` whether or not tracing is enabled."""

    def __init__(self, enabled: bool = False) -> None:
        super().__init__(enabled=enabled)
        self.entered = 0

    def emit(self, time, source, kind, **detail):
        self.entered += 1
        super().emit(time, source, kind, **detail)


def build(n_ranks: int, tracer: Tracer | None = None, params: dict = PAPER):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_ranks, rails=(MX_MYRI10G,),
                      tracer=tracer)
    world = Communicator(list(range(n_ranks)), comm_id=0)  # flow in traces
    mpis = [MadMpi(NmadEngine(cluster.node(i), params=EngineParams(**params)),
                   world) for i in range(n_ranks)]
    return sim, mpis


def pingpong(sim: Simulator, mpis, rounds: int, size: int = 64) -> int:
    """``rounds`` round trips between ranks 0 and 1; returns messages sent."""
    m0, m1 = mpis[0], mpis[1]
    payload = bytes(size)

    def ping():
        for r in range(rounds):
            m0.isend(payload, dest=1, tag=r)
            yield from m0.recv(source=1, tag=r)

    def pong():
        for r in range(rounds):
            yield from m1.recv(source=0, tag=r)
            m1.isend(payload, dest=0, tag=r)

    procs = [sim.spawn(ping()), sim.spawn(pong())]
    sim.run()
    assert all(p.triggered and p.ok for p in procs)
    return 2 * rounds


def burst(sim: Simulator, mpis, depth: int = 64, size: int = 48,
          held: list | None = None) -> int:
    """Every rank posts ``depth`` receives from its left neighbour, then
    fires ``depth`` sends at its right one; returns messages sent.  With
    ``held``, one ``(send, recv)`` record per message outlives the run."""
    n = len(mpis)
    payload = bytes(size)

    def rank(r: int):
        mpi = mpis[r]
        recvs = [mpi.irecv(source=(r - 1) % n, tag=t) for t in range(depth)]
        sends = [mpi.isend(payload, dest=(r + 1) % n, tag=t)
                 for t in range(depth)]
        yield from mpi.wait_all(recvs + sends)
        if held is not None:
            held.extend(zip(sends, recvs))

    procs = [sim.spawn(rank(r)) for r in range(n)]
    sim.run()
    assert all(p.triggered and p.ok for p in procs)
    return n * depth


# -- (a) tracing off never enters emit ----------------------------------------

@pytest.mark.parametrize("params", [PAPER, HARDENED],
                         ids=["paper", "hardened"])
def test_disabled_tracer_is_never_entered(params):
    tracer = CountingTracer()
    sim, mpis = build(2, tracer, params)
    assert pingpong(sim, mpis, rounds=200) == 400
    assert all(m.engine.tracer is tracer for m in mpis)
    assert tracer.entered == 0

    tracer = CountingTracer()
    sim, mpis = build(4, tracer, params)
    assert burst(sim, mpis, depth=64) == 256
    assert tracer.entered == 0
    assert sum(m.engine.stats.aggregated_packets for m in mpis) > 0


def test_counting_tracer_counts_when_enabled():
    # The zero above means "not entered", not "the subclass is never called".
    tracer = CountingTracer(enabled=True)
    sim, mpis = build(2, tracer)
    pingpong(sim, mpis, rounds=2)
    assert tracer.entered == len(tracer.records) > 0


# -- (b) Python calls per message ---------------------------------------------

def _calls_per_message(workload, n_ranks: int, **kwargs) -> float:
    sim, mpis = build(n_ranks)
    profile = cProfile.Profile()
    msgs = profile.runcall(workload, sim, mpis, **kwargs)
    return pstats.Stats(profile).total_calls / msgs


def test_pingpong_calls_per_message_under_budget():
    calls = _calls_per_message(pingpong, 2, rounds=200)
    assert calls <= PINGPONG_CALLS_PER_MSG, calls


def test_burst_calls_per_message_under_budget():
    calls = _calls_per_message(burst, 4, depth=64)
    assert calls <= BURST_CALLS_PER_MSG, calls


def test_pingpong_kernel_entries_per_message_exact():
    sim, mpis = build(2)
    msgs = pingpong(sim, mpis, rounds=200)
    assert sim.events_processed / msgs <= PINGPONG_ENTRIES_PER_MSG


def test_burst_kernel_entries_per_message_exact():
    sim, mpis = build(4)
    msgs = burst(sim, mpis, depth=64)
    assert sim.events_processed / msgs <= BURST_ENTRIES_PER_MSG


# -- (c) what a finished message leaves behind ---------------------------------

@pytest.mark.parametrize("params", [PAPER, HARDENED],
                         ids=["paper", "hardened"])
def test_finished_message_object_budget(params):
    sim, mpis = build(4, params=params)
    census = object_census(
        lambda held: burst(sim, mpis, depth=32, held=held))
    assert census["messages"] == 128
    assert census["objects_per_msg"] <= OBJECTS_PER_MSG, census
    assert census["retained_bytes_per_msg"] <= RETAINED_BYTES_PER_MSG, census
    # No request is in a cycle with its event, held or dropped.
    assert census["cyclic_garbage_per_msg"] == 0, census


@pytest.mark.parametrize("params", [PAPER, HARDENED],
                         ids=["paper", "hardened"])
def test_dropped_handles_leave_nothing_for_the_collector(params):
    # Every request — engine-native, MPI-flavoured, derived-datatype — is
    # an Event subclass, so ``Event`` covers them all.
    assert issubclass(SendRequest, Event) and issubclass(RecvRequest, Event)
    kinds = (Event, PacketWrap, Bytes, memoryview)

    def instances() -> Counter:
        return Counter(type(o).__name__ for o in gc.get_objects()
                       if isinstance(o, kinds))

    sim, mpis = build(4, params=params)
    burst(sim, mpis, depth=8)   # lazily built per-peer state exists now
    gc.collect()
    gc.disable()
    try:
        before = instances()
        assert burst(sim, mpis, depth=32) == 128
        # The application dropped every handle and its rank processes are
        # gone: reference counting alone must have freed the lot.
        assert instances() == before
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- (d) tracing on: same records as before the gate, same simulated time -----

def golden_scenario(tracer: Tracer):
    """A tiny ping-pong, one 16-segment aggregate, one rendezvous.

    Returns ``(completion times, engines)``.
    """
    sim, mpis = build(2, tracer)
    m0, m1 = mpis
    times: list[float] = []

    def sender():
        for r in range(2):
            m0.isend(bytes([r]) * 8, dest=1, tag=r)
            yield from m0.recv(source=1, tag=r)
            times.append(sim.now)
        # Submitted in one step while the NIC's first pull is still queued:
        # all sixteen leave as one physical packet.
        reqs = [m0.isend(bytes([i]) * 32, dest=1, tag=100 + i)
                for i in range(16)]
        yield from m0.wait_all(reqs)
        times.append(sim.now)
        req = m0.isend(VirtualData(256 * 1024), dest=1, tag=200)
        yield from m0.wait(req)
        times.append(sim.now)

    def receiver():
        for r in range(2):
            yield from m1.recv(source=0, tag=r)
            m1.isend(bytes([r]) * 8, dest=0, tag=r)
        yield from m1.wait_all([m1.irecv(source=0, tag=100 + i)
                                for i in range(16)])
        times.append(sim.now)
        yield from m1.recv(source=0, tag=200)
        times.append(sim.now)

    procs = [sim.spawn(sender()), sim.spawn(receiver())]
    sim.run()
    assert all(p.triggered and p.ok for p in procs)
    times.append(sim.now)
    times.append(float(sim.events_processed))
    return times, [m.engine for m in mpis]


def _record_stream(tracer: Tracer) -> list:
    """``[time, source, kind, detail]`` rows with the process-global frame
    and wrap ids rebased to the scenario's first, through JSON so tuples
    and lists compare equal."""
    base = {}
    for key in ("frame", "wrap"):
        ids = [r.detail[key] for r in tracer.records if key in r.detail]
        base[key] = min(ids, default=0)
    rows = []
    for r in tracer.records:
        detail = {k: (v - base[k] if k in base else v)
                  for k, v in r.detail.items()}
        rows.append([r.time, r.source, r.kind, detail])
    return json.loads(json.dumps(rows))


def write_golden() -> None:
    """Capture the golden; run at the commit the gate is compared against."""
    tracer = Tracer(enabled=True)
    golden_scenario(tracer)
    rows = ",\n".join(json.dumps(row) for row in _record_stream(tracer))
    GOLDEN.write_text(f"[\n{rows}\n]\n")


def test_enabled_tracer_stream_matches_the_golden():
    tracer = Tracer(enabled=True)
    traced_times, engines = golden_scenario(tracer)
    assert engines[0].stats.aggregated_segments == 16
    assert engines[0].rendezvous.handshakes == 1
    stream = _record_stream(tracer)
    golden = json.loads(GOLDEN.read_text())
    assert len(stream) == len(golden)
    for got, want in zip(stream, golden):
        assert got == want

    untraced_times, _ = golden_scenario(Tracer())
    assert traced_times == untraced_times
