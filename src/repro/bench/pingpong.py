"""The paper's three ping-pong programs, written once for every backend.

* :func:`pingpong_single` — §5.1 / Figure 2: single-segment contiguous
  messages, reporting one-way latency (half round trip).
* :func:`pingpong_multiseg` — §5.2 / Figure 3: each ping is a series of
  independent ``MPI_Isend`` operations, **each on its own communicator**
  ("to demonstrate that the scope of MAD-MPI optimizations is really
  global").
* :func:`pingpong_datatype` — §5.3 / Figure 4: arrays of an indexed
  datatype of (64 B, 256 KB) block pairs.

Each measurement builds a fresh deterministic simulation, runs ``warmup``
unmeasured iterations, then averages the remaining round trips.  A small
per-``isend`` host cost (``ISEND_CPU_US``) spaces successive submissions —
without it all isends of a burst would be issued in literally zero time,
which neither hardware nor the paper's testbed can do; with it, the first
segment leaves immediately while the NIC-busy window accumulates the rest,
reproducing the dynamics of §3.1.
"""

from __future__ import annotations


from repro.bench.backends import BackendPair, make_backend_pair
from repro.core.data import VirtualData
from repro.errors import ReproError
from repro.madmpi.datatype import indexed_small_large
from repro.netsim import NicProfile

__all__ = [
    "ISEND_CPU_US",
    "pingpong_single",
    "pingpong_single_on",
    "pingpong_multiseg",
    "pingpong_datatype",
]

#: Host CPU cost of issuing one MPI_Isend (all backends, both sides).
ISEND_CPU_US = 0.10


def _measure(pair: BackendPair, ping, pong, iters: int, warmup: int) -> float:
    """Run the ping/pong process pair; return mean one-way time (us)."""
    if iters < 1 or warmup < 0:
        raise ReproError(f"bad iteration counts iters={iters} warmup={warmup}")
    sim = pair.sim
    samples: list[float] = []

    def pinger():
        for it in range(warmup + iters):
            t0 = sim.now
            yield from ping(it)
            rtt = sim.now - t0
            if it >= warmup:
                samples.append(rtt / 2.0)

    def ponger():
        for _ in range(warmup + iters):
            yield from pong()

    sim.spawn(ponger(), name="pong")
    sim.run_process(pinger(), name="ping")
    return sum(samples) / len(samples)


def pingpong_single(
    backend: str,
    profile: NicProfile,
    size: int,
    iters: int = 3,
    warmup: int = 1,
    strategy: str = "aggregation",
) -> float:
    """One-way latency (us) for a single contiguous ``size``-byte message."""
    pair = make_backend_pair(backend, rails=(profile,), strategy=strategy)
    return pingpong_single_on(pair, size, iters, warmup)


def pingpong_single_on(
    pair: BackendPair, size: int, iters: int = 3, warmup: int = 1
) -> float:
    """:func:`pingpong_single` in a fresh simulation the caller built (and
    can read the counters of afterwards)."""
    m0, m1 = pair.m0, pair.m1

    def ping(_it):
        yield from m0.send(VirtualData(size), dest=1, tag=0)
        yield from m0.recv(source=1, tag=0)

    def pong():
        yield from m1.recv(source=0, tag=0)
        yield from m1.send(VirtualData(size), dest=0, tag=0)

    return _measure(pair, ping, pong, iters, warmup)


def pingpong_multiseg(
    backend: str,
    profile: NicProfile,
    seg_size: int,
    n_segments: int,
    iters: int = 3,
    warmup: int = 1,
    strategy: str = "aggregation",
) -> float:
    """One-way latency (us) for a burst of ``n_segments`` independent isends.

    Each segment uses a separate communicator, as in the paper's §5.2
    program; the reported time is until the complete burst has been
    received (and symmetrically ponged back).
    """
    if n_segments < 1:
        raise ReproError(f"need at least one segment, got {n_segments}")
    pair = make_backend_pair(backend, rails=(profile,), strategy=strategy)
    m0, m1 = pair.m0, pair.m1
    sim = pair.sim
    comms = [pair.world.dup() for _ in range(n_segments)]

    def burst(mpi, dest):
        reqs = []
        for comm in comms:
            reqs.append(mpi.isend(VirtualData(seg_size), dest=dest, comm=comm))
            yield sim.timeout(ISEND_CPU_US)
        return reqs

    def gather(mpi, source):
        recvs = [mpi.irecv(source=source, comm=comm) for comm in comms]
        yield sim.all_of(recvs)

    def ping(_it):
        sreqs = yield from burst(m0, dest=1)
        yield from gather(m0, source=1)
        yield sim.all_of(sreqs)

    def pong():
        yield from gather(m1, source=0)
        sreqs = yield from burst(m1, dest=0)
        yield sim.all_of(sreqs)

    return _measure(pair, ping, pong, iters, warmup)


def pingpong_datatype(
    backend: str,
    profile: NicProfile,
    total_size: int,
    small: int = 64,
    large: int = 256 * 1024,
    iters: int = 3,
    warmup: int = 1,
    strategy: str = "aggregation",
) -> float:
    """One-way transfer time (us) for an indexed-datatype message.

    ``total_size`` is the data byte count of the exchanged array; the
    datatype repeats the paper's (64 B, 256 KB) block pair enough times to
    reach it (so 256 KB is one pair rounded down — one small + one large
    block dominate — and 2 MB is eight pairs).
    """
    pair_bytes = small + large
    repeats = max(1, round(total_size / pair_bytes))
    dtype = indexed_small_large(repeats=repeats, small=small, large=large)
    pair = make_backend_pair(backend, rails=(profile,), strategy=strategy)
    m0, m1 = pair.m0, pair.m1

    def ping(_it):
        rreq = m0.irecv(source=1, tag=0, datatype=dtype)
        sreq = m0.isend(VirtualData(dtype.extent), dest=1, tag=0,
                        datatype=dtype)
        yield rreq
        yield sreq

    def pong():
        rreq = m1.irecv(source=0, tag=0, datatype=dtype)
        yield rreq
        sreq = m1.isend(VirtualData(dtype.extent), dest=0, tag=0,
                        datatype=dtype)
        yield sreq

    return _measure(pair, ping, pong, iters, warmup)
