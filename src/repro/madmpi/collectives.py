"""Collective operations over the point-to-point subset.

The paper's MAD-MPI is deliberately point-to-point only; §7 lists porting a
full-featured MPI as future work.  These collectives are that next step,
implemented the way early MPICH built them: purely on top of
``isend``/``irecv``, so they run unchanged over MAD-MPI *and* over the
baseline models — and over NewMadeleine they automatically benefit from the
engine's aggregation (several collective messages to the same peer coalesce
in the window).

All functions are simulator-process generators: every rank runs
``yield from bcast(mpi, ...)`` symmetrically, like an SPMD program.
Algorithms: binomial trees for bcast/reduce (log P rounds), linear
gather/scatter rooted exchanges, reduce+bcast allreduce, dissemination
barrier, and pairwise alltoall.

Payloads are byte strings; reductions take ``op: (bytes, bytes) -> bytes``.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from repro.errors import MpiError
from repro.madmpi.comm import Communicator

__all__ = ["bcast", "gather", "scatter", "reduce", "allreduce", "barrier",
           "alltoall"]

#: Tag space reserved for collective plumbing (one tag per primitive so
#: concurrent collectives on different communicators cannot interfere with
#: application point-to-point traffic on the same communicator).
_TAG_BCAST = 1 << 20
_TAG_GATHER = (1 << 20) + 1
_TAG_SCATTER = (1 << 20) + 2
_TAG_REDUCE = (1 << 20) + 3
_TAG_BARRIER = (1 << 20) + 4
_TAG_ALLTOALL = (1 << 20) + 5


def _comm_of(mpi, comm: Communicator | None) -> Communicator:
    return comm if comm is not None else mpi.world


def _rank(mpi, comm: Communicator) -> int:
    return comm.rank_of(mpi.engine.node_id) if hasattr(mpi, "engine") \
        else comm.rank_of(mpi.node.node_id)


def bcast(mpi, data: bytes | None, root: int = 0,
          comm: Communicator | None = None):
    """Binomial-tree broadcast; returns the broadcast bytes on every rank.

    Non-root ranks pass ``data=None``.
    """
    comm = _comm_of(mpi, comm)
    size = comm.size
    rank = _rank(mpi, comm)
    if not 0 <= root < size:
        raise MpiError(f"bcast root {root} out of range")
    if rank == root and data is None:
        raise MpiError("bcast root must provide data")
    # Rotate so the root is virtual rank 0.
    vrank = (rank - root) % size
    if vrank != 0:
        # Receive from the parent: clear the lowest set bit of vrank.
        parent_v = vrank & (vrank - 1)
        parent = (parent_v + root) % size
        req = yield from mpi.recv(source=parent, tag=_TAG_BCAST, comm=comm)
        data = req.data.tobytes()
    # Forward to children: set each bit above the lowest set bit while the
    # child index stays inside the communicator.
    mask = 1
    while mask < size:
        if vrank & (mask - 1) == 0 and vrank | mask != vrank:
            child_v = vrank | mask
            if child_v < size:
                yield from mpi.send(data, dest=(child_v + root) % size,
                                    tag=_TAG_BCAST, comm=comm)
        mask <<= 1
    return data


def gather(mpi, data: bytes, root: int = 0,
           comm: Communicator | None = None):
    """Linear gather; the root returns the list of per-rank payloads."""
    comm = _comm_of(mpi, comm)
    rank = _rank(mpi, comm)
    if not 0 <= root < comm.size:
        raise MpiError(f"gather root {root} out of range")
    if rank != root:
        yield from mpi.send(data, dest=root, tag=_TAG_GATHER, comm=comm)
        return None
    out: list[bytes | None] = [None] * comm.size
    out[root] = data
    reqs = [(r, mpi.irecv(source=r, tag=_TAG_GATHER, comm=comm))
            for r in range(comm.size) if r != root]
    for r, req in reqs:
        yield req
        out[r] = req.data.tobytes()
    return out


def scatter(mpi, chunks: Sequence[bytes] | None, root: int = 0,
            comm: Communicator | None = None):
    """Linear scatter; every rank returns its chunk."""
    comm = _comm_of(mpi, comm)
    rank = _rank(mpi, comm)
    if not 0 <= root < comm.size:
        raise MpiError(f"scatter root {root} out of range")
    if rank == root:
        if chunks is None or len(chunks) != comm.size:
            raise MpiError(
                f"scatter root needs exactly {comm.size} chunks"
            )
        for r in range(comm.size):
            if r != root:
                yield from mpi.send(chunks[r], dest=r, tag=_TAG_SCATTER,
                                    comm=comm)
        return chunks[root]
    req = yield from mpi.recv(source=root, tag=_TAG_SCATTER, comm=comm)
    return req.data.tobytes()


def reduce(mpi, data: bytes, op: Callable[[bytes, bytes], bytes],
           root: int = 0, comm: Communicator | None = None):
    """Binomial-tree reduction; the root returns the combined value.

    ``op`` must be associative; operands combine as
    ``op(lower_rank_value, higher_rank_value)``.
    """
    comm = _comm_of(mpi, comm)
    size = comm.size
    rank = _rank(mpi, comm)
    if not 0 <= root < size:
        raise MpiError(f"reduce root {root} out of range")
    vrank = (rank - root) % size
    acc = data
    mask = 1
    while mask < size:
        if vrank & mask:
            parent = ((vrank & ~mask) + root) % size
            yield from mpi.send(acc, dest=parent, tag=_TAG_REDUCE, comm=comm)
            return None
        child_v = vrank | mask
        if child_v < size:
            req = yield from mpi.recv(source=(child_v + root) % size,
                                      tag=_TAG_REDUCE, comm=comm)
            acc = op(acc, req.data.tobytes())
        mask <<= 1
    return acc


def allreduce(mpi, data: bytes, op: Callable[[bytes, bytes], bytes],
              comm: Communicator | None = None):
    """Reduce to rank 0 then broadcast (every rank returns the result)."""
    comm = _comm_of(mpi, comm)
    reduced = yield from reduce(mpi, data, op, root=0, comm=comm)
    result = yield from bcast(mpi, reduced, root=0, comm=comm)
    return result


def barrier(mpi, comm: Communicator | None = None):
    """Dissemination barrier: ceil(log2 P) rounds of paired messages."""
    comm = _comm_of(mpi, comm)
    size = comm.size
    rank = _rank(mpi, comm)
    step = 1
    round_no = 0
    while step < size:
        to = (rank + step) % size
        frm = (rank - step) % size
        # Distinct tag per round so rounds cannot be confused.
        tag = _TAG_BARRIER + 16 * round_no
        req = mpi.irecv(source=frm, tag=tag, comm=comm)
        yield from mpi.send(b"", dest=to, tag=tag, comm=comm)
        yield req
        step <<= 1
        round_no += 1
    return None


def alltoall(mpi, chunks: Sequence[bytes],
             comm: Communicator | None = None):
    """Pairwise exchange; rank i returns [chunk_from_0, ..., chunk_from_P-1].

    ``chunks[j]`` is the payload this rank sends to rank j (``chunks[rank]``
    is kept locally).
    """
    comm = _comm_of(mpi, comm)
    size = comm.size
    rank = _rank(mpi, comm)
    if len(chunks) != size:
        raise MpiError(f"alltoall needs exactly {size} chunks")
    out: list[bytes | None] = [None] * size
    out[rank] = chunks[rank]
    recvs = [(r, mpi.irecv(source=r, tag=_TAG_ALLTOALL, comm=comm))
             for r in range(size) if r != rank]
    sends = []
    for offset in range(1, size):
        dest = (rank + offset) % size
        sends.append(mpi.isend(chunks[dest], dest=dest, tag=_TAG_ALLTOALL,
                               comm=comm))
    for r, req in recvs:
        yield req
        out[r] = req.data.tobytes()
    for s in sends:
        yield s
    return out
