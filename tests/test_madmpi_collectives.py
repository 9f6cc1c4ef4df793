"""Tests for the collective operations (over MAD-MPI and the baselines)."""

import operator

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from repro.baselines import MPICH_MX, BaselineMpi
from repro.core import NmadEngine
from repro.errors import MpiError
from repro.madmpi import Communicator, MadMpi
from repro.madmpi.collectives import (
    allreduce,
    alltoall,
    barrier,
    bcast,
    gather,
    reduce,
    scatter,
)
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator


def make_world(n, backend="madmpi", strategy="aggregation"):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n, rails=(MX_MYRI10G,))
    world = Communicator(list(range(n)))
    if backend == "madmpi":
        mpis = [MadMpi(NmadEngine(cluster.node(i), strategy=strategy), world)
                for i in range(n)]
    else:
        mpis = [BaselineMpi(cluster.node(i), MPICH_MX, world)
                for i in range(n)]
    return sim, world, mpis


def run_spmd(sim, mpis, fn):
    """Run ``fn(mpi, rank)`` as one process per rank; return results."""
    results = [None] * len(mpis)

    def wrap(rank):
        results[rank] = yield from fn(mpis[rank], rank)

    procs = [sim.spawn(wrap(r), name=f"rank{r}") for r in range(len(mpis))]
    sim.run()
    for p in procs:
        assert p.triggered and p.ok, f"rank process died: {p}"
    return results


def int_sum(a: bytes, b: bytes) -> bytes:
    return (int.from_bytes(a, "little") + int.from_bytes(b, "little")) \
        .to_bytes(8, "little")


class TestBcast:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_all_ranks_receive(self, n):
        sim, _, mpis = make_world(n)
        payload = b"broadcast-me"

        def fn(mpi, rank):
            data = payload if rank == 0 else None
            out = yield from bcast(mpi, data, root=0)
            return out

        results = run_spmd(sim, mpis, fn)
        assert results == [payload] * n

    @pytest.mark.parametrize("root", [0, 1, 3])
    def test_nonzero_root(self, root):
        sim, _, mpis = make_world(4)

        def fn(mpi, rank):
            data = b"from-root" if rank == root else None
            return (yield from bcast(mpi, data, root=root))

        assert run_spmd(sim, mpis, fn) == [b"from-root"] * 4

    def test_root_without_data_rejected(self):
        sim, _, mpis = make_world(2)

        def fn(mpi, rank):
            if rank == 0:
                with pytest.raises(MpiError):
                    yield from bcast(mpi, None, root=0)
                # Unblock rank 1 afterwards.
                yield from bcast(mpi, b"x", root=0)
            else:
                return (yield from bcast(mpi, None, root=0))

        run_spmd(sim, mpis, fn)

    def test_bad_root_rejected(self):
        sim, _, mpis = make_world(2)

        def fn(mpi, rank):
            with pytest.raises(MpiError):
                yield from bcast(mpi, b"x", root=9)
            return None
            yield  # pragma: no cover

        # Only rank 0 runs; the error is raised before any communication.
        sim.run_process(fn(mpis[0], 0))

    def test_works_over_baseline(self):
        sim, _, mpis = make_world(4, backend="mpich")

        def fn(mpi, rank):
            data = b"baseline" if rank == 0 else None
            return (yield from bcast(mpi, data, root=0))

        assert run_spmd(sim, mpis, fn) == [b"baseline"] * 4


class TestGatherScatter:
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_gather_collects_in_rank_order(self, n):
        sim, _, mpis = make_world(n)

        def fn(mpi, rank):
            return (yield from gather(mpi, bytes([rank]) * 4, root=0))

        results = run_spmd(sim, mpis, fn)
        assert results[0] == [bytes([r]) * 4 for r in range(n)]
        assert all(r is None for r in results[1:])

    def test_scatter_distributes(self):
        n = 4
        sim, _, mpis = make_world(n)
        chunks = [bytes([10 + r]) * 8 for r in range(n)]

        def fn(mpi, rank):
            data = chunks if rank == 0 else None
            return (yield from scatter(mpi, data, root=0))

        assert run_spmd(sim, mpis, fn) == chunks

    def test_scatter_wrong_chunk_count(self):
        sim, _, mpis = make_world(2)

        def fn(mpi, rank):
            with pytest.raises(MpiError, match="chunks"):
                yield from scatter(mpi, [b"only-one"], root=0)
            yield from scatter(mpi, [b"a", b"b"], root=0)

        def fn1(mpi, rank):
            return (yield from scatter(mpi, None, root=0))

        sim.spawn(fn1(mpis[1], 1))
        sim.run_process(fn(mpis[0], 0))

    def test_gather_scatter_roundtrip(self):
        n = 4
        sim, _, mpis = make_world(n)

        def fn(mpi, rank):
            mine = bytes([rank]) * 4
            gathered = yield from gather(mpi, mine, root=2)
            redistributed = yield from scatter(mpi, gathered, root=2)
            return redistributed

        assert run_spmd(sim, mpis, fn) == [bytes([r]) * 4 for r in range(n)]


class TestReduce:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8])
    def test_sum_reduction(self, n):
        sim, _, mpis = make_world(n)

        def fn(mpi, rank):
            value = (rank + 1).to_bytes(8, "little")
            return (yield from reduce(mpi, value, int_sum, root=0))

        results = run_spmd(sim, mpis, fn)
        assert int.from_bytes(results[0], "little") == n * (n + 1) // 2
        assert all(r is None for r in results[1:])

    def test_noncommutative_op_order(self):
        # Concatenation exposes operand ordering: with op(lower, higher)
        # on a binomial tree the result is rank order for P=2.
        sim, _, mpis = make_world(2)

        def fn(mpi, rank):
            return (yield from reduce(mpi, bytes([65 + rank]),
                                      operator.add, root=0))

        results = run_spmd(sim, mpis, fn)
        assert results[0] == b"AB"

    @pytest.mark.parametrize("n", [2, 4, 5])
    def test_allreduce_everyone_gets_sum(self, n):
        sim, _, mpis = make_world(n)

        def fn(mpi, rank):
            value = (rank + 1).to_bytes(8, "little")
            out = yield from allreduce(mpi, value, int_sum)
            return int.from_bytes(out, "little")

        assert run_spmd(sim, mpis, fn) == [n * (n + 1) // 2] * n


class TestBarrier:
    @pytest.mark.parametrize("n", [2, 3, 4, 8])
    def test_no_rank_escapes_early(self, n):
        sim, _, mpis = make_world(n)
        entered = {}
        left = {}

        def fn(mpi, rank):
            # Stagger arrival: rank r arrives at t = 10*r.
            yield mpi.sim.timeout(10.0 * rank) if hasattr(mpi, "sim") \
                else sim.timeout(10.0 * rank)
            entered[rank] = sim.now
            yield from barrier(mpi)
            left[rank] = sim.now
            return None

        run_spmd(sim, mpis, fn)
        # Nobody leaves before the last rank has entered.
        assert min(left.values()) >= max(entered.values())

    def test_two_consecutive_barriers(self):
        sim, _, mpis = make_world(3)

        def fn(mpi, rank):
            yield from barrier(mpi)
            yield from barrier(mpi)
            return sim.now

        run_spmd(sim, mpis, fn)  # no deadlock, no tag confusion


class TestAlltoall:
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_full_exchange(self, n):
        sim, _, mpis = make_world(n)

        def fn(mpi, rank):
            chunks = [bytes([rank, dest]) for dest in range(n)]
            return (yield from alltoall(mpi, chunks))

        results = run_spmd(sim, mpis, fn)
        for me in range(n):
            assert results[me] == [bytes([frm, me]) for frm in range(n)]

    def test_wrong_chunk_count(self):
        sim, _, mpis = make_world(2)

        def fn(mpi, rank):
            with pytest.raises(MpiError):
                yield from alltoall(mpi, [b"x"] * 5)
            return None
            yield  # pragma: no cover

        sim.run_process(fn(mpis[0], 0))


class TestCollectivesBenefitFromAggregation:
    def test_alltoall_fewer_packets_with_window(self):
        # Rank 0's engine sends n-1 chunks; with aggregation they coalesce
        # per destination... across destinations each needs its own packet,
        # but the barrier-tag control and data still shrink packet count
        # versus fifo when multiple small sends target the same peer.
        n = 4
        counts = {}
        for strategy in ("aggregation", "fifo"):
            sim, _, mpis = make_world(n, strategy=strategy)

            def fn(mpi, rank):
                # Two back-to-back alltoalls: with aggregation the second
                # round's chunk to a peer can share a packet with barrier
                # traffic / retries to the same peer.
                a = yield from alltoall(mpi, [bytes(16)] * n)
                b = yield from alltoall(mpi, [bytes(16)] * n)
                return a and b and None

            run_spmd(sim, mpis, fn)
            counts[strategy] = sum(m.engine.stats.phys_packets for m in mpis)
        assert counts["aggregation"] <= counts["fifo"]
