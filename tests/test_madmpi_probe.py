"""Tests for probe/iprobe, sendrecv, and wait_any (MAD-MPI + baselines)."""

import pytest

from repro.baselines import MPICH_MX, BaselineMpi
from repro.core import NmadEngine, VirtualData
from repro.errors import MpiError
from repro.madmpi import ANY, Communicator, MadMpi
from repro.netsim import Cluster, MX_MYRI10G
from repro.sim import Simulator


def make_pair(backend="madmpi"):
    sim = Simulator()
    cluster = Cluster(sim, rails=(MX_MYRI10G,))
    world = Communicator([0, 1])
    if backend == "madmpi":
        mpis = [MadMpi(NmadEngine(cluster.node(i)), world) for i in range(2)]
    else:
        mpis = [BaselineMpi(cluster.node(i), MPICH_MX, world)
                for i in range(2)]
    return sim, world, mpis


@pytest.mark.parametrize("backend", ["madmpi", "mpich"])
class TestProbe:
    def test_iprobe_none_before_arrival(self, backend):
        sim, _, (m0, m1) = make_pair(backend)
        assert m1.iprobe(source=0) is None

    def test_iprobe_sees_unexpected_message(self, backend):
        sim, _, (m0, m1) = make_pair(backend)

        def app():
            m0.isend(b"probe-me", dest=1, tag=7)
            yield sim.timeout(50.0)
            return m1.iprobe(source=0)

        src, tag, nbytes = sim.run_process(app())
        assert (src, tag, nbytes) == (0, 7, 8)

    def test_iprobe_does_not_consume(self, backend):
        sim, _, (m0, m1) = make_pair(backend)

        def app():
            m0.isend(b"still-there", dest=1, tag=3)
            yield sim.timeout(50.0)
            first = m1.iprobe(source=0, tag=3)
            second = m1.iprobe(source=0, tag=3)
            req = yield from m1.recv(source=0, tag=3)
            return first, second, req

        first, second, req = sim.run_process(app())
        assert first == second == (0, 3, 11)
        assert req.data.tobytes() == b"still-there"

    def test_blocking_probe_waits_for_arrival(self, backend):
        sim, _, (m0, m1) = make_pair(backend)
        times = {}

        def prober():
            src, tag, nbytes = yield from m1.probe(source=0)
            times["probed"] = sim.now
            return nbytes

        def sender():
            yield sim.timeout(25.0)
            m0.isend(VirtualData(512), dest=1, tag=0)

        sim.spawn(sender())
        p = sim.spawn(prober())
        sim.run()
        assert p.value == 512
        assert times["probed"] > 25.0

    def test_probe_then_sized_recv(self, backend):
        # The canonical probe pattern: learn the size, then post an
        # exactly-sized receive.
        sim, _, (m0, m1) = make_pair(backend)

        def app():
            m0.isend(b"x" * 321, dest=1, tag=5)
            src, tag, nbytes = yield from m1.probe(source=ANY, tag=ANY)
            req = yield from m1.recv(source=src, tag=tag, nbytes=nbytes)
            return req

        req = sim.run_process(app())
        assert req.count == 321

    def test_tag_filtered_probe(self, backend):
        sim, _, (m0, m1) = make_pair(backend)

        def app():
            m0.isend(b"a", dest=1, tag=1)
            m0.isend(b"bb", dest=1, tag=2)
            yield sim.timeout(50.0)
            return m1.iprobe(source=0, tag=2)

        assert sim.run_process(app()) == (0, 2, 2)


@pytest.mark.parametrize("backend", ["madmpi", "mpich"])
class TestSendrecv:
    def test_simultaneous_exchange(self, backend):
        sim, _, (m0, m1) = make_pair(backend)

        def rank0():
            req = yield from m0.sendrecv(b"from0", dest=1, source=1)
            return req.data.tobytes()

        def rank1():
            req = yield from m1.sendrecv(b"from1", dest=0, source=0)
            return req.data.tobytes()

        p1 = sim.spawn(rank1())
        got0 = sim.run_process(rank0())
        assert got0 == b"from1"
        assert p1.value == b"from0"


@pytest.mark.parametrize("backend", ["madmpi", "mpich"])
class TestWaitAny:
    def test_returns_first_completion(self, backend):
        sim, _, (m0, m1) = make_pair(backend)

        def app():
            slow = m1.irecv(source=0, tag=1)
            fast = m1.irecv(source=0, tag=2)
            m0.isend(b"fast", dest=1, tag=2)
            idx, req = yield from m1.wait_any([slow, fast])
            return idx, req.data.tobytes()

        idx, data = sim.run_process(app())
        assert idx == 1 and data == b"fast"

    def test_empty_list_rejected(self, backend):
        sim, _, (m0, m1) = make_pair(backend)

        def app():
            yield from m1.wait_any([])

        with pytest.raises(MpiError):
            sim.run_process(app())


class TestProbeRecvRace:
    def test_blocking_probe_wakes_despite_preposted_recv(self):
        # Regression: a watch()-based blocking probe whose message is
        # consumed by a pre-posted receive used to wait forever.
        sim, _, (m0, m1) = make_pair("madmpi")

        def prober():
            src, tag, nbytes = yield from m1.probe(source=0)
            return src, tag, nbytes

        def app():
            rreq = m1.irecv(source=0, tag=0)
            p = sim.spawn(prober())
            yield sim.timeout(5.0)
            m0.isend(b"raced", dest=1, tag=0)
            yield sim.all_of([rreq.done, p])
            return rreq, p.value

        rreq, probed = sim.run_process(app())
        assert rreq.data.tobytes() == b"raced"
        assert probed == (0, 0, 5)
