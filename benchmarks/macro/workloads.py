"""The six macro-benchmark workloads: seeded plans, real stacks, verification.

A workload is a *plan* (who sends what to whom, phase by phase, generated
from the seed alone) played through a real ``Cluster`` + ``NmadEngine`` +
``MadMpi`` stack by one closed-loop generator process per rank.  The stack
receives only the generated plan; every delivery is checked after the run.

Why each workload exists is recorded in ``WORKLOADS[...].why`` (and in
``BENCHMARK.json`` and the README); the counts here are the frozen ones.
"""

from __future__ import annotations

import math
import random
import zlib
from dataclasses import dataclass, field, replace

from repro.core.engine import EngineParams, NmadEngine
from repro.core.data import VirtualData
from repro.errors import ReproError
from repro.madmpi import ANY, Communicator, MadMpi, indexed_small_large
from repro.netsim import Cluster, FatTree, FaultPlan, profile_by_name
from repro.sim import Simulator

#: Messages up to this size carry real seeded bytes (content is verified);
#: larger ones are ``VirtualData`` (size, order and source are verified).
REAL_PAYLOAD_MAX = 4096
N_COMMS = 3
PINGPONG_SIZES = (4, 64, 1024, 4096)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    plan: str                      # "pingpong" | "a2a" | "bulk"
    n_ranks: int
    phases: int                    # round trips for the ping-pong
    rails: tuple[str, ...] = ("mx_myri10g",)
    strategy: str = "aggregation"
    fat_tree: bool = False
    params: dict = field(default_factory=dict)   # EngineParams overrides
    unexpected: bool = False       # send first, sleep, then post receives
    faults: bool = False           # seeded link loss + one dead core switch

    def scaled(self, quick: bool) -> "Workload":
        """``--quick``: a tenth of the phases (tests, smoke runs)."""
        if not quick:
            return self
        return replace(self, phases=max(2, self.phases // 10))


_ACK_CREDIT = {"reliability": "ack", "flow_control": "credit",
               "rel_timeout_us": "auto"}

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "pingpong_small",
        "Fig. 2 'negligible overhead' path: window depth <= 1, aggregation "
        "bypassed, per-packet cost (sim, netsim, transfer, one "
        "strategy.select per message) dominates; guards the 5.1 constant.",
        plan="pingpong", n_ranks=2, phases=6_000),
    Workload(
        "burst_a2a_small",
        "Irregular multi-flow case: 64-deep bursts to 4 seeded peers "
        "aggregate ~16 segments per packet, so the per-message path "
        "(madmpi, engine, collect, matching, window) does most of the work.",
        plan="a2a", n_ranks=16, phases=20),
    Workload(
        "unexpected_wildcard",
        "Same plan as burst_a2a_small with matching turned round: every "
        "message lands unexpected, receives are posted late in reverse "
        "order, half of them source=ANY; pairs with burst_a2a_small.",
        plan="a2a", n_ranks=16, phases=20, unexpected=True),
    Workload(
        "bulk_multirail",
        "48 KB-1 MB messages over MX+Quadrics with the multirail strategy: "
        "rendezvous handshake, chunking, heterogeneous rail split and "
        "Datatype.flatten; small-message aggregation is bypassed.",
        plan="bulk", n_ranks=8, phases=120,
        rails=("mx_myri10g", "quadrics_qm500"), strategy="multirail"),
    Workload(
        "hardened_a2a_small",
        "burst_a2a_small plan with ack + credit + epoch sessions + auto RTO "
        "on a clean network: its ratio to burst_a2a_small is the "
        "per-message price of the opt-in stack.",
        plan="a2a", n_ranks=16, phases=20,
        params={**_ACK_CREDIT, "sessions": "epoch",
                "hb_timeout_us": 5000.0, "hb_interval_us": 500.0}),
    Workload(
        "lossy_fat_tree",
        "burst_a2a_small plan on a k=4 fat-tree with ack + credit, 0.5% "
        "seeded loss, duplicates and a core switch killed mid-run: the "
        "share of traffic leaving the fast path and multi-hop forwarding.",
        plan="a2a", n_ranks=16, phases=20, fat_tree=True, faults=True,
        params=dict(_ACK_CREDIT)),
)}


# -- plans -------------------------------------------------------------------

class Msg:
    """One planned application message."""

    __slots__ = ("id", "src", "dst", "comm", "tag", "size", "payload",
                 "datatype")

    def __init__(self, id, src, dst, comm, tag, size, payload, datatype=None):
        self.id = id
        self.src = src
        self.dst = dst
        self.comm = comm          # index into the stack's communicators
        self.tag = tag
        self.size = size
        self.payload = payload    # bytes (id header + seeded filler) or None
        self.datatype = datatype

    @property
    def key(self):
        """The MPI non-overtaking scope this message is ordered within."""
        return (self.src, self.dst, self.comm, self.tag)


@dataclass
class Plan:
    """``sends[phase][rank]`` / ``recvs[phase][rank]``: what ``rank`` sends
    and is sent in ``phase``, both in sending order."""

    msgs: list[Msg]
    sends: list[list[list[Msg]]]
    recvs: list[list[list[Msg]]]

    def fingerprint(self) -> int:
        """Digest of everything the stack is given: a different seed must
        give a different one."""
        crc = 0
        for m in self.msgs:
            crc = zlib.crc32(repr(m.key + (m.size,)).encode(), crc)
            crc = zlib.crc32(m.payload or b"", crc)
        return crc


def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    return sorted_values[min(len(sorted_values) - 1,
                             int(q * len(sorted_values)))]


def _payload(rng: random.Random, msg_id: int, size: int) -> bytes | None:
    if size > REAL_PAYLOAD_MAX:
        return None
    # The first four bytes name the message, so the receiver can tell
    # *which* message a wildcard receive got, not just that one arrived.
    return (msg_id.to_bytes(4, "little") + rng.randbytes(size - 4))[:size]


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def make_plan(w: Workload, seed: int) -> Plan:
    rng = random.Random(f"{w.plan}:{seed}")
    msgs: list[Msg] = []
    sends: list[list[list[Msg]]] = []
    recvs: list[list[list[Msg]]] = []

    def add(phase_sends, src, dst, comm, tag, size, datatype=None):
        m = Msg(len(msgs), src, dst, comm, tag, size,
                _payload(rng, len(msgs), size), datatype)
        msgs.append(m)
        phase_sends[src].append(m)

    for phase in range(w.phases):
        phase_sends: list[list[Msg]] = [[] for _ in range(w.n_ranks)]
        if w.plan == "pingpong":
            size = PINGPONG_SIZES[phase % len(PINGPONG_SIZES)]
            add(phase_sends, 0, 1, 0, 0, size)
            add(phase_sends, 1, 0, 0, 0, size)
        elif w.plan == "a2a":
            for src in range(w.n_ranks):
                others = [r for r in range(w.n_ranks) if r != src]
                peers = rng.sample(others, 4)
                for _ in range(64):
                    add(phase_sends, src, rng.choice(peers),
                        rng.randrange(N_COMMS), phase,
                        _log_uniform(rng, 8, 2048))
        else:  # bulk
            for src in range(w.n_ranks):
                others = [r for r in range(w.n_ranks) if r != src]
                peers = rng.sample(others, 2)
                for i in range(8):
                    size = _log_uniform(rng, 48 * 1024, 1024 * 1024)
                    dtype = None
                    if i % 4 == 3:
                        # Fig. 4 shape: small header block + large block.
                        dtype = indexed_small_large(2, large=size // 2)
                        size = sum(n for _, n in dtype.flatten())
                    add(phase_sends, src, rng.choice(peers), 0, phase, size,
                        dtype)
        sends.append(phase_sends)
        phase_recvs: list[list[Msg]] = [[] for _ in range(w.n_ranks)]
        for rank_sends in phase_sends:
            for m in rank_sends:
                phase_recvs[m.dst].append(m)
        recvs.append(phase_recvs)
    return Plan(msgs, sends, recvs)


# -- the stack ---------------------------------------------------------------

class Stack:
    """A constructed cluster: one engine and one MAD-MPI endpoint per rank."""

    def __init__(self, w: Workload, seed: int) -> None:
        self.workload = w
        self.sim = Simulator()
        topology = FatTree(k=4, seed=seed) if w.fat_tree else "mesh"
        self.cluster = Cluster(
            self.sim, n_nodes=w.n_ranks,
            rails=[profile_by_name(r) for r in w.rails], topology=topology)
        params = EngineParams(**w.params)
        self.engines = [NmadEngine(node, strategy=w.strategy, params=params)
                        for node in self.cluster.nodes]
        nodes = list(range(w.n_ranks))
        self.comms = [Communicator(nodes, comm_id=i) for i in range(N_COMMS)]
        self.mpis = [MadMpi(e, self.comms[0]) for e in self.engines]
        if w.faults:
            self._install_faults(seed)

    def _install_faults(self, seed: int) -> None:
        rng = random.Random(f"faults:{seed}")
        for link in self.cluster.links:
            link.fault_plan = FaultPlan(
                drop_nth=rng.sample(range(1, 3001), 15),
                dup_nth=rng.sample(range(1, 3001), 3))
        core = next(s for s in self.cluster.switches if s.tier == "core")
        self.cluster.schedule_switch_fault(
            core.switch_id, FaultPlan(switch_down_at=3000.0))


class Recv:
    """One posted receive: when it was posted, when it completed."""

    __slots__ = ("sim", "req", "posted", "done", "expect")

    def __init__(self, sim, req, expect):
        self.sim = sim
        self.req = req
        self.posted = sim.now
        self.done = None
        self.expect = expect       # the planned Msg, for exact virtual recvs
        req.done.add_callback(self._on_done)

    def _on_done(self, _evt):
        self.done = self.sim.now


class Run:
    """Everything one play of a plan records, for verification and metrics."""

    def __init__(self, stack: Stack, plan: Plan) -> None:
        self.stack = stack
        self.plan = plan
        self.sent_at: list[float | None] = [None] * len(plan.msgs)
        self.send_reqs: list = [None] * len(plan.msgs)
        self.recvs: list[list[Recv]] = [[] for _ in stack.mpis]
        self.finished_at: list[float | None] = [None] * len(stack.mpis)
        self.procs = []
        self.aborted: ReproError | None = None

    def start(self) -> None:
        w = self.stack.workload
        program = self._pingpong_rank if w.plan == "pingpong" else self._rank
        for rank in range(w.n_ranks):
            self.procs.append(self.stack.sim.spawn(program(rank),
                                                   name=f"rank{rank}"))

    def play(self) -> None:
        """Run the simulation dry; an error escaping it fails the whole run
        (every message then counts as failed) instead of killing the
        benchmark."""
        try:
            self.stack.sim.run()
        except ReproError as exc:
            self.aborted = exc

    # -- rank programs (closed loop: next phase only after this one) --------
    # A request that fails, or is refused outright, is a failed operation,
    # not a failed run: verification counts it.
    def _isend(self, mpi, m: Msg):
        data = m.payload if m.payload is not None else VirtualData(m.size)
        self.sent_at[m.id] = mpi.sim.now
        try:
            req = mpi.isend(data, m.dst, tag=m.tag,
                            comm=self.stack.comms[m.comm],
                            datatype=m.datatype)
        except ReproError:
            return None
        self.send_reqs[m.id] = req
        return req

    def _irecv(self, rank: int, mpi, m: Msg, wildcard: bool = False):
        # A late receive cannot know which message of its scope it will
        # get, so only receives posted in sending order bound the size.
        sized = m.datatype is None and not self.stack.workload.unexpected
        try:
            req = mpi.irecv(source=ANY if wildcard else m.src, tag=m.tag,
                            comm=self.stack.comms[m.comm],
                            nbytes=m.size if sized else None,
                            datatype=m.datatype)
        except ReproError:
            return None
        self.recvs[rank].append(Recv(mpi.sim, req, None if wildcard else m))
        return req

    @staticmethod
    def _wait(mpi, reqs):
        reqs = [req for req in reqs if req is not None]
        try:
            yield from mpi.wait_all(reqs)
        except ReproError:
            for req in reqs:   # drain the others one by one
                try:
                    yield from mpi.wait(req)
                except ReproError:
                    pass

    def _rank(self, rank: int):
        mpi = self.stack.mpis[rank]
        unexpected = self.stack.workload.unexpected
        for phase_sends, phase_recvs in zip(self.plan.sends, self.plan.recvs):
            incoming = phase_recvs[rank]
            reqs = []
            if not unexpected:
                reqs += [self._irecv(rank, mpi, m) for m in incoming]
            reqs += [self._isend(mpi, m) for m in phase_sends[rank]]
            if unexpected:
                yield mpi.sim.timeout(100.0)
                # Reverse planned order, every second one a wildcard.  The
                # exact receives go first: a wildcard posted before an exact
                # receive could take the one message that receive needs.
                late = list(reversed(incoming))
                reqs += [self._irecv(rank, mpi, m) for m in late[0::2]]
                reqs += [self._irecv(rank, mpi, m, wildcard=True)
                         for m in late[1::2]]
            yield from self._wait(mpi, reqs)
        self.finished_at[rank] = mpi.sim.now

    def _pingpong_rank(self, rank: int):
        mpi = self.stack.mpis[rank]
        for phase_sends in self.plan.sends:
            ping, pong = phase_sends[0][0], phase_sends[1][0]
            if rank == 0:
                reqs = [self._irecv(0, mpi, pong), self._isend(mpi, ping)]
                yield from self._wait(mpi, reqs)
            else:
                yield from self._wait(mpi, [self._irecv(1, mpi, ping)])
                yield from self._wait(mpi, [self._isend(mpi, pong)])
        self.finished_at[rank] = mpi.sim.now

    # -- verification ------------------------------------------------------
    def verify(self) -> dict:
        """Check every delivery; returns counts and per-message latencies.

        A message is *good* when it was delivered exactly once, intact, to
        the right rank on the right communicator and tag, in posting order
        within its (src, dst, communicator, tag) scope, and both its send
        and its receive completed without error.
        """
        msgs = self.plan.msgs
        n = len(msgs)
        seen = bytearray(n)
        good = bytearray(n)
        latencies: list[float] = []
        per_key: dict[tuple, list[int]] = {}
        for m in msgs:
            per_key.setdefault(m.key, []).append(m.id)
        matched: dict[tuple, list[int]] = {}
        for rank, recvs in enumerate(self.recvs):
            for rec in recvs:
                req = rec.req
                if rec.done is None or req.failed:
                    continue
                m = self._identify(rec)
                if m is None or seen[m.id]:
                    continue
                seen[m.id] = 1
                matched.setdefault(m.key, []).append(m.id)
                send = self.send_reqs[m.id]
                if (m.dst != rank or req.source != m.src or req.tag != m.tag
                        or req.count != m.size
                        or send is None or not send.complete or send.failed):
                    continue
                if m.payload is not None \
                        and req.data.tobytes() != m.payload:
                    continue
                good[m.id] = 1
                latencies.append(
                    rec.done - max(self.sent_at[m.id], rec.posted))
        # FIFO within each scope: receives in posting order must have got
        # the scope's messages in sending order.
        for key, got in matched.items():
            for want, have in zip(per_key[key], got):
                if want != have:
                    good[have] = 0
        stack = self.stack
        faults = stack.workload.faults
        stack_ok = (
            self.aborted is None
            and all(p.triggered for p in self.procs)
            and stack.cluster.conservation_ok(allow_faults=faults)
            and all(e.quiesced() for e in stack.engines)
        )
        delivered = sum(good) if stack_ok else 0
        finished = [t for t in self.finished_at if t is not None]
        return {
            "attempted": n,
            "failed": n - delivered,
            "stack_ok": stack_ok,
            "latencies_us": latencies,
            "makespan_us": max(finished) if finished else stack.sim.now,
        }

    def _identify(self, rec: Recv) -> Msg | None:
        """Which planned message did this receive get?"""
        data = rec.req.data
        if data is not None and not isinstance(data, VirtualData) \
                and data.nbytes >= 4:
            msg_id = int.from_bytes(data.tobytes()[:4], "little")
            return self.plan.msgs[msg_id] \
                if msg_id < len(self.plan.msgs) else None
        # Virtual payloads carry no id: an exact receive must have got the
        # message it was posted for (the size check then confirms it).
        return rec.expect
