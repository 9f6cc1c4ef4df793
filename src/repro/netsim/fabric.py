"""Structured network fabrics: switches, fat-tree and dragonfly builders.

The paper's experiments run on flat point-to-point meshes (two hosts, one
wire per rail), and :class:`~repro.netsim.topology.Cluster` keeps that as
its default so every figure stays bit-identical.  This module adds the
*structured* fabrics that ROADMAP item 5 asks for: traffic between node
pairs traverses shared switch ports modeled as contention points, and a
whole switch — or the rack behind it — can die as one correlated event.

Design constraints, in order:

* **Reuse the wire machinery.**  A :class:`Switch` is a lightweight frame
  forwarder that plugs into the existing :class:`~repro.netsim.link.Link`
  endpoints: links deliver into ``switch._arrive`` exactly as they deliver
  into a NIC, and the switch re-transmits on an egress link after a FIFO
  per-port serialization delay.  No frame is ever rewritten; addressing
  stays end-to-end (``frame.dst_node`` is always a host).
* **Determinism.**  ECMP path choice hashes ``(src, dst, switch salt)``
  through an explicit integer mixer — never Python's ``hash()``, which the
  sanitize CI sweeps across ``PYTHONHASHSEED`` values.  The same flow takes
  the same path on every run with the same builder seed.
* **Local reroute.**  When a switch's primary next hop for a flow is dead,
  it re-hashes over the surviving candidates and counts a
  ``paths_rerouted`` event — this is how a mid-transfer spine kill heals
  without any endpoint knowing the fabric's shape.

Builders are frozen specs (:class:`Mesh`, :class:`FatTree`,
:class:`Dragonfly`) with a ``build`` method the cluster calls once per
rail.  Port bandwidth and per-hop latency come from the rail's
:class:`~repro.netsim.profiles.NicProfile`, so a fat-tree rail built from
``MX_MYRI10G`` serializes at the same 1250 MB/s per hop as the flat wire.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, ClassVar, Union

from repro.errors import NetworkError
from repro.netsim.frames import Frame
from repro.netsim.link import FaultPlan, Link
from repro.netsim.profiles import NicProfile
from repro.netsim.units import wire_time_us
from repro.sim import Simulator, Tracer

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.netsim.nic import Nic
    from repro.netsim.topology import Cluster

__all__ = [
    "Switch",
    "Mesh",
    "FatTree",
    "Dragonfly",
    "TopologySpec",
    "resolve_topology",
    "flow_hash",
]


def flow_hash(src_node: int, dst_node: int, salt: int) -> int:
    """Deterministic 32-bit flow mixer for ECMP port selection.

    An explicit multiply/xor avalanche (xxhash-style constants) so the
    choice is a pure function of the flow and the builder seed — immune to
    ``PYTHONHASHSEED`` and identical on every platform.
    """
    h = (src_node + 0x100) * 0x9E3779B1
    h ^= (dst_node + 0x200) * 0x85EBCA77
    h ^= (salt + 0x300) * 0xC2B2AE3D
    h &= 0xFFFFFFFF
    h ^= h >> 15
    h = (h * 0x2C1B3C6D) & 0xFFFFFFFF
    h ^= h >> 13
    return h


class _Port:
    """One egress port: a FIFO serialization queue in front of a link."""

    __slots__ = (
        "switch", "port_id", "link", "next_hop", "bandwidth_mbps",
        "_queue", "_busy", "_current", "frames_forwarded", "bytes_forwarded",
    )

    def __init__(
        self,
        switch: Switch,
        port_id: int,
        link: Link,
        next_hop: Switch | None,
        bandwidth_mbps: float,
    ) -> None:
        self.switch = switch
        self.port_id = port_id
        self.link = link
        self.next_hop = next_hop
        self.bandwidth_mbps = bandwidth_mbps
        self._queue: deque[Frame] = deque()
        self._busy = False
        self._current: Frame | None = None
        self.frames_forwarded = 0
        self.bytes_forwarded = 0

    @property
    def alive(self) -> bool:
        """Usable for new flows: the far end is a host or a live switch."""
        return self.next_hop is None or self.next_hop.up

    @property
    def depth(self) -> int:
        """Frames queued behind the one being serialized (contention)."""
        return len(self._queue)

    def push(self, frame: Frame) -> None:
        self._queue.append(frame)
        if not self._busy:
            self._start_next()

    def _start_next(self) -> None:
        frame = self._queue.popleft()
        self._busy = True
        self._current = frame
        gen = self.switch.generation
        self.switch.sim.schedule(
            wire_time_us(frame.wire_size, self.bandwidth_mbps),
            lambda: self._finish(frame, gen),
        )

    def _finish(self, frame: Frame, gen: int) -> None:
        if gen != self.switch.generation:
            return  # switch died mid-serialization; fail() accounted the frame
        self._current = None
        self.frames_forwarded += 1
        self.bytes_forwarded += frame.wire_size
        self.switch.frames_forwarded += 1
        self.switch.bytes_forwarded += frame.wire_size
        self.link.transmit(frame)
        if self._queue:
            self._start_next()
        else:
            self._busy = False


class Switch:
    """A frame forwarder: FIFO output ports plus a static ECMP route table.

    Switches sit *between* links: an ingress link's ``dst`` endpoint.  They
    never originate traffic, so ``node_id`` is a negative sentinel that can
    never collide with a host id (hosts are ``0..n-1``).
    """

    #: Links skip the endpoint-address check for forwarders (the frame's
    #: ``dst_node`` names the final host, not the switch).
    is_forwarder: ClassVar[bool] = True

    def __init__(
        self,
        sim: Simulator,
        switch_id: int,
        name: str,
        tier: str,
        rail: int,
        salt: int,
        tracer: Tracer | None = None,
    ) -> None:
        self.sim = sim
        self.switch_id = switch_id
        self.node_id = -1 - switch_id
        self.name = name
        self.tier = tier  # "edge" | "agg" | "core" | "router"
        self.rail = rail
        self.group = -1  # pod / core group / dragonfly group (builder sets)
        self.salt = salt
        self.tracer = tracer if tracer is not None else Tracer()
        self.up = True
        self._gen = 0
        self.ports: list[_Port] = []
        #: dst host id -> candidate egress port ids (ECMP set).
        self.routes: dict[int, tuple[int, ...]] = {}
        # Counters (mirrored by stats.SWITCH_COUNTERS into the report).
        self.frames_forwarded = 0
        self.bytes_forwarded = 0
        self.frames_dropped = 0
        self.bytes_dropped = 0
        self.paths_rerouted = 0

    @property
    def generation(self) -> int:
        """Incarnation counter; bumping it voids in-flight port closures."""
        return self._gen

    # -- wiring -------------------------------------------------------------
    def add_port(self, link: Link, bandwidth_mbps: float,
                 next_hop: Switch | None = None) -> int:
        """Attach an egress ``link``; returns the new port id.

        ``bandwidth_mbps`` is the port's serialization rate — builders pass
        the rail profile's rate so every hop matches the flat wire.
        """
        if bandwidth_mbps <= 0:
            raise NetworkError(f"{self.name}: bad port bandwidth {bandwidth_mbps}")
        port = _Port(self, len(self.ports), link, next_hop, bandwidth_mbps)
        self.ports.append(port)
        return port.port_id

    def add_route(self, dst_node: int, port_ids: tuple[int, ...]) -> None:
        if not port_ids:
            raise NetworkError(f"{self.name}: empty ECMP set for {dst_node}")
        self.routes[dst_node] = port_ids

    # -- forwarding ---------------------------------------------------------
    def select_port(self, src_node: int, dst_node: int,
                    count: bool = True) -> int | None:
        """Pick the egress port for a flow; ``None`` when no live path.

        The primary choice hashes the flow over the full ECMP set; when the
        primary's next hop is down the flow re-hashes over the survivors (a
        *reroute*, counted when ``count`` is true).  ``count=False`` gives a
        side-effect-free peek for path walks and tests.
        """
        candidates = self.routes.get(dst_node)
        if candidates is None:
            raise NetworkError(f"{self.name}: no route to node {dst_node}")
        h = flow_hash(src_node, dst_node, self.salt)
        primary = candidates[h % len(candidates)]
        if self.ports[primary].alive:
            return primary
        alive = [p for p in candidates if self.ports[p].alive]
        if not alive:
            return None
        if count:
            self.paths_rerouted += 1
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "reroute",
                                 src=src_node, dst=dst_node,
                                 around=self.ports[primary].link.name)
        return alive[h % len(alive)]

    def _arrive(self, frame: Frame) -> None:
        """Link delivery endpoint: forward or drop (same duck type as Nic)."""
        if not self.up:
            self.frames_dropped += 1
            self.bytes_dropped += frame.wire_size
            return
        port_id = self.select_port(frame.src_node, frame.dst_node)
        if port_id is None:
            # Every candidate next hop is dead: a black hole.  The bytes are
            # accounted here so conservation audits can explain the loss.
            self.frames_dropped += 1
            self.bytes_dropped += frame.wire_size
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, self.name, "black_hole",
                                 frame=frame.frame_id, dst=frame.dst_node)
            return
        self.ports[port_id].push(frame)

    # -- fault domain -------------------------------------------------------
    def fail(self) -> None:
        """Power off: every queued and in-flight frame is lost, idempotently."""
        if not self.up:
            return
        self.up = False
        self._gen += 1
        for port in self.ports:
            for frame in port._queue:
                self.frames_dropped += 1
                self.bytes_dropped += frame.wire_size
            if port._current is not None:
                self.frames_dropped += 1
                self.bytes_dropped += port._current.wire_size
            port._queue.clear()
            port._busy = False
            port._current = None
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, self.name, "switch_down")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.up else "DOWN"
        return (f"<Switch {self.name} {state} ports={len(self.ports)} "
                f"fwd={self.frames_forwarded}>")


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def _link(cluster: "Cluster", src: "Nic | Switch", dst: "Nic | Switch",
          latency_us: float) -> Link:
    link = Link(cluster.sim, src, dst, latency_us, tracer=cluster.tracer)
    cluster.links.append(link)
    return link


@dataclass(frozen=True)
class Mesh:
    """The paper-faithful default: a full point-to-point mesh per rail."""

    name: ClassVar[str] = "mesh"

    def capacity(self) -> int:
        return 1 << 30  # a mesh scales (quadratically) to any node count

    def build(self, cluster: "Cluster", rail_idx: int,
              profile: NicProfile) -> None:
        # NOTE: this loop order is load-bearing — it reproduces the original
        # Cluster.__init__ wiring exactly, so link list order, event order
        # and therefore every figure stay bit-identical.
        n_nodes = len(cluster.nodes)
        for a in range(n_nodes):
            for b in range(n_nodes):
                if a == b:
                    continue
                src = cluster.nodes[a].nic(rail_idx)
                dst = cluster.nodes[b].nic(rail_idx)
                link = _link(cluster, src, dst, profile.latency_us)
                src.connect(b, link)


@dataclass(frozen=True)
class FatTree:
    """A k-ary fat-tree (k pods of k/2 edge + k/2 agg, (k/2)·m cores).

    ``oversubscription`` trims the agg→core fan-out: each aggregation
    switch keeps ``m = max(1, (k/2)//oversubscription)`` core uplinks, so
    the spine shrinks while edge connectivity is preserved (every pod's
    column-``a`` agg reaches the same ``m`` cores of group ``a``, so
    up/down routing never black-holes on a healthy fabric).
    """

    k: int = 4
    oversubscription: int = 1
    seed: int = 0
    name: ClassVar[str] = "fat-tree"

    def __post_init__(self) -> None:
        if self.k < 2 or self.k % 2:
            raise NetworkError(f"fat-tree k must be even and >= 2, got {self.k}")
        if self.oversubscription < 1:
            raise NetworkError(
                f"oversubscription must be >= 1, got {self.oversubscription}")
        if self.seed < 0:
            raise NetworkError(f"seed must be >= 0, got {self.seed}")

    @property
    def half(self) -> int:
        return self.k // 2

    @property
    def cores_per_group(self) -> int:
        return max(1, self.half // self.oversubscription)

    def capacity(self) -> int:
        return self.k * self.half * self.half  # k^3/4 at oversub 1

    def build(self, cluster: "Cluster", rail_idx: int,
              profile: NicProfile) -> None:
        n_nodes = len(cluster.nodes)
        k, half, m = self.k, self.half, self.cores_per_group
        lat = profile.latency_us
        bw = profile.bandwidth_mbps
        mk = cluster._new_switch

        # Switches: edges/aggs per (pod, column), cores per (group, member).
        edges = [[mk(f"ft{rail_idx}.pod{p}.edge{e}", "edge", rail_idx,
                     self.seed, group=p)
                  for e in range(half)] for p in range(k)]
        aggs = [[mk(f"ft{rail_idx}.pod{p}.agg{a}", "agg", rail_idx,
                    self.seed, group=p)
                 for a in range(half)] for p in range(k)]
        cores = [[mk(f"ft{rail_idx}.core{g}.{c}", "core", rail_idx,
                     self.seed, group=g)
                  for c in range(m)] for g in range(half)]

        # Hosts round-robin ACROSS pods first (host 0 -> pod0.edge0,
        # host 1 -> pod1.edge0, ...), so even a two-node drill crosses the
        # spine instead of sharing an edge switch.
        edge_order = [(p, e) for e in range(half) for p in range(k)]
        attach: dict[int, tuple[int, int]] = {}
        members: dict[tuple[int, int], list[int]] = {pe: [] for pe in edge_order}
        for host in range(n_nodes):
            pe = edge_order[host % len(edge_order)]
            attach[host] = pe
            members[pe].append(host)
        if rail_idx == 0:
            cluster.racks = [members[pe] for pe in edge_order if members[pe]]

        # Host <-> edge wiring.
        for host in range(n_nodes):
            p, e = attach[host]
            edge = edges[p][e]
            nic = cluster.nodes[host].nic(rail_idx)
            uplink = _link(cluster, nic, edge, lat)
            nic.set_uplink(uplink)
            cluster.host_uplinks[(host, rail_idx)] = uplink
            down = _link(cluster, edge, nic, lat)
            edge.add_route(host, (edge.add_port(down, bw),))

        # Edge <-> agg wiring (full bipartite within each pod).  Record the
        # agg-side down port towards each edge for the agg route table.
        agg_down: dict[tuple[int, int, int], int] = {}
        for p in range(k):
            for e in range(half):
                edge = edges[p][e]
                ups = []
                for a in range(half):
                    agg = aggs[p][a]
                    ups.append(edge.add_port(
                        _link(cluster, edge, agg, lat), bw, next_hop=agg))
                    agg_down[(p, a, e)] = agg.add_port(
                        _link(cluster, agg, edge, lat), bw, next_hop=edge)
                # Edge routes: local hosts already direct; all others ECMP up.
                ecmp = tuple(ups)
                for host in range(n_nodes):
                    if attach[host] != (p, e):
                        edge.add_route(host, ecmp)

        # Agg <-> core wiring: column a talks to core group a, members 0..m-1.
        for p in range(k):
            for a in range(half):
                agg = aggs[p][a]
                core_ups = []
                for c in range(m):
                    core = cores[a][c]
                    core_ups.append(agg.add_port(
                        _link(cluster, agg, core, lat), bw, next_hop=core))
                    core.add_port(_link(cluster, core, agg, lat), bw,
                                  next_hop=agg)
                # Agg routes: down to the pod's edges, ECMP up otherwise.
                ecmp_up = tuple(core_ups)
                for host in range(n_nodes):
                    hp, he = attach[host]
                    if hp == p:
                        agg.add_route(host, (agg_down[(p, a, he)],))
                    else:
                        agg.add_route(host, ecmp_up)

        # Core routes: one down port per pod (to that pod's column-a agg).
        for g in range(half):
            for c in range(m):
                core = cores[g][c]
                down_by_pod = {}
                for port in core.ports:
                    assert port.next_hop is not None
                    down_by_pod[port.next_hop.group] = port.port_id
                for host in range(n_nodes):
                    hp, _he = attach[host]
                    core.add_route(host, (down_by_pod[hp],))

        # Rack fault-domain bookkeeping: a rack is one edge switch's hosts;
        # its switch set spans every rail's copy of that edge.
        rack_idx = 0
        for pe in edge_order:
            if not members[pe]:
                continue
            p, e = pe
            if rail_idx == 0:
                cluster._rack_switches.append([edges[p][e]])
            else:
                cluster._rack_switches[rack_idx].append(edges[p][e])
            rack_idx += 1


@dataclass(frozen=True)
class Dragonfly:
    """A dragonfly: all-to-all routers per group, pairwise global links.

    Each unordered group pair gets one global link (both directions) hosted
    by the least-loaded router on each side (deterministic, lowest index on
    ties).  Minimal routing: direct global port when the router owns one,
    else ECMP over the local gateways that do.
    """

    groups: int = 4
    routers: int = 2
    hosts_per_router: int = 2
    global_links: int = 2
    seed: int = 0
    name: ClassVar[str] = "dragonfly"

    def __post_init__(self) -> None:
        if self.groups < 2:
            raise NetworkError(f"dragonfly needs >= 2 groups, got {self.groups}")
        if self.routers < 1 or self.hosts_per_router < 1:
            raise NetworkError("dragonfly routers and hosts_per_router must be >= 1")
        if self.routers * self.global_links < self.groups - 1:
            raise NetworkError(
                f"dragonfly under-provisioned: {self.routers} routers x "
                f"{self.global_links} global links < {self.groups - 1} peer groups")
        if self.seed < 0:
            raise NetworkError(f"seed must be >= 0, got {self.seed}")

    def capacity(self) -> int:
        return self.groups * self.routers * self.hosts_per_router

    def build(self, cluster: "Cluster", rail_idx: int,
              profile: NicProfile) -> None:
        n_nodes = len(cluster.nodes)
        lat = profile.latency_us
        bw = profile.bandwidth_mbps
        mk = cluster._new_switch
        routers = [[mk(f"df{rail_idx}.g{g}.r{r}", "router", rail_idx,
                       self.seed, group=g)
                    for r in range(self.routers)] for g in range(self.groups)]

        # Hosts fill group by group (rack == group).
        attach: dict[int, tuple[int, int]] = {}
        group_hosts: list[list[int]] = [[] for _ in range(self.groups)]
        for host in range(n_nodes):
            g = host // (self.routers * self.hosts_per_router)
            r = (host // self.hosts_per_router) % self.routers
            attach[host] = (g, r)
            group_hosts[g].append(host)
        if rail_idx == 0:
            cluster.racks = [hosts for hosts in group_hosts if hosts]

        # Host <-> router wiring.
        for host in range(n_nodes):
            g, r = attach[host]
            router = routers[g][r]
            nic = cluster.nodes[host].nic(rail_idx)
            uplink = _link(cluster, nic, router, lat)
            nic.set_uplink(uplink)
            cluster.host_uplinks[(host, rail_idx)] = uplink
            down = _link(cluster, router, nic, lat)
            router.add_route(host, (router.add_port(down, bw),))

        # Local all-to-all within each group.
        local_port: dict[tuple[int, int, int], int] = {}
        for g in range(self.groups):
            for r1 in range(self.routers):
                for r2 in range(self.routers):
                    if r1 == r2:
                        continue
                    link = _link(cluster, routers[g][r1], routers[g][r2], lat)
                    local_port[(g, r1, r2)] = routers[g][r1].add_port(
                        link, bw, next_hop=routers[g][r2])

        # Global links: one per unordered group pair, balanced per router.
        load = [[0] * self.routers for _ in range(self.groups)]
        gateway: dict[tuple[int, int], list[tuple[int, int]]] = {}
        global_port: dict[tuple[int, int, int], int] = {}
        for gj in range(self.groups):
            for gi in range(gj):
                # min() keeps the first (lowest-index) router on ties.
                ri = min(range(self.routers), key=load[gi].__getitem__)
                rj = min(range(self.routers), key=load[gj].__getitem__)
                load[gi][ri] += 1
                load[gj][rj] += 1
                a, b = routers[gi][ri], routers[gj][rj]
                global_port[(gi, ri, gj)] = a.add_port(
                    _link(cluster, a, b, lat), bw, next_hop=b)
                global_port[(gj, rj, gi)] = b.add_port(
                    _link(cluster, b, a, lat), bw, next_hop=a)
                gateway.setdefault((gi, gj), []).append((ri, rj))
                gateway.setdefault((gj, gi), []).append((rj, ri))

        # Routes: direct global port, else local hop to a gateway router.
        for g in range(self.groups):
            for r in range(self.routers):
                router = routers[g][r]
                for host in range(n_nodes):
                    hg, hr = attach[host]
                    if hg == g:
                        if hr != r:
                            router.add_route(
                                host, (local_port[(g, r, hr)],))
                        continue
                    direct = global_port.get((g, r, hg))
                    if direct is not None:
                        router.add_route(host, (direct,))
                    else:
                        gates = tuple(
                            local_port[(g, r, gr)]
                            for gr, _far in gateway[(g, hg)] if gr != r)
                        router.add_route(host, gates)

        if rail_idx == 0:
            cluster._rack_switches.extend(
                [list(routers[g]) for g in range(self.groups) if group_hosts[g]])
        else:
            rack_idx = 0
            for g in range(self.groups):
                if not group_hosts[g]:
                    continue
                cluster._rack_switches[rack_idx].extend(routers[g])
                rack_idx += 1


TopologySpec = Union[Mesh, FatTree, Dragonfly]

_BY_NAME: dict[str, TopologySpec] = {
    "mesh": Mesh(),
    "fat-tree": FatTree(),
    "dragonfly": Dragonfly(),
}


def resolve_topology(topology: str | TopologySpec) -> TopologySpec:
    """Accept a spec instance or a name with default parameters."""
    if isinstance(topology, (Mesh, FatTree, Dragonfly)):
        return topology
    spec = _BY_NAME.get(topology)
    if spec is None:
        raise NetworkError(
            f"unknown topology {topology!r} (choose from "
            f"{sorted(_BY_NAME)} or pass a spec)")
    return spec


def schedule_switch_fault(cluster: "Cluster", switch: Switch,
                          plan: FaultPlan) -> None:
    """Apply a :class:`FaultPlan` with ``switch_down_at`` to one switch."""
    if plan.switch_down_at is None:
        raise NetworkError("FaultPlan has no switch_down_at")
    delay = max(0.0, plan.switch_down_at - cluster.sim.now)
    cluster.sim.schedule(delay, switch.fail)
