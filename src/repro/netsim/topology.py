"""Cluster construction: nodes, rails and topology wiring.

A *rail* is one network technology connecting every node (the paper's
evaluation platform has two rails: Myri-10G and Quadrics).  The cluster
builds one NIC per (node, rail) and hands each rail to a topology builder
(:mod:`repro.netsim.fabric`).  The default is the paper-faithful flat full
mesh — a pair of directed links per node pair per rail — while structured
fabrics (fat-tree, dragonfly) wire hosts through switches and allocate
only the links that physically exist, so a 1k-node fat-tree costs
thousands of links instead of the mesh's millions.  The multirail strategy
(paper §4) and the heterogeneous load-balancing future work (paper §7)
operate across rails of a single cluster.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import NetworkError
from repro.netsim.fabric import (
    Switch,
    TopologySpec,
    resolve_topology,
    schedule_switch_fault,
)
from repro.netsim.link import FaultPlan, Link, _check_finite
from repro.netsim.nic import Nic
from repro.netsim.node import Node
from repro.netsim.profiles import HOST_2006_OPTERON, HostProfile, NicProfile
from repro.sim import Simulator, Tracer

__all__ = ["Cluster"]


class Cluster:
    """A set of nodes connected on each rail by a topology builder."""

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int = 2,
        rails: Sequence[NicProfile] = (),
        host: HostProfile = HOST_2006_OPTERON,
        tracer: Tracer | None = None,
        topology: str | TopologySpec = "mesh",
    ) -> None:
        if n_nodes < 2:
            raise NetworkError(f"a cluster needs at least 2 nodes, got {n_nodes}")
        if not rails:
            raise NetworkError("a cluster needs at least one rail profile")
        spec = resolve_topology(topology)
        if n_nodes > spec.capacity():
            raise NetworkError(
                f"{spec.name} topology holds at most {spec.capacity()} "
                f"hosts, got {n_nodes}")
        self.sim = sim
        self.tracer = tracer if tracer is not None else Tracer()
        self.host = host
        self.rails: tuple[NicProfile, ...] = tuple(rails)
        self.topology = spec
        self.topology_name = spec.name
        self.nodes: list[Node] = []
        self.links: list[Link] = []
        self.switches: list[Switch] = []
        #: (host id, rail) -> the host's uplink into the switched fabric
        #: (empty for the mesh, where every link is point-to-point).
        self.host_uplinks: dict[tuple[int, int], Link] = {}
        #: Fault domains: rack -> member host ids (fat-tree: one rack per
        #: populated edge switch; dragonfly: one per group; mesh: none).
        self.racks: list[list[int]] = []
        self._rack_switches: list[list[Switch]] = []

        for node_id in range(n_nodes):
            node = Node(sim, node_id, memory=host.memory, tracer=self.tracer)
            for rail_idx, profile in enumerate(self.rails):
                node.add_nic(Nic(sim, node_id, rail_idx, profile, tracer=self.tracer))
            self.nodes.append(node)

        for rail_idx, profile in enumerate(self.rails):
            spec.build(self, rail_idx, profile)

    def _new_switch(self, name: str, tier: str, rail: int, seed: int,
                    group: int) -> Switch:
        """Create, register and salt a switch (builders call this)."""
        switch_id = len(self.switches)
        salt = (seed * 1_000_003 + switch_id) & 0xFFFFFFFF
        switch = Switch(self.sim, switch_id, name, tier, rail, salt,
                        tracer=self.tracer)
        switch.group = group
        self.switches.append(switch)
        return switch

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """Node by id, with a helpful error on bad ids."""
        if not 0 <= node_id < len(self.nodes):
            raise NetworkError(
                f"node id {node_id} out of range (cluster has {len(self.nodes)})"
            )
        return self.nodes[node_id]

    def schedule_node_fault(self, node_id: int, crash_at: float,
                            restart_at: float | None = None) -> None:
        """Fail-stop a node at ``crash_at`` and (optionally) restart it.

        A crash takes down every NIC of the node, not one wire, so node
        faults are scheduled here rather than on a link's
        :class:`~repro.netsim.link.FaultPlan`.  The restart only powers the
        NICs back up; whoever owns the node (a test, the CLI) constructs a
        fresh engine on it to re-install receive handlers for the new
        incarnation.
        """
        _check_finite(crash_at, restart_at)
        if crash_at < 0:
            raise NetworkError(f"negative crash_at {crash_at}")
        if restart_at is not None and restart_at <= crash_at:
            raise NetworkError(
                f"restart_at ({restart_at}) must be after crash_at "
                f"({crash_at})")
        node = self.node(node_id)
        self.sim.schedule(max(0.0, crash_at - self.sim.now), node.crash)
        if restart_at is not None:
            self.sim.schedule(max(0.0, restart_at - self.sim.now),
                              node.restart)

    # -- switch / rack fault domains ----------------------------------------
    def switch(self, switch_id: int) -> Switch:
        """Switch by id, with a helpful error on bad ids."""
        if not 0 <= switch_id < len(self.switches):
            raise NetworkError(
                f"switch id {switch_id} out of range "
                f"(cluster has {len(self.switches)})")
        return self.switches[switch_id]

    def schedule_switch_fault(self, switch_id: int, plan: FaultPlan) -> None:
        """Schedule ``plan``'s ``switch_down_at`` fail-stop on one switch.

        Like node faults, switch faults live on :class:`FaultPlan` so one
        plan describes a whole scenario, but they are applied here: a dead
        switch drops everything queued in its ports and black-holes
        arrivals, and every flow whose primary ECMP path crossed it
        reroutes at the upstream hop.
        """
        if plan.switch_down_at is None:
            raise NetworkError(
                f"{plan!r} has no switch_down_at; nothing to schedule")
        schedule_switch_fault(self, self.switch(switch_id), plan)

    def fail_domain(self, switch_ids: Sequence[int], at_us: float) -> None:
        """Fail a correlated group of switches as ONE event at ``at_us``.

        This is the blast-radius primitive: a shared power feed or a rack
        top dying takes every switch in the domain down at the same
        virtual instant, not as independent coin flips.
        """
        switches = [self.switch(sid) for sid in switch_ids]
        if not switches:
            raise NetworkError("fail_domain needs at least one switch")

        def _blast() -> None:
            for sw in switches:
                sw.fail()

        self.sim.schedule(max(0.0, at_us - self.sim.now), _blast)

    def rack_partition(self, rack: int, from_us: float,
                       until_us: float | None) -> int:
        """Sever one rack from the rest of the fabric for a time window.

        Installs partition windows on every link crossing the rack
        boundary on every rail — both directions, switch-to-switch and
        nothing inside the rack — so intra-rack traffic keeps flowing
        while the rack is unreachable from outside.  Returns the number
        of links the window was installed on.
        """
        if not self.racks:
            raise NetworkError(
                f"no racks in a flat {self.topology_name}; build a "
                "structured topology (fat-tree, dragonfly) for rack faults")
        if not 0 <= rack < len(self.racks):
            raise NetworkError(
                f"rack {rack} out of range (cluster has {len(self.racks)})")
        rack_switches = self._rack_switches[rack]
        interior = {sw.node_id for sw in rack_switches}
        interior.update(self.racks[rack])
        installed = 0
        for link in self.links:
            inside_src = link.src.node_id in interior
            inside_dst = link.dst.node_id in interior
            if inside_src == inside_dst:
                continue
            link.add_partition(from_us, until_us)
            installed += 1
        if self.tracer.enabled:
            self.tracer.emit(self.sim.now, "cluster", "rack_partition",
                             rack=rack, hosts=list(self.racks[rack]),
                             from_us=from_us, until_us=until_us,
                             links=installed)
        return installed

    def path(self, src: int, dst: int, rail: int = 0) -> list[str]:
        """The switch names a ``src -> dst`` flow traverses on ``rail``.

        A side-effect-free walk of the current route tables (reroute
        counters are not bumped).  Empty for a direct point-to-point link
        (the mesh), truncated at the first black hole.
        """
        self.node(src)
        self.node(dst)
        nic = self.nodes[src].nic(rail)
        link = nic.uplink
        if link is None:
            return []  # point-to-point: no switches on the way
        hops: list[str] = []
        current = link.dst
        for _ in range(64):
            if not isinstance(current, Switch):
                break
            hops.append(current.name)
            port_id = current.select_port(src, dst, count=False)
            if port_id is None:
                break
            current = current.ports[port_id].link.dst
        return hops

    def partition(
        self,
        groups: Sequence[Sequence[int]],
        from_us: float,
        until_us: float | None,
        one_way: bool = False,
    ) -> int:
        """Sever the network between node groups for a time window.

        Every link whose endpoints sit in *different* groups gets a
        partition window ``[from_us, until_us)`` (``until_us=None`` =
        forever) appended to its :class:`FaultPlan` — installing one if
        the link has none.  Nodes not named in any group are unaffected.

        With ``one_way=True`` only links from a lower-indexed group to a
        higher-indexed one drop frames: asymmetric loss where A cannot
        reach B but B's frames (including heartbeats) still reach A.

        Returns the number of links the partition was installed on.
        """
        if len(groups) < 2:
            raise NetworkError(
                f"a partition needs at least 2 groups, got {len(groups)}")
        membership: dict[int, int] = {}
        for gidx, members in enumerate(groups):
            for node_id in members:
                self.node(node_id)  # range check
                if node_id in membership:
                    raise NetworkError(
                        f"node {node_id} appears in more than one "
                        "partition group")
                membership[node_id] = gidx
        installed = 0
        for link in self.links:
            ga = membership.get(link.src.node_id)
            gb = membership.get(link.dst.node_id)
            if ga is None or gb is None or ga == gb:
                continue
            if one_way and ga > gb:
                continue
            link.add_partition(from_us, until_us)
            installed += 1
        if installed:
            if self.tracer.enabled:
                self.tracer.emit(self.sim.now, "cluster", "partition",
                                 groups=[list(g) for g in groups],
                                 from_us=from_us, until_us=until_us,
                                 one_way=one_way, links=installed)
        return installed

    def rail_index(self, tech_or_name: str) -> int:
        """Find a rail by profile name or technology string."""
        for idx, profile in enumerate(self.rails):
            if tech_or_name in (profile.name, profile.tech):
                return idx
        raise NetworkError(
            f"no rail {tech_or_name!r} in cluster "
            f"(rails: {[p.name for p in self.rails]})"
        )

    def conservation_ok(self, allow_faults: bool = False) -> bool:
        """True when no frame is lost or duplicated on any quiesced link.

        With ``allow_faults=True``, frames an injected fault dropped or
        duplicated are accounted for instead of counted as violations:
        every frame that entered a link must either have been delivered
        or deliberately dropped, and every wire echo adds exactly one
        extra delivery.  This is the check to use with the reliability
        layer, whose retransmissions re-enter links as fresh sends.
        """
        if allow_faults:
            return all(
                l.frames_sent + l.frames_duplicated
                == l.frames_delivered + l.frames_dropped
                and l.bytes_sent + l.bytes_duplicated
                == l.bytes_delivered + l.bytes_dropped
                for l in self.links
            )
        return all(
            l.frames_sent == l.frames_delivered
            and l.bytes_sent == l.bytes_delivered
            for l in self.links
        )

    def fault_summary(self) -> dict[str, int]:
        """Aggregate injected-fault counters across every link."""
        return {
            "frames_dropped": sum(l.frames_dropped for l in self.links),
            "frames_corrupted": sum(l.frames_corrupted for l in self.links),
            "frames_slowed": sum(l.frames_slowed for l in self.links),
            "frames_duplicated": sum(l.frames_duplicated for l in self.links),
            "frames_reordered": sum(l.frames_reordered for l in self.links),
            "frames_jittered": sum(l.frames_jittered for l in self.links),
            "frames_partition_dropped": sum(
                l.frames_partition_dropped for l in self.links),
            "bytes_dropped": sum(l.bytes_dropped for l in self.links),
            "bytes_duplicated": sum(l.bytes_duplicated for l in self.links),
            "links_down": sum(1 for l in self.links if l.down),
            "links_slowed": sum(1 for l in self.links if l.frames_slowed),
            "links_partitioned": sum(
                1 for l in self.links if l.frames_partition_dropped),
            "nodes_down": sum(1 for n in self.nodes if not n.up),
            "nic_frames_lost": sum(
                nic.frames_lost for n in self.nodes for nic in n.nics
            ),
            # Switch fault domain (all zero on the flat mesh).
            "switches_down": sum(1 for s in self.switches if not s.up),
            "switch_frames_dropped": sum(
                s.frames_dropped for s in self.switches),
            "switch_bytes_dropped": sum(
                s.bytes_dropped for s in self.switches),
            "switch_frames_forwarded": sum(
                s.frames_forwarded for s in self.switches),
            "paths_rerouted": sum(s.paths_rerouted for s in self.switches),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cluster {len(self.nodes)} nodes, "
            f"rails={[p.name for p in self.rails]}>"
        )
