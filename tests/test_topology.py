"""Topology-aware fault domains: fabrics, switch kills, rack partitions.

Covers the PR's tentpole end to end:

* builders — the flat mesh stays the default (and byte-identical), while
  fat-tree and dragonfly wire hosts through switches and allocate only
  the links that physically exist (no O(n^2) eager mesh);
* ECMP — deterministic, hash-seed-immune path selection, with local
  reroute around a dead switch counted and observable;
* fault domains — a spine kill mid-transfer heals byte-exactly, a rack
  partition severs only boundary links, and a blast radius is each of
  its switches scheduled at the same time;
* wiring — link order, switch salts, route tables, racks and the
  boundary links of every rack are pinned for four shapes, so a refactor
  of the builders cannot move an event;
* the drill harness — seeded fat-tree chaos schedules with switch kills
  pass the full 11-invariant audit (a Hypothesis property), and the
  report's topology group carries the switch counters.
"""

import hashlib

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core import EngineParams, NmadEngine
from repro.errors import NetworkError
from repro.netsim import (
    MX_MYRI10G,
    QUADRICS_QM500,
    Cluster,
    Dragonfly,
    FatTree,
    FaultPlan,
    Mesh,
    Switch,
    flow_hash,
)
from repro.netsim.frames import Frame
from repro.netsim.stats import SWITCH_COUNTERS, topology_summary
from repro.sim import Simulator

ACK = dict(reliability="ack", rel_ack_delay_us=10.0)


def make_pair(params, topology, rails=(MX_MYRI10G,), strategy="aggregation",
              n_nodes=2):
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=rails, topology=topology)
    engines = [NmadEngine(cluster.node(i), strategy=strategy, params=params)
               for i in range(n_nodes)]
    return sim, cluster, engines


def fat_tree_link_budget(spec: FatTree, n_nodes: int) -> int:
    """The exact number of directed links a fat-tree rail allocates."""
    return 2 * n_nodes + 4 * spec.k * spec.half ** 2


# -- builders -----------------------------------------------------------------

class TestBuilders:
    def test_mesh_default_has_no_switches(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=3, rails=(MX_MYRI10G,))
        assert cluster.topology_name == "mesh"
        assert cluster.switches == []
        assert cluster.racks == []
        assert cluster.host_uplinks == {}
        assert len(cluster.links) == 3 * 2  # the full directed mesh
        assert cluster.path(0, 1) == []

    def test_fat_tree_link_count_is_linear_not_quadratic(self):
        # The satellite bugfix: link construction goes through the builder,
        # so a switched fabric never pays the mesh's O(n^2) eager links.
        spec = FatTree(k=4)
        n = spec.capacity()  # 16 hosts
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=n, rails=(MX_MYRI10G,), topology=spec)
        assert len(cluster.links) == fat_tree_link_budget(spec, n) == 96
        assert len(cluster.links) < n * (n - 1)  # the mesh would need 240
        assert len(cluster.switches) == 20  # 8 edge + 8 agg + 4 core

    def test_fat_tree_scales_linearly_at_k8(self):
        spec = FatTree(k=8)
        n = 64
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=n, rails=(MX_MYRI10G,), topology=spec)
        budget = fat_tree_link_budget(spec, n)
        assert len(cluster.links) == budget
        assert budget < n * (n - 1) // 4  # far below the mesh's 4032

    def test_two_hosts_cross_the_spine(self):
        # Hosts round-robin ACROSS pods, so even the two-node drill exercises
        # edge -> agg -> core -> agg -> edge.
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        hops = cluster.path(0, 1)
        assert len(hops) == 5
        tiers = [cluster.switches[
            next(i for i, s in enumerate(cluster.switches) if s.name == h)
        ].tier for h in hops]
        assert tiers == ["edge", "agg", "core", "agg", "edge"]

    def test_capacity_is_enforced(self):
        with pytest.raises(NetworkError, match="at most 16"):
            Cluster(Simulator(), n_nodes=17, rails=(MX_MYRI10G,),
                    topology=FatTree(k=4))
        with pytest.raises(NetworkError, match="even"):
            FatTree(k=5)
        with pytest.raises(NetworkError, match="under-provisioned"):
            Dragonfly(groups=8, routers=2, global_links=2)

    def test_fat_tree_delivery_end_to_end(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(), "fat-tree")
        req = e1.irecv(src=0, tag=0, nbytes=64)
        e0.isend(1, bytes(range(64)), tag=0)
        sim.run()
        assert req.complete and req.data.tobytes() == bytes(range(64))
        assert cluster.fault_summary()["switch_frames_forwarded"] > 0
        assert cluster.conservation_ok()  # per-link, switch hops included

    def test_dragonfly_delivery_end_to_end(self):
        sim, cluster, (e0, e1, e2, e3) = make_pair(
            EngineParams(), Dragonfly(groups=2, routers=2,
                                      hosts_per_router=1, global_links=1),
            n_nodes=4)
        # host 0,1 in group 0; host 2,3 in group 1: cross-group traffic.
        req = e2.irecv(src=0, tag=0, nbytes=32)
        e0.isend(2, b"x" * 32, tag=0)
        sim.run()
        assert req.complete and req.data.tobytes() == b"x" * 32
        assert any(s.frames_forwarded for s in cluster.switches
                   if s.tier == "router")
        assert cluster.racks == [[0, 1], [2, 3]]


# -- wiring pins --------------------------------------------------------------

def wiring_digest(cluster: Cluster) -> str:
    """Link order, switch salts and route tables, hashed.  Switch creation
    order fixes the ids, the ids fix the ECMP salts, and link order is
    event order: a builder refactor must leave this digest alone."""
    links = "|".join(f"{l.src.name}>{l.dst.name}" for l in cluster.links)
    switches = "|".join(f"{s.name}:{s.salt}:{sorted(s.routes.items())}"
                        for s in cluster.switches)
    return hashlib.sha256(f"{links}#{switches}".encode()).hexdigest()[:16]


class TestWiringPins:
    @pytest.mark.parametrize(
        "spec, n, links, switches, racks, rack_switches, installed, digest", [
            (FatTree(k=4, seed=3), 16, 192, 40,
             [[h, h + 8] for h in range(8)], [2] * 8, [8] * 8,
             "10749f18680a4838"),
            (FatTree(k=4), 5, 148, 40,
             [[h] for h in range(5)], [2] * 5, [8] * 5, "c92f66e5548678d9"),
            (Dragonfly(), 16, 104, 16,
             [list(range(g, g + 4)) for g in range(0, 16, 4)], [4] * 4,
             [12] * 4, "59acb44ad13b5026"),
            # Router g1.r1 has no hosts but sits in populated group 1, so
            # it is inside rack 1 (on both rails): only the group's global
            # links cross.  Leaving it out installs 12 windows too.
            (Dragonfly(), 6, 64, 16,
             [[0, 1, 2, 3], [4, 5]], [4, 4], [12, 12], "974d4c0e0ca89cf8"),
        ], ids=["fat-tree-16", "fat-tree-5", "dragonfly-16", "dragonfly-6"])
    def test_wiring_racks_and_rack_boundaries_are_pinned(
            self, spec, n, links, switches, racks, rack_switches, installed,
            digest):
        def build():
            return Cluster(Simulator(), n_nodes=n,
                           rails=(MX_MYRI10G, QUADRICS_QM500), topology=spec)

        cluster = build()
        assert (len(cluster.links), len(cluster.switches)) == (links, switches)
        assert wiring_digest(cluster) == digest
        assert cluster.racks == racks
        assert [sum(s.rack == r for s in cluster.switches)
                for r in range(len(racks))] == rack_switches
        assert [build().rack_partition(r, 10.0, 20.0)
                for r in range(len(racks))] == installed


# -- ECMP determinism ---------------------------------------------------------

class TestEcmp:
    @given(src=st.integers(0, 2**20), dst=st.integers(0, 2**20),
           salt=st.integers(0, 2**32 - 1))
    def test_flow_hash_is_a_stable_32bit_mixer(self, src, dst, salt):
        h = flow_hash(src, dst, salt)
        assert 0 <= h <= 0xFFFFFFFF
        assert h == flow_hash(src, dst, salt)  # pure function

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**16),
           src=st.integers(0, 15), dst=st.integers(0, 15))
    def test_paths_identical_across_rebuilds_with_same_seed(
            self, seed, src, dst):
        # The ECMP property the sanitizer relies on: path choice is a pure
        # function of (flow, builder seed) — two independently built
        # clusters agree on every path, regardless of PYTHONHASHSEED.
        if src == dst:
            return
        spec = FatTree(k=4, seed=seed)
        paths = []
        for _ in range(2):
            cluster = Cluster(Simulator(), n_nodes=16, rails=(MX_MYRI10G,),
                              topology=spec)
            paths.append(cluster.path(src, dst))
        assert paths[0] == paths[1]
        assert paths[0]  # never empty on a switched fabric

    def test_seed_changes_spread_flows_over_the_spine(self):
        # Different builder seeds re-salt the switches; over many flows at
        # least one flow must take a different path (ECMP actually spreads).
        def all_paths(seed):
            cluster = Cluster(Simulator(), n_nodes=16, rails=(MX_MYRI10G,),
                              topology=FatTree(k=4, seed=seed))
            return [tuple(cluster.path(s, d))
                    for s in range(16) for d in range(16) if s != d]

        assert all_paths(1) != all_paths(2)


class TestEcmpMemo:
    """``select_port`` hashes a flow once and remembers its primary port;
    the memo must agree with the hash, leave rerouting as it was, and
    follow the route table."""

    @staticmethod
    def hashed(sw: Switch, src: int, dst: int) -> int:
        candidates = sw.routes[dst]
        return candidates[flow_hash(src, dst, sw.salt) % len(candidates)]

    @pytest.mark.parametrize("spec", [
        FatTree(k=4),
        Dragonfly(groups=3, routers=2, hosts_per_router=2, global_links=1),
    ], ids=["fat-tree", "dragonfly"])
    def test_memoized_primary_equals_the_hash(self, spec):
        n = spec.capacity()
        cluster = Cluster(Simulator(), n_nodes=n, rails=(MX_MYRI10G,),
                          topology=spec)
        assert cluster.switches
        for sw in cluster.switches:
            for src in range(n):
                for dst in range(n):
                    if src == dst:
                        continue
                    want = self.hashed(sw, src, dst)
                    # The first lookup hashes and remembers, the second
                    # reads the memo: both are the hash's choice.
                    assert sw.select_port(src, dst, count=False) == want
                    assert sw.select_port(src, dst, count=False) == want
            assert sw.paths_rerouted == 0

    def test_each_rerouted_frame_counts_once(self, monkeypatch):
        # Oracle: a frame is rerouted when the hash's primary next hop is
        # down and some candidate is alive.  Count those at every arrival,
        # independently of the memo, and compare with the switches' count.
        rerouted = []
        arrive = Switch._arrive

        def counting_arrive(sw, frame):
            if sw.up:
                ports = [sw.ports[p] for p in sw.routes[frame.dst_node]]
                primary = sw.ports[self.hashed(sw, frame.src_node,
                                               frame.dst_node)]
                if not primary.alive and any(p.alive for p in ports):
                    rerouted.append(sw.name)
            arrive(sw, frame)

        monkeypatch.setattr(Switch, "_arrive", counting_arrive)
        n = 8
        sim, cluster, engines = make_pair(EngineParams(**ACK),
                                          FatTree(k=4, seed=1), n_nodes=n)
        core = next(s for s in cluster.switches
                    if s.tier == "core" and s.name in cluster.path(0, 1))
        cluster.schedule_switch_fault(core.switch_id,
                                      FaultPlan(switch_down_at=30.0))
        recvs = []
        for src in range(n):
            for dst in range(n):
                if src != dst:
                    recvs.append(engines[dst].irecv(src=src, tag=0))
                    engines[src].isend(dst, bytes(4096), tag=0)
        sim.run()
        assert all(r.complete and not r.failed for r in recvs)
        assert not core.up
        assert rerouted
        assert sum(s.paths_rerouted for s in cluster.switches) \
            == len(rerouted)

    def test_add_route_after_traffic_invalidates_the_memo(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(), FatTree(k=4))
        req = e1.irecv(src=0, tag=0, nbytes=64)
        e0.isend(1, bytes(64), tag=0)
        sim.run()
        assert req.complete
        # The first hop's uplink ECMP set for the flow, now memoized.
        edge = next(s for s in cluster.switches
                    if s.name == cluster.path(0, 1)[0])
        before = edge.select_port(0, 1, count=False)
        assert len(edge.routes[1]) == 2
        other, = [p for p in edge.routes[1] if p != before]
        edge.add_route(1, (other,))
        assert edge.select_port(0, 1, count=False) == other
        edge.add_route(1, (other, before))
        assert edge.select_port(0, 1, count=False) \
            == self.hashed(edge, 0, 1)


# -- fault domains ------------------------------------------------------------

class TestFaultDomains:
    def test_spine_kill_mid_transfer_heals_byte_exact(self):
        # The acceptance drill: kill the on-path core mid-transfer; the
        # upstream agg reroutes to the surviving core of the same group and
        # the 2 MiB transfer completes byte-exact with no endpoint help.
        params = EngineParams(**ACK)
        sim, cluster, (e0, e1) = make_pair(params, "fat-tree")
        on_path = cluster.path(0, 1)
        core = next(s for s in cluster.switches
                    if s.tier == "core" and s.name in on_path)
        cluster.schedule_switch_fault(
            core.switch_id, FaultPlan(switch_down_at=50.0))
        payload = bytes(range(256)) * 8192  # 2 MiB

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, payload, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req, sreq

        req, sreq = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert not sreq.failed
        assert not core.up
        summary = cluster.fault_summary()
        assert summary["paths_rerouted"] > 0
        assert summary["switches_down"] == 1
        # The new path avoids the corpse.
        assert core.name not in cluster.path(0, 1)
        assert cluster.conservation_ok(allow_faults=True)

    def test_dead_ecmp_set_black_holes_with_accounting(self):
        # With the on-path core *group* dead, the upstream agg has no live
        # uplink for this flow: frames are dropped *and counted*.
        sim, cluster, (e0, e1) = make_pair(EngineParams(), "fat-tree")
        on_path_core = next(s for s in cluster.switches
                            if s.tier == "core"
                            and s.name in cluster.path(0, 1))
        for s in cluster.switches:
            if s.tier == "core" and s.group == on_path_core.group:
                s.fail()
        req = e1.irecv(src=0, tag=0, nbytes=16)
        e0.isend(1, b"y" * 16, tag=0)
        sim.run()
        assert not req.complete  # the frame died inside the fabric
        assert cluster.fault_summary()["switch_frames_dropped"] >= 1
        assert cluster.conservation_ok(allow_faults=True)

    def test_rack_partition_severs_only_boundary_links(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=8, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        installed = cluster.rack_partition(0, 10.0, 200.0)
        # Rack 0 = host 0 behind pod0.edge0: the boundary is that edge's
        # uplinks/downlinks to the pod's aggs, both directions.
        assert installed == 4
        uplink = cluster.host_uplinks[(0, 0)]
        assert uplink.fault_plan is None  # intra-rack wiring untouched

    def test_rack_partition_heals_and_traffic_recovers(self):
        params = EngineParams(**ACK)
        sim, cluster, (e0, e1) = make_pair(params, "fat-tree")
        rack_of_1 = next(i for i, hosts in enumerate(cluster.racks)
                         if 1 in hosts)
        cluster.rack_partition(rack_of_1, 0.0, 500.0)

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, b"after-heal" * 10, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req

        req = sim.run_process(app())
        assert req.data.tobytes() == b"after-heal" * 10
        assert e0.stats.retransmits >= 1  # the in-window copies died
        assert sim.now >= 500.0  # delivery had to wait for the heal

    def test_rack_partition_rejected_on_the_mesh(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,))
        with pytest.raises(NetworkError, match="no racks"):
            cluster.rack_partition(0, 0.0, None)

    def test_faultplan_switch_down_validation(self):
        with pytest.raises(NetworkError):
            FaultPlan(switch_down_at=-1.0)
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        with pytest.raises(NetworkError, match="switch_down_at"):
            cluster.schedule_switch_fault(0, FaultPlan())

    def test_switch_fail_is_idempotent(self):
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=2, rails=(MX_MYRI10G,),
                          topology="fat-tree")
        sw = cluster.switches[0]
        sw.fail()
        gen = sw.generation
        sw.fail()
        assert sw.generation == gen  # second power-off is a no-op


# -- cut-through ports --------------------------------------------------------

#: One 4 KiB frame's wire time on MX, the unit a busy port delays a frame by.
WIRE_4K_US = 4096 / MX_MYRI10G.bandwidth_mbps


def send_4k(topology, n_nodes, srcs, dst, fail_at=None):
    """Post one raw 4 KiB frame from each of ``srcs`` to ``dst``; with
    ``fail_at``, the first switch fails at that time.  Returns the
    simulator, the cluster and the frames' arrival times at ``dst``."""
    sim = Simulator()
    cluster = Cluster(sim, n_nodes=n_nodes, rails=(MX_MYRI10G,),
                      topology=topology)
    arrivals = []
    cluster.node(dst).nic().set_receive_handler(
        lambda frame: arrivals.append(sim.now))
    for src in srcs:
        cluster.node(src).nic().post_send(
            Frame(src_node=src, dst_node=dst, kind="data", wire_size=4096))
    if fail_at is not None:
        sim.schedule(fail_at, cluster.switches[0].fail)
    sim.run()
    return sim, cluster, arrivals


#: Three hosts behind one router: two senders share its port to the third.
ONE_ROUTER = Dragonfly(groups=2, routers=1, hosts_per_router=3,
                       global_links=1)


class TestCutThroughPorts:
    """A port is busy for each frame's wire time; it never holds a frame
    for its own serialisation, which the source NIC already paid."""

    def test_idle_path_adds_only_latency_and_no_kernel_entry(self):
        lat = MX_MYRI10G.latency_us
        _, _, [t_mesh] = send_4k("mesh", 2, [0], 1)
        _, cluster, [t_tree] = send_4k(FatTree(k=4), 2, [0], 1)
        assert len(cluster.path(0, 1)) == 5
        assert t_tree == pytest.approx(t_mesh + 5 * lat)  # 12.5768us
        # Two frames: each of the five extra wires costs one delivery
        # entry per frame, and the switches none.  A raw frame carries no
        # send-completion cookie, so its tx end queues nothing.
        mesh_sim, _, _ = send_4k("mesh", 2, [0, 0], 1)
        tree_sim, _, _ = send_4k(FatTree(k=4), 2, [0, 0], 1)
        assert tree_sim.events_processed == mesh_sim.events_processed + 10
        assert tree_sim.events_processed == 16

    def test_a_busy_port_delays_the_second_frame_one_wire_time(self):
        _, _, [t_mesh] = send_4k("mesh", 2, [0], 1)
        _, cluster, arrivals = send_4k(ONE_ROUTER, 3, [0, 1], 2)
        assert cluster.path(0, 2) == cluster.path(1, 2) == ["df0.g0.r0"]
        idle = t_mesh + MX_MYRI10G.latency_us
        assert arrivals == [pytest.approx(idle, abs=1e-9),
                            pytest.approx(idle + WIRE_4K_US, abs=1e-9)]

    @pytest.mark.parametrize("topology, n_nodes", [
        (FatTree(k=4), 2),
        (Dragonfly(), Dragonfly().capacity()),
    ], ids=["fat-tree", "dragonfly"])
    def test_a_port_charges_a_frame_from_its_head(self, topology, n_nodes):
        # One flow on one rail and nothing else on its path: a 64 KiB frame,
        # then a small one right behind it on the same NIC.  Every port was
        # free by the time the small frame's head reached it, so the small
        # frame is handed over one link latency per link, plus the receive
        # overhead, after its NIC finished sending it.  A port that charged a frame from its tail would hold
        # the small one until the large one's wire time had passed there,
        # late by the two frames' wire-time difference less the pipeline gap.
        dst = n_nodes - 1
        sim = Simulator()
        cluster = Cluster(sim, n_nodes=n_nodes, rails=(MX_MYRI10G,),
                          topology=topology)
        arrivals, tx_done = [], []
        cluster.node(dst).nic().set_receive_handler(
            lambda frame: arrivals.append(sim.now))
        for size in (64 * 1024, 64):
            cluster.node(0).nic().post_send(
                Frame(src_node=0, dst_node=dst, kind="data", wire_size=size,
                      on_sent=lambda: tx_done.append(sim.now)))
        sim.run()
        links = len(cluster.path(0, dst)) + 1
        assert links >= 3
        route_us = (links * MX_MYRI10G.latency_us
                    + MX_MYRI10G.recv_overhead_us)
        assert arrivals == [pytest.approx(t + route_us, abs=1e-9)
                            for t in tx_done]

    def test_failed_switch_drops_the_waiting_frame_once(self):
        # Both frames reach the router together; it forwards the first at
        # once and dies while the second waits for the port.
        reach = (MX_MYRI10G.send_overhead_us + WIRE_4K_US
                 + MX_MYRI10G.latency_us)
        _, cluster, arrivals = send_4k(ONE_ROUTER, 3, [0, 1], 2,
                                       fail_at=reach + WIRE_4K_US / 2)
        router = cluster.switches[0]
        assert not router.up
        assert len(arrivals) == 1  # the head had left: delivered
        assert (router.frames_dropped, router.bytes_dropped) == (1, 4096)
        assert router.frames_forwarded == 1
        assert cluster.conservation_ok(allow_faults=True)


# -- multirail failover around a dead switch ----------------------------------

class TestSwitchFailover:
    def test_mid_transfer_failover_reroutes_around_dead_switch(self):
        # Two fat-tree rails; rail 1's entire spine dies mid-transfer.  The
        # reliability layer quarantines rail 1 (its frames black-hole) and
        # the transfer completes on rail 0 — rerouting *around a switch*,
        # not a link.  Cut-through ports add only latency to a lone flow's
        # 5-hop path, so the stock retry timeout needs no fabric budget.
        params = EngineParams(reliability="ack", rel_ack_delay_us=10.0)
        sim, cluster, (e0, e1) = make_pair(
            params, "fat-tree", rails=(MX_MYRI10G, QUADRICS_QM500),
            strategy="multirail")
        for s in cluster.switches:
            if s.tier == "core" and s.rail == 1:
                cluster.schedule_switch_fault(
                    s.switch_id, FaultPlan(switch_down_at=100.0))
        payload = bytes(range(256)) * 4096  # 1 MiB

        def app():
            req = e1.irecv(src=0, tag=0)
            sreq = e0.isend(1, payload, tag=0)
            yield req.done
            if not sreq.complete:
                yield sreq.done
            return req, sreq

        req, sreq = sim.run_process(app())
        assert req.data.tobytes() == payload
        assert not sreq.failed
        assert e0.stats.failovers >= 1
        assert e0.stats.rails_quarantined == 1
        assert e0.transfer.rail_ok(0)
        assert cluster.conservation_ok(allow_faults=True)


# -- registry / reporting -----------------------------------------------------

class TestTopologyReporting:
    def test_switch_counter_registry_is_exhaustive(self):
        # Every SWITCH_COUNTERS name is a real zero-initialized int on a
        # fresh Switch, and every int counter on Switch is registered — a
        # new counter cannot silently fall out of the report (NM304 style).
        sw = Switch(Simulator(), 0, "s0", "core", 0, salt=1)
        for counter in SWITCH_COUNTERS:
            assert getattr(sw, counter) == 0
        actual = {name for name, value in vars(sw).items()
                  if isinstance(value, int) and not isinstance(value, bool)
                  and not name.startswith("_")
                  and name not in ("switch_id", "node_id", "rail", "group",
                                   "rack", "salt", "generation")}
        assert actual == set(SWITCH_COUNTERS)

    def test_topology_summary_mesh_is_well_formed(self):
        cluster = Cluster(Simulator(), n_nodes=2, rails=(MX_MYRI10G,))
        summary = topology_summary(cluster)
        assert summary["name"] == "mesh"
        assert summary["n_switches"] == 0
        assert summary["switches"] == []
        assert summary["ecmp_spread"] == 0

    def test_topology_summary_counts_fabric_activity(self):
        sim, cluster, (e0, e1) = make_pair(EngineParams(), "fat-tree")
        req = e1.irecv(src=0, tag=0, nbytes=64)
        e0.isend(1, bytes(64), tag=0)
        sim.run()
        assert req.complete
        summary = topology_summary(cluster)
        assert summary["n_switches"] == 20
        assert summary["switch_frames_forwarded"] > 0
        assert len(summary["spine_loads"]) == 4  # rail-0 cores
        assert summary["ecmp_spread"] >= 0
        assert summary["name"] == "fat-tree"
        assert {sw["tier"] for sw in summary["switches"]} \
            == {"edge", "agg", "core"}


# -- the drill harness (Hypothesis property) ----------------------------------

class TestChaosDrills:
    @settings(max_examples=8, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 10_000))
    # Two rack partitions a few microseconds apart whose union outlasted
    # hb_timeout_us: the generator now keeps such windows apart.
    @example(seed=783)
    @example(seed=5908)
    def test_exactly_once_under_random_switch_kills(self, seed):
        # Any seeded fat-tree schedule with a spine kill must pass the full
        # invariant audit: every message delivered exactly once, byte-exact,
        # no counter ledger torn by the mid-flight switch death.
        from repro.chaos import ChaosSpec, run_chaos

        report = run_chaos(seed, ChaosSpec.quick(topology="fat-tree",
                                                 switch_kills=1))
        assert report.ok, report.describe()
        assert report.delivered == report.n_messages
        assert report.topology["switches_down"] >= 1
        assert any(f.kind == "switch_kill" for f in report.faults)

    def test_schedules_are_deterministic_per_seed(self):
        from repro.chaos import ChaosSpec, generate_schedule

        spec = ChaosSpec.quick(topology="fat-tree", switch_kills=2)
        assert generate_schedule(7, spec) == generate_schedule(7, spec)
        assert generate_schedule(7, spec) != generate_schedule(8, spec)

    def test_mesh_schedules_unchanged_by_the_topology_knob(self):
        # The RNG draw sequence for mesh schedules must be byte-identical
        # to the pre-topology engine: same seed, same faults.
        from repro.chaos import ChaosSpec, generate_schedule

        mesh = generate_schedule(42, ChaosSpec.quick())
        assert all(f.kind != "rack_partition" for f in mesh)
        assert all(f.kind != "switch_kill" for f in mesh)
